"""The determinate half: Markov limits and the elliptic spectral measures.

Markov's theorem as a numerical limit of Q_n/P_n, the discrete dn spectral
measure, and the continuous-parameter c > 0 family whose transform is a
ratio of two singular-weight quadratures. ``markov_limit`` first passes the
determinacy gate of :mod:`bdspec.indet`, as Markov's theorem holds for
determinate families only; the iterates claim no limit and pass no gate.
The double-precision iterates Q_n/P_n come from the segment solver of
:mod:`bdspec.recurrence`, with each solution rescaled by exact powers of
two; the extended-precision iterates from its decimal kernel, the one
``eval_pq_mp`` reads.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import roots_jacobi

from .contfrac import DiscreteMeasure
from .elliptic import EllipticContext, jacobi_scd
from .indet import DET_H, _require_verdict
from .numerics import ConvergedLimit, ConvergenceError, QuadratureError, Tolerance, _require_finite
from .recurrence import BirthDeathRates, _coefficients, _extended_rows, _qp_ratios


def markov_limit(
    rates: BirthDeathRates, x: complex, tol: Tolerance | None = None
) -> ConvergedLimit:
    """Limit of r_n = Q_n(x)/P_n(x) for x off the real axis.

    Stops at the first n >= 8 where |r_n - r_(n-1)| and |r_n - r_(n-2)| both
    fall below the tolerance bound (the ratio can oscillate with period two in
    magnitude), searched over doubling blocks of iterates. Exceeding
    ``max_iter`` returns ``converged=False`` with the best value. Raises
    ``DeterminacyError`` unless the rates classify DET_H: elsewhere the ratios
    creep to a border limit algebraically, and the rule would stop short of it.
    """
    x = complex(x)
    _require_finite(x, "x")
    _require_verdict(rates, (DET_H,))
    if x.imag == 0:
        raise ValueError("markov_limit requires Im x != 0")
    tol = tol or Tolerance()
    n = 32
    while True:
        n = min(2 * n, tol.max_iter)
        r = _qp_ratios(_coefficients(rates, n + 1), x, np.arange(n + 1))
        inc1 = np.abs(r[8:] - r[7:-1])
        inc2 = np.abs(r[8:] - r[6:-2])
        bound = tol.bound(r[8:])
        done = np.flatnonzero((inc1 <= bound) & (inc2 <= bound))
        if done.size:
            k = done[0]
            return ConvergedLimit(complex(r[k + 8]), int(k) + 8, float(inc1[k]), True)
        if n == tol.max_iter:
            return ConvergedLimit(complex(r[n]), n, float(inc1[-1]), False)


def markov_iterates(
    rates: BirthDeathRates, x: complex, ns: list[int], dps: int | None = None
) -> list[complex]:
    """Q_n/P_n at each index of ``ns``, in its order, for convergence studies.

    ``dps`` switches the recurrence to extended precision, where truncation
    errors far below double rounding remain resolvable: it is stepped in
    stdlib ``decimal`` arithmetic at dps + 2 digits, and the values come back
    as mpmath numbers at ``dps`` digits. Raises ValueError for an empty
    ``ns``, an index below 1 or ``dps`` below 1.
    """
    if len(ns) == 0:
        raise ValueError("ns must not be empty")
    ks = sorted(set(ns))
    if ks[0] < 1:
        raise ValueError("indices must be >= 1")
    if dps is None:
        vals = [complex(r) for r in _qp_ratios(_coefficients(rates, ks[-1] + 1), x, ks)]
    else:
        import mpmath as mp

        rows = _extended_rows(rates, x, ks, dps)
        with mp.workdps(dps):
            vals = [mp.mpc(*map(str, q)) / mp.mpc(*map(str, p)) for p, q in rows]
    by_index = dict(zip(ks, vals))
    return [by_index[n] for n in ns]


def dn_spectral_measure(ctx: EllipticContext, nmax: int) -> DiscreteMeasure:
    """Atoms psi_n at (n pi/K)^2 from the dn Fourier coefficients.

    The lattice ends at nmax, or before the first atom whose mass q^n
    underflows to 0 (from n = 238 at k^2 = 1/2); that cut is recorded in
    ``meta["underflow_cut"]``. The dropped tail is bounded by the geometric
    nome decay from the end of the lattice; the measure is flagged
    normalized when that bound is below 1e-14.
    """
    if nmax < 1:
        raise ValueError("nmax must be positive")
    K, q = ctx.K, ctx.q
    n = np.arange(nmax + 1)
    mass = np.empty(nmax + 1)
    mass[0] = math.pi / (2.0 * K)
    mass[1:] = (2.0 * math.pi / K) * q ** n[1:] / (1.0 + q ** (2 * n[1:]))
    end = int(np.argmax(mass == 0.0)) if mass[-1] == 0.0 else nmax + 1
    tail = (2.0 * math.pi / K) * q**end / (1.0 - q)
    meta = {"kind": "dn-spectral", "k2": ctx.k2, "tail_bound": tail}
    if end <= nmax:
        meta["underflow_cut"] = end
    return DiscreteMeasure(
        support=(n[:end] * math.pi / K) ** 2,
        mass=mass[:end],
        normalized=bool(tail < 1e-14),
        meta=meta,
    )


@functools.lru_cache(maxsize=128)
def _jacobi_rule(ctx: EllipticContext, nn: int, sigma: float, col: int) -> tuple[np.ndarray, np.ndarray]:
    # The x-independent part of one Gauss-Jacobi rule on [0, 2K]: nodes u
    # and each weight times the node factor scd[col] (m(u)/M)^sigma, where
    # m(u) = 2K sn(u)/(u(2K-u)) is the smooth positive part of sn once the
    # endpoint zeros are factored out and M = m(K) = 2/K. The weights gather
    # where the integrand (sn u)^sigma peaks, at u = K, where the factor is
    # 1; the power and the weight are multiplied as logs, so that neither
    # overflows or underflows at the far nodes where their product does
    # not. The one M that N has more than D is all generalized_ratio
    # multiplies back. One (sn, cn, dn) per node: jacobi_scd reflects u in
    # (K, 2K] to 2K - u, which keeps sn and the sign change of cn at full
    # relative accuracy. An entry at nn = 384 holds 6 KB, so the cache stays
    # below 0.8 MB.
    K = ctx.K
    with np.errstate(all="ignore"):  # the check below names what goes wrong
        t, w = roots_jacobi(nn, sigma, sigma)
        u = K * (1.0 + t)
        scd = np.array([jacobi_scd(ctx, ui) for ui in u])
        msm = K * K * scd[:, 0] / (u * (2.0 * K - u))
        wf = scd[:, col] * np.exp(sigma * np.log(msm) + np.log(w))
    if not np.isfinite(wf).all():
        # scipy's nodes turn nan from c near 1.5e4 at 96 nodes; sigma is 2c
        # for N (col 2) and 2c - 1 for D (col 1).
        c = (sigma + (col == 1)) / 2
        raise ConvergenceError(
            f"generalized_ratio's Gauss-Jacobi rule of {nn} nodes leaves the double range "
            f"at c = {c:g} (k^2 = {ctx.k2:g})"
        )
    for a in (u, wf):
        a.setflags(write=False)
    return u, wf


def generalized_ratio(
    ctx: EllipticContext, c: float, x: complex, tol: Tolerance | None = None
) -> complex:
    """Transform N(c;x)/D(c;x) of the c > 0 family.

    N carries the weight (sn u)^(2c), D the weight (sn u)^(2c-1); both
    vanish like powers of u(2K-u) at the period endpoints, so each integral
    is computed with a Gauss-Jacobi rule matching that exact weight, with
    the node count doubled until two estimates agree. Everything in a rule
    but the factor e^(-xu) is built once per (modulus, node count, exponent)
    and kept in a bounded cache of 128 rules. The normalizations, (2c)! and
    (2c-1)! and the rules' factors K^(2 sigma + 1)/(2K)^sigma, cancel in N/D
    to K/(4c), and the node factors' scale (2/K)^sigma to one 2/K, so no c
    overflows them. Raises QuadratureError at once when e^(-xu) underflows
    at every node of the D rule, which leaves 0/0, and
    :class:`ConvergenceError` naming c and the node count where scipy's
    Gauss-Jacobi rule is not finite (from c near 1.5e4 at 96 nodes).
    """
    if not c > 0:
        raise ValueError("c must be positive")
    x = complex(x)
    _require_finite(x, "x")
    if not x.real > 0:
        raise ValueError("generalized_ratio requires Re x > 0")
    tol = tol or Tolerance(abs_tol=1e-10, rel_tol=1e-10)
    scale = 0.5 / c  # K/(4c) times the one 2/K that N has more than D

    def one(nn: int, sigma: float, col: int) -> complex:
        u, wf = _jacobi_rule(ctx, nn, sigma, col)
        return np.sum(wf * np.exp(-x * u))

    def quad_pair(nn: int) -> complex:
        num = one(nn, 2.0 * c, 2)
        den = one(nn, 2.0 * c - 1.0, 1)
        if den == 0:
            raise QuadratureError(
                f"generalized_ratio denominator is 0: e^(-xu) underflowed at Re x = {x.real:g}",
                complex(num), math.nan,
            )
        return scale * num / den

    prev = None
    delta = math.inf
    for nn in (48, 96, 192, 384):
        val = quad_pair(nn)
        if prev is not None:
            delta = abs(val - prev)
            if delta <= tol.bound(val):
                return val
        prev = val
    raise QuadratureError("generalized_ratio quadratures did not stabilize", val, delta)
