"""The determinate half: Markov limits and the elliptic spectral measures.

Markov's theorem as a numerical limit of Q_n/P_n, the discrete dn spectral
measure, and the continuous-parameter c > 0 family whose transform is a
ratio of two singular-weight quadratures. The double-precision iterates
Q_n/P_n come from the segment solver of :mod:`bdspec.recurrence`, with each
solution rescaled by exact powers of two; the extended-precision iterates
from ``eval_pq_mp``.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import roots_jacobi

from .contfrac import DiscreteMeasure
from .elliptic import EllipticContext, jacobi_scd
from .numerics import ConvergedLimit, QuadratureError, Tolerance
from .recurrence import BirthDeathRates, _coefficients, _qp_ratios, eval_pq_mp


def markov_limit(
    rates: BirthDeathRates, x: complex, tol: Tolerance | None = None
) -> ConvergedLimit:
    """Limit of r_n = Q_n(x)/P_n(x) for x off the real axis.

    Stops at the first n >= 8 where |r_n - r_(n-1)| and |r_n - r_(n-2)| both
    fall below the tolerance bound (the ratio can oscillate with period two in
    magnitude), searched over doubling blocks of iterates. Exceeding
    ``max_iter`` returns ``converged=False`` with the best value.
    """
    x = complex(x)
    if x.imag == 0:
        raise ValueError("markov_limit requires Im x != 0")
    tol = tol or Tolerance()
    n = 32
    while True:
        n = min(2 * n, tol.max_iter)
        r = _qp_ratios(_coefficients(rates, n + 1), x, np.arange(n + 1))
        inc1 = np.abs(r[8:] - r[7:-1])
        inc2 = np.abs(r[8:] - r[6:-2])
        bound = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(r[8:]))
        done = np.flatnonzero((inc1 <= bound) & (inc2 <= bound))
        if done.size:
            k = done[0]
            return ConvergedLimit(complex(r[k + 8]), int(k) + 8, float(inc1[k]), True)
        if n == tol.max_iter:
            return ConvergedLimit(complex(r[n]), n, float(inc1[-1]), False)


def markov_iterates(
    rates: BirthDeathRates, x: complex, ns: list[int], dps: int | None = None
) -> list[complex]:
    """Q_n/P_n at the requested indices, for convergence studies.

    ``dps`` switches the recurrence to extended precision, where truncation
    errors far below double rounding remain resolvable; the returned values
    keep the extended type in that case.
    """
    ns = sorted(set(ns))
    if ns[0] < 1:
        raise ValueError("indices must be >= 1")
    if dps is not None:
        import mpmath as mp

        table = eval_pq_mp(rates, max(ns), x, dps)
        with mp.workdps(dps):
            return [table[n][1] / table[n][0] for n in ns]
    return [complex(r) for r in _qp_ratios(_coefficients(rates, ns[-1] + 1), x, ns)]


def dn_spectral_measure(ctx: EllipticContext, nmax: int) -> DiscreteMeasure:
    """Atoms psi_n at (n pi/K)^2 from the dn Fourier coefficients.

    The dropped tail is bounded by the geometric nome decay; the measure is
    flagged normalized when that bound is below 1e-14.
    """
    if nmax < 1:
        raise ValueError("nmax must be positive")
    K, q = ctx.K, ctx.q
    n = np.arange(nmax + 1)
    support = (n * math.pi / K) ** 2
    mass = np.empty(nmax + 1)
    mass[0] = math.pi / (2.0 * K)
    mass[1:] = (2.0 * math.pi / K) * q ** n[1:] / (1.0 + q ** (2 * n[1:]))
    tail = (2.0 * math.pi / K) * q ** (nmax + 1) / (1.0 - q)
    return DiscreteMeasure(
        support=support,
        mass=mass,
        normalized=bool(tail < 1e-14),
        meta={"kind": "dn-spectral", "k2": ctx.k2, "tail_bound": tail},
    )


def _cn_signed(ctx: EllipticContext, u: float) -> float:
    # cn on [0, 2K] without loss near the sign change at K: use the
    # reflection cn(2K - u) = -cn(u) to stay on [0, K].
    if u <= ctx.K:
        return jacobi_scd(ctx, u)[1]
    return -jacobi_scd(ctx, 2.0 * ctx.K - u)[1]


def _sn_reduced(ctx: EllipticContext, u: float) -> float:
    # sn(2K - u) = sn(u); evaluating on [0, K] keeps full relative accuracy
    # near both zeros of sn.
    v = min(u, 2.0 * ctx.K - u)
    return jacobi_scd(ctx, v)[0]


def generalized_ratio(
    ctx: EllipticContext, c: float, x: complex, tol: Tolerance | None = None
) -> complex:
    """Transform N(c;x)/D(c;x) of the c > 0 family.

    N carries the weight (sn u)^(2c), D the weight (sn u)^(2c-1); both
    vanish like powers of u(2K-u) at the period endpoints, so each integral
    is computed with a Gauss-Jacobi rule matching that exact weight, with
    the node count doubled until two estimates agree. Normalization uses
    math.gamma for (2c)! and (2c-1)!.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    x = complex(x)
    if not x.real > 0:
        raise ValueError("generalized_ratio requires Re x > 0")
    tol = tol or Tolerance(abs_tol=1e-10, rel_tol=1e-10)
    K = ctx.K
    twoK = 2.0 * K

    def quad_pair(nn: int) -> complex:
        # Shared nodes per exponent family; m(u) = 2K sn(u)/(u(2K-u)) is the
        # smooth positive part of sn once the endpoint zeros are factored out.
        def one(sigma: float, f) -> complex:
            t, w = roots_jacobi(nn, sigma, sigma)
            u = K * (1.0 + t)
            vals = np.empty(nn, dtype=complex)
            for i, ui in enumerate(u):
                msm = twoK * _sn_reduced(ctx, ui) / (ui * (twoK - ui))
                vals[i] = f(ui) * msm**sigma * cmath.exp(-x * ui)
            return K ** (2 * sigma + 1) / twoK**sigma * np.sum(w * vals)

        num = one(2.0 * c, lambda u: jacobi_scd(ctx, u)[2]) / math.gamma(2.0 * c + 1.0)
        den = one(2.0 * c - 1.0, lambda u: _cn_signed(ctx, u)) / math.gamma(2.0 * c)
        return num / den

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
