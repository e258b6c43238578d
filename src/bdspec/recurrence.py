"""Birth-death coefficient families and polynomial sequence evaluation.

Every double-precision evaluation of the orthonormal pair (P_n, Q_n) runs on
one kernel: a per-rates coefficient table (the recurrence coefficients, the
log columns log pi_n and log|1/alpha_n|, and the closed forms P_n(0) and
Q_n(0)) and one segment solver that solves the recurrence as banded forward
substitutions over cache-sized segments, rescaling each solution by an exact
power of two wherever its rows leave [1e-150, 1e150]. The products pi_n and
the partial sums 1/alpha_n are read from the log columns, so determinate
families neither underflow nor overflow there. ``eval_f`` (F_n = (-1)^n
sqrt(pi_n) P_n, its order-one associated family and the dual systems) reads
the same kernel rows and log column, and the border limits run the kernel
on its Stieltjes band; both resume the one rescaling segment loop,
:func:`_rescaled_rows`. A row that leaves the double range in one step,
from inside [1e-150, 1e150], raises :class:`ConvergenceError`. The
extended-precision iterates (``eval_pq_mp`` and ``markov_iterates(...,
dps=...)``) alone step the recurrence index by index: in stdlib ``decimal``
arithmetic at dps + 2 digits, on a per-rates decimal table of a_k, b_k and
1/b_k, with the results returned as mpmath numbers.
``eval_pq_mp`` is the independent reference the kernel is checked against.
Every per-rates table sits in the store of the rates object, next to its
rate table, with the classification and alpha that :mod:`bdspec.indet` keeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import ztbtrs

from .numerics import ConvergenceError, _require_finite

_RESCALE_HI = 1e150
_RESCALE_LO = 1e-150
_LN2 = math.log(2.0)
_LOG_TINY = math.log(np.finfo(float).tiny)

# Point-steps stacked into one banded solve.
_CHUNK = 2**13


class BirthDeathRates:
    """A coefficient pair (lambda_n, mu_n) with lambda_n > 0 and mu_n > 0 (n >= 1).

    ``lam`` and ``mu`` are array closed forms: each maps a float64 array of
    indices to the array of its rates (a scalar result stands for a constant
    rate), so any index is reachable and a table grows by one call each.
    Scalar-only callables go through :func:`custom_rates`. The rates are
    checked for n <= 1000 on construction and on every growth of the table
    kept by :meth:`tabulate`; ``_store`` keeps what is derived from them.
    """

    def __init__(
        self,
        lam: Callable[[np.ndarray], np.ndarray],
        mu: Callable[[np.ndarray], np.ndarray],
        family: str = "Custom",
        params: dict | None = None,
    ):
        self._lam = lam
        self._mu = mu
        self.family = family
        self.params = dict(params or {})
        self._tab = np.empty((2, 0))
        self._store: dict = {}
        self.tabulate(1000)

    def lam(self, n):
        """lambda_n: a float at a scalar n, an array at an index array."""
        return _evaluate(self._lam, n)

    def mu(self, n):
        """mu_n: a float at a scalar n, an array at an index array."""
        return _evaluate(self._mu, n)

    @property
    def mu0(self) -> float:
        return float(self._tab[1, 0])

    def tabulate(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (lambda_0..lambda_n, mu_0..mu_n), cached and grown on demand.

        Raises ValueError at the first index where a rate is not finite, or
        lambda_k <= 0, mu_k <= 0 (k >= 1) or mu_0 < 0.
        """
        have = self._tab.shape[1]
        if have <= n:
            ks = np.arange(have, n + 1, dtype=float)
            lam, mu = (np.broadcast_to(_evaluate(f, ks), ks.shape) for f in (self._lam, self._mu))
            ok = (np.isfinite(lam) & np.isfinite(mu) & (lam > 0)
                  & ((mu > 0) | ((ks == 0) & (mu >= 0))))
            if not ok.all():
                raise ValueError(f"rates lose positivity at index {have + int(ok.argmin())}")
            self._tab = np.concatenate([self._tab, [lam, mu]], axis=1)
        return self._tab[0, : n + 1].copy(), self._tab[1, : n + 1].copy()

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"BirthDeathRates({self.family}{'(' + ps + ')' if ps else ''})"


def _evaluate(f: Callable, n):
    # Float64 indices: integer arrays would wrap silently in the quartic products.
    with np.errstate(all="ignore"):
        v = f(np.asarray(n, dtype=float))
    return float(v) if np.ndim(n) == 0 else v


def stieltjes_dn_rates(k2: float) -> BirthDeathRates:
    """lambda_n = k^2 (2n+1)^2, mu_n = 4 n^2."""
    if not 0 < k2 < 1:
        raise ValueError("k2 must lie in (0, 1)")
    return BirthDeathRates(
        lambda n: k2 * (2 * n + 1) ** 2,
        lambda n: 4.0 * n * n,
        family="StieltjesDN",
        params={"k2": k2},
    )


def stieltjes_cn_rates(k2: float) -> BirthDeathRates:
    """lambda_n = (2n+1)^2, mu_n = 4 k^2 n^2.

    k2 > 1 is allowed: the continued fraction is defined for any positive
    rates even where the real-parameter elliptic evaluator is not.
    """
    if not k2 > 0:
        raise ValueError("k2 must be positive")
    return BirthDeathRates(
        lambda n: (2 * n + 1) ** 2,
        lambda n: 4.0 * k2 * n * n,
        family="StieltjesCN",
        params={"k2": k2},
    )


def generalized_c_rates(k2: float, c: float) -> BirthDeathRates:
    """lambda_n = k^2 (2n+2c+1)^2, mu_n = 4 (n+c)^2 (1 - delta_n0)."""
    if not 0 < k2 < 1:
        raise ValueError("k2 must lie in (0, 1)")
    if c < 0:
        raise ValueError("c must be nonnegative")
    # float_power is C pow, as the scalar formulas were; numpy's ** 2 is a
    # multiply, one ulp off it at some indices.
    return BirthDeathRates(
        lambda n: k2 * np.float_power(2 * n + 2 * c + 1, 2),
        lambda n: np.where(n == 0, 0.0, 4.0 * np.float_power(n + c, 2)),
        family="GeneralizedC",
        params={"k2": k2, "c": c},
    )


def custom_rates(
    lam: Callable[[int], float], mu: Callable[[int], float], tag: str = "Custom"
) -> BirthDeathRates:
    """Rates from scalar-only callables, each called at every index as an int."""

    def per_index(f):
        return np.vectorize(lambda k: f(int(k)), otypes=[float])

    return BirthDeathRates(per_index(lam), per_index(mu), family=tag)


def dual_rates(rates: BirthDeathRates, zero_related: bool = False) -> BirthDeathRates:
    """Swapped system: lambda~_n = mu_{n+1}, mu~_n = lambda_n.

    With ``zero_related`` the zeroth death rate is reset to zero
    (mu^_n = lambda_n (1 - delta_n0)), keeping the Stieltjes convention.
    """
    if rates.mu0 != 0:
        raise ValueError("dual rates are defined for mu_0 = 0 systems only")
    if zero_related:
        mu = lambda n: np.where(n == 0, 0.0, rates.lam(n))
        family = f"ZeroRelatedDualOf[{rates.family}]"
    else:
        mu = rates.lam
        family = f"DualOf[{rates.family}]"
    return BirthDeathRates(
        lambda n: rates.mu(n + 1), mu, family=family, params=dict(rates.params)
    )


@dataclass(frozen=True)
class JacobiCoeffs:
    """Tridiagonal coefficients a_k = lambda_k + mu_k, b_k = sqrt(lambda_k mu_{k+1})."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.b.size and not np.all(self.b > 0):
            raise ValueError("off-diagonal coefficients must be positive")


def jacobi_from_rates(rates: BirthDeathRates, n: int) -> JacobiCoeffs:
    """First n diagonal and off-diagonal Jacobi coefficients."""
    if n < 1:
        raise ValueError("n must be positive")
    lam, mu = rates.tabulate(n + 1)
    a = lam[:n] + mu[:n]
    b = np.sqrt(lam[:n] * mu[1 : n + 1])
    return JacobiCoeffs(a=a, b=b)


@dataclass(frozen=True)
class PolySequence:
    """Evaluated polynomial sequence with per-index log scaling.

    The true k-th value is ``values[k] * exp(scaling_log[k])`` (and likewise
    for ``derivs``, which shares the same scaling). Evaluated at an array of
    points, each ``[k]`` holds index k at every point. Reconstruction may
    overflow for genuinely huge values; detecting that is the caller's task.
    """

    values: np.ndarray
    scaling_log: np.ndarray
    derivs: np.ndarray | None = None

    def __len__(self):
        return len(self.values)

    def value(self, k: int) -> complex:
        return self.values[k] * np.exp(self.scaling_log[k])

    def deriv(self, k: int) -> complex:
        if self.derivs is None:
            raise ValueError("sequence was evaluated without derivatives")
        return self.derivs[k] * np.exp(self.scaling_log[k])

    def log_abs(self, k: int) -> float:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.values[k])) + self.scaling_log[k]


@dataclass(frozen=True)
class _Band:
    """Rows k of y_{k+1} = (x inv_b_k - a_b_k) y_k - b_ratio_k y_{k-1}."""

    a_b: np.ndarray
    inv_b: np.ndarray
    b_ratio: np.ndarray


@dataclass(frozen=True)
class _Coefficients(_Band):
    """The band of (Q_k, P_k), a_b = a_k/b_k, inv_b = 1/b_k, b_ratio =
    b_{k-1}/b_k, with log pi_k, log|1/alpha_k| (1/alpha_k = -sum_{1<=j<=k}
    1/(mu_j pi_j), so -inf at k = 0) and the weights (-1)^k sqrt(pi_k) /
    alpha_k and (-1)^k sqrt(pi_k), Q_k(0) and P_k(0) when mu_0 = 0. Every
    entry depends on its index alone, not on the size of the table."""

    log_pi: np.ndarray
    log_ainv: np.ndarray
    weights: np.ndarray


def _log_columns(lam: np.ndarray, mu: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """log pi_k and log|1/alpha_k| for k < size from a tabulation of the rates."""
    # Summed in extended precision, log pi_k carries the rounding of the
    # ratios alone, about as little as a running product would.
    lam, mu = lam[:size], mu[:size]
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        steps = np.log(lam[:-1] / mu[1:])
    # A ratio outside the normal double range is read as a difference of logs.
    wide = ~(steps >= _LOG_TINY) | np.isinf(steps)
    steps[wide] = np.log(lam[:-1][wide]) - np.log(mu[1:][wide])
    steps = steps.astype(np.longdouble)
    log_pi = np.concatenate(([0.0], np.cumsum(steps).astype(float)))
    log_ainv = np.concatenate(
        ([-np.inf], np.logaddexp.accumulate(-(np.log(mu[1:]) + log_pi[1:])))
    )
    return log_pi, log_ainv


def _coefficients(rates: BirthDeathRates, size: int) -> _Coefficients:
    """The table of ``rates`` with at least ``size`` rows, kept in the rates'
    store under "table" and rebuilt larger on demand."""
    tab = rates._store.get("table")
    if tab is None or tab.inv_b.size < size:
        lam, mu = rates.tabulate(size)
        b = np.sqrt(lam[:-1] * mu[1:])
        log_pi, log_ainv = _log_columns(lam, mu, size)
        sign = (-1.0) ** np.arange(size)
        # Only determinate families overflow here, and they never use the weights.
        with np.errstate(over="ignore"):
            p0 = sign * np.exp(0.5 * log_pi)
            q0 = -sign * np.exp(0.5 * log_pi + log_ainv)
        tab = rates._store["table"] = _Coefficients(
            a_b=(lam[:-1] + mu[:-1]) / b,
            inv_b=1.0 / b,
            b_ratio=np.concatenate(([0.0], b[:-1] / b[1:])),
            log_pi=log_pi,
            log_ainv=log_ainv,
            weights=np.stack([q0, p0], axis=1),
        )
    return tab


def _stieltjes_band(rates: BirthDeathRates, size: int) -> _Band:
    """At least ``size`` rows of Stieltjes' continued fraction 1/(m_1 z + 1/(l_1
    + 1/(m_2 z + ...))) at z = -x: y_(2n+1) = m_(n+1) z y_2n + y_(2n-1) and
    y_(2n+2) = l_(n+1) y_(2n+1) + y_2n, with m_(n+1) = pi_n and l_(n+1) =
    1/(lambda_n pi_n) from the log column. Rows 2n of (Q, P) are Q_n/P_n(0)
    and P_n/P_n(0), reached without the cancelling difference x - a_n. Kept
    in the rates' store under "stieltjes" and rebuilt larger on demand."""
    band = rates._store.get("stieltjes")
    if band is None or band.inv_b.size < size:
        half = (size + 1) // 2
        lam, mu = rates.tabulate(half)
        log_pi, _ = _log_columns(lam, mu, half)
        a_b, inv_b = np.zeros((2, 2 * half))
        inv_b[0::2] = -np.exp(log_pi)
        a_b[1::2] = -np.exp(-(np.log(lam[:half]) + log_pi))
        band = rates._store["stieltjes"] = _Band(a_b, inv_b, np.broadcast_to(-1.0, 2 * half))
    return band


def _start(tab: _Band, xs: np.ndarray, nrhs: int) -> np.ndarray:
    """Rows 0 and 1 of (Q, P), and of (Q', P') when ``nrhs`` is 4, at each x."""
    carry = np.zeros((nrhs, xs.size, 2), dtype=complex)
    carry[0, :, 1] = tab.inv_b[0]
    carry[1, :, 0] = 1.0
    carry[1, :, 1] = xs * tab.inv_b[0] - tab.a_b[0]
    if nrhs == 4:
        carry[3, :, 1] = tab.inv_b[0]
    return carry


def _advance(tab: _Band, xs: np.ndarray, carry: np.ndarray, lo: int, hi: int):
    """Rows lo-2..hi-1, shape (nrhs, points, hi - lo + 2), from rows lo-2 and
    lo-1 in ``carry`` (nrhs, points, 2): Q and P, plus Q' and P' (the same
    recurrence with source y_k/b_k) when nrhs is 4. All points form one
    block-diagonal unit lower-triangular system of bandwidth 2, solved by
    banded LAPACK. The carried rows are its first two (identity) rows, so a
    row is computed by the same operations wherever a segment starts.
    """
    n, L = xs.size, hi - lo + 2
    band = np.empty((n, L, 3), dtype=complex)  # the unit diagonal, band[:, :, 0], is not read
    band[:, 1:-1, 1] = tab.a_b[lo - 1 : hi - 1] - xs[:, None] * tab.inv_b[lo - 1 : hi - 1]
    band[:, :-2, 2] = tab.b_ratio[lo - 1 : hi - 1]
    band[:, [0, -1], 1] = band[:, -2:, 2] = 0.0
    ab = band.reshape(n * L, 3).T  # Fortran-ordered, so f2py passes it uncopied
    rows = np.zeros((carry.shape[0], n, L), dtype=complex)
    rows[:, :, :2] = carry
    for r in range(0, carry.shape[0], 2):
        if r:  # the derivatives' source term; rows past an overflow are discarded
            with np.errstate(invalid="ignore"):
                rows[2:, :, 2:] = tab.inv_b[lo - 1 : hi - 1] * rows[:2, :, 1:-1]
        # rows[r:r+2] is C-contiguous, so its transpose is the Fortran-ordered
        # right-hand side that ztbtrs overwrites in place.
        _, info = ztbtrs(ab, rows[r : r + 2].reshape(2, -1).T, uplo="L", diag="U", overwrite_b=1)
        if info != 0:
            raise ValueError(f"banded solve failed (info={info})")
    return rows


def _rescaled_rows(tab: _Band, xs, ks, carry, scale, lo: int, rows, exps):
    """Fills ``rows`` (nrhs, points, ks) and ``exps`` (2, points, ks) with rows
    ``ks`` (ascending, none below ``lo``) at each point of ``xs``, continued
    from rows lo-2 and lo-1, ``carry`` (nrhs, points, 2) times ``2**scale``
    (2, points): solution r is ``rows[r] * 2**exps[r % 2]`` (a derivative
    shares its solution's exponent). Returns the carry and scale that
    continue from ks[-1] + 1.

    A segment, of at most ``_CHUNK`` point-steps, ends after the first row at
    which, for some point, a solution and its derivative leave [1e-150, 1e150]
    over the last two rows; those carried rows are scaled by an exact power of
    two back to [0.5, 1), and the next segment tries twice the length of the
    one cut short. Every row is computed by the same operations wherever a
    segment starts, so each point's rows and exponents are those of a lone
    evaluation. A row that overflows in one step raises
    :class:`ConvergenceError` naming the double range and the point.
    """
    nrhs, n = carry.shape[0], int(ks[-1])
    j = 0
    width = span = min(n - lo + 1, _CHUNK // xs.size)
    while lo <= n:
        hi = min(lo + width, n + 1)
        while True:
            seg = _advance(tab, xs, carry, lo, hi)
            cut, rescale = hi - lo, False
            parts = np.abs(seg[:, :, 2:].view(float))
            # Real and imaginary parts in [1e-150, 1e150 / 2] keep every row
            # inside; only otherwise (nan included) are the moduli needed.
            if not (parts.max() <= _RESCALE_HI / 2 and parts.min() >= _RESCALE_LO):
                mag = np.abs(seg[:, :, 1:])
                if nrhs == 4:
                    mag = np.maximum(mag[:2], mag[2:])
                pair = np.maximum(mag[:, :, 1:], mag[:, :, :-1])
                out = (pair > _RESCALE_HI) | (pair < _RESCALE_LO)
                hit = out.any(axis=(0, 1))
                rescale = hit.any()
                if rescale:
                    cut = int(hit.argmax()) + 1
            # A point whose rows overflowed by the end of the segment spoils
            # the points solved after it (inf * 0 is nan): solve again, up
            # to the first row that leaves the range.
            if cut == hi - lo or np.isfinite(seg[:, :-1, -2:]).all():
                break
            hi = lo + cut
        lo += cut
        width = min(span, 2 * cut)
        j1 = ks.size if lo > n else ks.searchsorted(lo)
        rows[:, :, j:j1] = seg.take(ks[j:j1] - (lo - cut - 2), axis=2)
        exps[:, :, j:j1] = scale[:, :, None]
        j = j1
        carry = seg[:, :, cut : cut + 2]
        if rescale:
            # A row that overflows in one step from inside the range has
            # no exponent to carry.
            lost = ~np.isfinite(carry).all(axis=(0, 2))
            if lost.any():
                raise ConvergenceError(
                    f"recurrence rows leave the double range in one step at x = {xs[lost][0]:.6g}"
                )
            e = np.where(out[:, :, cut - 1], np.frexp(pair[:, :, cut - 1])[1], 0)
            carry = carry * np.ldexp(1.0, -e)[np.arange(nrhs) % 2, :, None]
            scale = scale + e
    return carry, scale


def _solve(tab: _Band, xs: np.ndarray, ks: np.ndarray, nrhs: int = 2):
    """Rows ``ks`` (ascending) of (Q, P), and of (Q', P') when ``nrhs`` is 4, at
    each point of ``xs``, as the ``(rows, exps)`` that :func:`_rescaled_rows`
    fills from rows 0 and 1, over chunks of points of at most ``_CHUNK``
    point-steps. A point that is not finite raises ValueError."""
    _require_finite(xs, "x")
    rows = np.empty((nrhs, xs.size, ks.size), dtype=complex)
    exps = np.zeros((2, xs.size, ks.size), dtype=int)
    start = _start(tab, xs, nrhs)
    head = np.searchsorted(ks, 2)
    rows[:, :, :head] = start[:, :, ks[:head]]
    step = max(1, _CHUNK // max(1, int(ks[-1]) - 1))
    for i0 in range(0, xs.size if head < ks.size else 0, step):
        pts = slice(i0, i0 + step)
        _rescaled_rows(tab, xs[pts], ks[head:], start[:, pts], np.zeros_like(exps[:, pts, 0]), 2,
                       rows[:, pts, head:], exps[:, pts, head:])
    return rows, exps


def _qp_ratios(tab: _Band, x: complex, ks) -> np.ndarray:
    """Q/P on the rows ``ks`` (ascending) of ``tab``: Q_k(x) / P_k(x) on the
    coefficient table, the k-th convergent on the Stieltjes band."""
    (q, p), (eq, ep) = (a[:, 0] for a in _solve(tab, np.array([complex(x)]), np.asarray(ks)))
    return q / p * np.ldexp(1.0, eq - ep)


def eval_pq(
    rates: BirthDeathRates, n: int, x, with_deriv: bool = False
) -> tuple[PolySequence, PolySequence]:
    """Evaluate P_0..P_n and Q_0..Q_n at ``x``, a point or a 1-D array of points.

    Derivatives, when requested, come from the exactly differentiated
    recurrence (no finite differences). At an array of points ``values[k]``,
    ``scaling_log[k]`` and ``derivs[k]`` hold index k at every point, and each
    point gets exactly what it gets on its own.
    """
    if n < 1:
        raise ValueError("n must be positive")
    xs = np.asarray(x, dtype=complex)
    if xs.ndim > 1:
        raise ValueError("x must be a point or a 1-D array of points")
    rows, exps = _solve(
        _coefficients(rates, n + 1), xs.reshape(-1), np.arange(n + 1), 4 if with_deriv else 2
    )

    def indexed(a):  # (points, n + 1) -> index first
        return a[0] if xs.ndim == 0 else a.T

    def seq(r):
        return PolySequence(
            values=indexed(rows[r]),
            scaling_log=indexed(exps[r] * _LN2),
            derivs=indexed(rows[r + 2]) if with_deriv else None,
        )

    return seq(1), seq(0)


def eval_f(rates: BirthDeathRates, n: int, x: complex, shift: int = 0) -> PolySequence:
    """Evaluate F_0..F_n at ``x``; ``shift=s`` uses rates (lambda_{k+s}, mu_{k+s}).

    F_n solves mu_{k+1} F_{k+1} = (lambda_k + mu_k - x) F_k
    - lambda_{k-1} F_{k-1}, with F_0 = 1, so that F_n(0) = pi_n; it is read
    off the kernel as F_n = (-1)^n sqrt(pi_n) P_n, the log sqrt(pi_n) going
    into ``scaling_log``. ``shift=1`` yields the order-one associated family,
    whose rates and tables the store of ``rates`` keeps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if shift:
        base = rates
        rates = base._store.get(("shift", shift))
        if rates is None:
            rates = base._store[("shift", shift)] = BirthDeathRates(
                lambda k: base.lam(k + shift), lambda k: base.mu(k + shift))
    P, _ = eval_pq(rates, max(n, 1), complex(x))
    half_log_pi = 0.5 * _coefficients(rates, n + 1).log_pi[: n + 1]
    return PolySequence(
        values=(-1.0) ** np.arange(n + 1) * P.values[: n + 1],
        scaling_log=P.scaling_log[: n + 1] + half_log_pi,
    )


def pi_sequence(rates: BirthDeathRates, n: int) -> PolySequence:
    """pi_0..pi_n (pi_0 = 1, pi_k = pi_{k-1} lambda_{k-1}/mu_k), read from the
    table's log column: ``values`` are 1 and ``scaling_log[k]`` is log pi_k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    log_pi = _coefficients(rates, n + 1).log_pi[: n + 1]
    return PolySequence(values=np.ones(n + 1, dtype=complex), scaling_log=log_pi.copy())


def pi_alpha(rates: BirthDeathRates, n: int) -> tuple[PolySequence, PolySequence]:
    """pi_0..pi_n and the partial sums 1/alpha_0..1/alpha_n, read from the
    table's log columns (``values`` 1 and -1, ``scaling_log`` the logs).

    1/alpha_k = -sum_{j<=k} 1/(mu_j pi_j); defined only for mu_0 = 0.
    """
    if rates.mu0 != 0:
        raise ValueError("alpha_n requires mu_0 = 0")
    if n < 1:
        raise ValueError("n must be positive")
    tab = _coefficients(rates, n + 1)
    return (
        PolySequence(values=np.ones(n + 1, dtype=complex), scaling_log=tab.log_pi[: n + 1].copy()),
        PolySequence(values=np.full(n + 1, -1.0 + 0j), scaling_log=tab.log_ainv[: n + 1].copy()),
    )


def _extended_table(rates: BirthDeathRates, size: int, dps: int) -> tuple:
    """The decimal table of ``rates`` at dps + 2 digits with at least ``size``
    rows: its context and the lists a_k = lambda_k + mu_k, b_k =
    sqrt(lambda_k mu_(k+1)) and 1/b_k, kept in the rates' store under
    ("extended", dps) and grown in place on demand."""
    import decimal

    tab = rates._store.get(("extended", dps))
    if tab is None:
        ctx = decimal.Context(prec=dps + 2, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        tab = rates._store[("extended", dps)] = (ctx, [], [], [])
    ctx, a, b, inv_b = tab
    if len(a) < size:
        lam, mu = (list(map(decimal.Decimal, v.tolist())) for v in rates.tabulate(size))
        with decimal.localcontext(ctx):
            for k in range(len(a), size):
                a.append(lam[k] + mu[k])
                b.append((lam[k] * mu[k + 1]).sqrt())
                inv_b.append(1 / b[k])
    return tab


def _decimal_parts(x) -> tuple:
    """Re x and Im x as exact Decimals: a Python or numpy number through its
    float parts, an mpmath number (``_mpf_`` or ``_mpc_``) from the sign,
    mantissa and exponent of each part."""
    import decimal

    raw = getattr(x, "_mpc_", None)
    if raw is None and hasattr(x, "_mpf_"):
        raw = (x._mpf_, (0, 0, 0, 0))
    if raw is None:
        z = complex(x)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("x must be finite")
        return decimal.Decimal(z.real), decimal.Decimal(z.imag)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    parts = []
    for sign, man, exp, _ in raw:
        if not man and exp:  # mpmath's inf and nan
            raise ValueError("x must be finite")
        man = -man if sign else man
        # man 2^exp = man 5^-exp 10^exp, exact at unbounded precision
        parts.append(decimal.Decimal(man << exp) if exp >= 0
                     else exact.scaleb(decimal.Decimal(man * 5**-exp), exp))
    return tuple(parts)


def _extended_rows(rates: BirthDeathRates, x, ks, dps: int) -> list:
    """(P_k, Q_k) at the ascending indices ``ks`` (k >= 1), stepped as (re, im)
    pairs of ``decimal.Decimal`` at dps + 2 digits on the table of
    :func:`_extended_table`: one ((Re P_k, Im P_k), (Re Q_k, Im Q_k)) per
    index, true values (the exponent range is unbounded, so nothing is
    rescaled)."""
    if dps < 1:
        raise ValueError("dps must be at least 1")
    import decimal

    ctx, a, b, inv_b = _extended_table(rates, ks[-1], dps)
    xr, xi = _decimal_parts(x)
    want = iter(ks)
    k_out = next(want)
    out = []
    with decimal.localcontext(ctx):
        zero, s = decimal.Decimal(0), inv_b[0]
        pr0, pi0, qr0, qi0 = decimal.Decimal(1), zero, zero, zero
        pr, pi, qr, qi = (xr - a[0]) * s, xi * s, s, zero
        for k in range(1, ks[-1] + 1):
            if k == k_out:
                out.append(((pr, pi), (qr, qi)))
                k_out = next(want, None)
                if k_out is None:
                    break
            t, c, s = xr - a[k], b[k - 1], inv_b[k]
            pr, pi, pr0, pi0 = ((t * pr - xi * pi - c * pr0) * s,
                                (t * pi + xi * pr - c * pi0) * s, pr, pi)
            qr, qi, qr0, qi0 = ((t * qr - xi * qi - c * qr0) * s,
                                (t * qi + xi * qr - c * qi0) * s, qr, qi)
    return out


def eval_pq_mp(rates: BirthDeathRates, n: int, x, dps: int):
    """P_k, Q_k iterates at ``x`` in ``dps``-digit arithmetic; returns (P_n, Q_n) pairs.

    Backs convergence studies, where truncation errors far below double
    rounding must stay resolvable, and is the independent reference the
    double kernel is checked against. The recurrence is stepped in stdlib
    ``decimal`` arithmetic at dps + 2 digits; returns a dict {k: (P_k, Q_k)}
    of mpmath numbers at ``dps`` digits holding true values (no exponent
    limit, so nothing is rescaled) for every k in 1..n.
    """
    import mpmath as mp

    if n < 1:
        raise ValueError("n must be positive")
    rows = _extended_rows(rates, x, range(1, n + 1), dps)
    with mp.workdps(dps):
        return {k: tuple(mp.mpc(*map(str, y)) for y in row) for k, row in enumerate(rows, 1)}
