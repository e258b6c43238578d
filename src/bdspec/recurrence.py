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
the same kernel rows and log column. ``eval_pq_mp`` alone steps its
recurrence index by index, in mpmath; it is the independent reference the
kernel is checked against.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import ztbtrs

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
    kept by :meth:`tabulate`.
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
class _Coefficients:
    """Rows k < size of y_{k+1} = (x/b_k - a_k/b_k) y_k - (b_{k-1}/b_k) y_{k-1},
    log pi_k, log|1/alpha_k| (1/alpha_k = -sum_{1<=j<=k} 1/(mu_j pi_j), so -inf
    at k = 0), and the weights (-1)^k sqrt(pi_k) / alpha_k and (-1)^k sqrt(pi_k).
    When mu_0 = 0 the weights are Q_k(0) and P_k(0); for the dual system only
    the second, F_k / P_k, is used. Every entry depends on its index alone, not
    on the size of the table."""

    a_b: np.ndarray
    inv_b: np.ndarray
    b_ratio: np.ndarray
    log_pi: np.ndarray
    log_ainv: np.ndarray
    weights: np.ndarray


# Per-rates memo, weakly keyed by the rates object: the coefficient tables of
# the system ("table") and of its dual ("dual"), rebuilt larger on demand, and
# the determinacy verdict and alpha (keyed by its tolerance) of the
# indeterminate half.
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(rates: BirthDeathRates) -> dict:
    return _MEMO.setdefault(rates, {})


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


def _coefficients(rates: BirthDeathRates, size: int, dual: bool = False) -> _Coefficients:
    """The table of ``rates`` with at least ``size`` rows, or with ``dual`` that
    of its dual system, built from the tabulation of ``rates`` itself."""
    memo = _memo(rates)
    key = "dual" if dual else "table"
    tab = memo.get(key)
    if tab is None or tab.inv_b.size < size:
        if dual:
            lam, mu = rates.tabulate(size + 1)
            lam, mu = mu[1:], lam[:-1]
        else:
            lam, mu = rates.tabulate(size)
        b = np.sqrt(lam[:-1] * mu[1:])
        log_pi, log_ainv = _log_columns(lam, mu, size)
        sign = (-1.0) ** np.arange(size)
        # Only determinate families overflow here, and they never use the weights.
        with np.errstate(over="ignore"):
            p0 = sign * np.exp(0.5 * log_pi)
            q0 = -sign * np.exp(0.5 * log_pi + log_ainv)
        tab = memo[key] = _Coefficients(
            a_b=(lam[:-1] + mu[:-1]) / b,
            inv_b=1.0 / b,
            b_ratio=np.concatenate(([0.0], b[:-1] / b[1:])),
            log_pi=log_pi,
            log_ainv=log_ainv,
            weights=np.stack([q0, p0], axis=1),
        )
    return tab


def _start(tab: _Coefficients, xs: np.ndarray, nrhs: int) -> np.ndarray:
    """Rows 0 and 1 of (Q, P), and of (Q', P') when ``nrhs`` is 4, at each x."""
    carry = np.zeros((nrhs, xs.size, 2), dtype=complex)
    carry[0, :, 1] = tab.inv_b[0]
    carry[1, :, 0] = 1.0
    carry[1, :, 1] = xs * tab.inv_b[0] - tab.a_b[0]
    if nrhs == 4:
        carry[3, :, 1] = tab.inv_b[0]
    return carry


def _advance(tab: _Coefficients, xs: np.ndarray, carry: np.ndarray, lo: int, hi: int):
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


def _solve(tab: _Coefficients, xs: np.ndarray, ks: np.ndarray, nrhs: int = 2):
    """Rows ``ks`` (ascending indices) of (Q, P), and of (Q', P') when ``nrhs``
    is 4, at each point of ``xs``, as ``(rows, exps)``: the true value of
    solution r at point i and index ``ks[j]`` is ``rows[r, i, j] *
    2**exps[r % 2, i, j]`` (a derivative shares the exponent of its solution).

    Chunks of points are solved in segments of at most ``_CHUNK`` point-steps.
    A segment ends after the first row at which, for some point, a solution
    and its derivative leave [1e-150, 1e150] over the last two rows; the
    carried rows of each such solution are scaled by an exact power of two
    back to [0.5, 1), and the next segment starts there. Scaling by a power of
    two is exact and every row is computed by the same operations wherever a
    segment starts, so where the segments break changes no bit: each point's
    rows and exponents are those of a lone evaluation.
    """
    n = int(ks[-1])
    rows = np.empty((nrhs, xs.size, ks.size), dtype=complex)
    exps = np.zeros((2, xs.size, ks.size), dtype=int)
    start = _start(tab, xs, nrhs)
    head = np.searchsorted(ks, 2)
    rows[:, :, :head] = start[:, :, ks[:head]]
    span = max(1, min(n - 1, _CHUNK))
    step = max(1, _CHUNK // span)
    for i0 in range(0, xs.size, step):
        pts = slice(i0, i0 + step)
        carry = start[:, pts]
        scale = np.zeros((2, carry.shape[1]), dtype=int)
        lo, j = 2, head
        while lo <= n:
            hi = min(lo + span, n + 1)
            while True:
                seg = _advance(tab, xs[pts], carry, lo, hi)
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
            j1 = np.searchsorted(ks, lo)
            rows[:, pts, j:j1] = seg[:, :, ks[j:j1] - (lo - cut - 2)]
            exps[:, pts, j:j1] = scale[:, :, None]
            j = j1
            carry = seg[:, :, cut : cut + 2]
            if rescale:
                e = np.where(out[:, :, cut - 1], np.frexp(pair[:, :, cut - 1])[1], 0)
                carry = carry * np.ldexp(1.0, -e)[np.arange(nrhs) % 2, :, None]
                scale = scale + e
    return rows, exps


def _qp_ratios(tab: _Coefficients, x: complex, ks) -> np.ndarray:
    """Q_k(x) / P_k(x) at the ascending indices ``ks``."""
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
    into ``scaling_log``. ``shift=1`` yields the order-one associated family.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if shift:
        base = rates
        rates = BirthDeathRates(lambda k: base.lam(k + shift), lambda k: base.mu(k + shift))
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


def eval_pq_mp(rates: BirthDeathRates, n: int, x, dps: int):
    """P_k, Q_k iterates at ``x`` in mpmath arithmetic; returns (P_n, Q_n) pairs.

    Used by the extended-precision mode where truncation errors far below
    double rounding must stay resolvable. Returns a dict {k: (P_k, Q_k)} of
    true values (mpmath has no exponent limit, so nothing is rescaled) for
    every k in 1..n.
    """
    import mpmath as mp

    out = {}
    with mp.workdps(dps):
        xm = mp.mpmathify(x)
        lam, mu = rates.tabulate(n + 2)
        a = [mp.mpf(l) + mp.mpf(m) for l, m in zip(lam, mu)]
        b = [mp.sqrt(mp.mpf(lam[k]) * mp.mpf(mu[k + 1])) for k in range(n + 1)]
        p0, p1 = mp.mpf(1), (xm - a[0]) / b[0]
        q0, q1 = mp.mpf(0), 1 / b[0]
        out[1] = (p1, q1)
        for k in range(1, n):
            p0, p1 = p1, ((xm - a[k]) * p1 - b[k - 1] * p0) / b[k]
            q0, q1 = q1, ((xm - a[k]) * q1 - b[k - 1] * q0) / b[k]
            out[k + 1] = (p1, q1)
    return out
