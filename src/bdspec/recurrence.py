"""Birth-death coefficient families and polynomial sequence evaluation.

Evaluates the orthonormal pair (P_n, Q_n), the monic-normalized F_n and its
order-one associated family, dual and zero-related dual systems, and the
products pi_n with the partial sums 1/alpha_n, all with per-index dynamic
rescaling so that quartic-growth coefficient families stay representable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_RESCALE_HI = 1e150
_RESCALE_LO = 1e-150


class BirthDeathRates:
    """A coefficient pair (lambda_n, mu_n) with lambda_n > 0 and mu_n > 0 (n >= 1).

    ``lam`` and ``mu`` are closed-form callbacks so arbitrary indices are
    reachable; evaluated prefixes are cached by :meth:`tabulate`.
    """

    def __init__(
        self,
        lam: Callable[[int], float],
        mu: Callable[[int], float],
        family: str = "Custom",
        params: dict | None = None,
        probe: int = 64,
    ):
        self._lam = lam
        self._mu = mu
        self.family = family
        self.params = dict(params or {})
        self._tab = np.empty((2, 0))
        self._cache: dict = {}
        mu0 = float(mu(0))
        if mu0 < 0:
            raise ValueError("mu_0 must be nonnegative")
        for n in range(probe):
            if not float(lam(n)) > 0:
                raise ValueError(f"lambda_{n} must be strictly positive")
            if n >= 1 and not float(mu(n)) > 0:
                raise ValueError(f"mu_{n} must be strictly positive")

    def lam(self, n: int) -> float:
        return float(self._lam(n))

    def mu(self, n: int) -> float:
        return float(self._mu(n))

    @property
    def mu0(self) -> float:
        return self.mu(0)

    def tabulate(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (lambda_0..lambda_n, mu_0..mu_n), cached and grown on demand."""
        if self._tab.shape[1] <= n:
            lam: list[float] = []
            mu: list[float] = []
            for k in range(self._tab.shape[1], n + 1):
                lam.append(float(self._lam(k)))
                mu.append(float(self._mu(k)))
                if not lam[-1] > 0 or (k >= 1 and not mu[-1] > 0):
                    raise ValueError(f"rates lose positivity at index {k}")
            self._tab = np.concatenate([self._tab, [lam, mu]], axis=1)
        return self._tab[0, : n + 1].copy(), self._tab[1, : n + 1].copy()

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"BirthDeathRates({self.family}{'(' + ps + ')' if ps else ''})"


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
    return BirthDeathRates(
        lambda n: k2 * (2 * n + 2 * c + 1) ** 2,
        lambda n: 0.0 if n == 0 else 4.0 * (n + c) ** 2,
        family="GeneralizedC",
        params={"k2": k2, "c": c},
    )


def custom_rates(
    lam: Callable[[int], float], mu: Callable[[int], float], tag: str = "Custom"
) -> BirthDeathRates:
    return BirthDeathRates(lam, mu, family=tag)


def dual_rates(rates: BirthDeathRates, zero_related: bool = False) -> BirthDeathRates:
    """Swapped system: lambda~_n = mu_{n+1}, mu~_n = lambda_n.

    With ``zero_related`` the zeroth death rate is reset to zero
    (mu^_n = lambda_n (1 - delta_n0)), keeping the Stieltjes convention.
    """
    if rates.mu0 != 0:
        raise ValueError("dual rates are defined for mu_0 = 0 systems only")
    if zero_related:
        mu = lambda n: 0.0 if n == 0 else rates.lam(n)
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
    for ``derivs``, which shares the same scaling). Reconstruction may
    overflow for genuinely huge values; detecting that is the caller's task.
    """

    values: np.ndarray
    scaling_log: np.ndarray
    derivs: np.ndarray | None = None

    def __len__(self):
        return self.values.size

    def value(self, k: int) -> complex:
        return self.values[k] * np.exp(self.scaling_log[k])

    def deriv(self, k: int) -> complex:
        if self.derivs is None:
            raise ValueError("sequence was evaluated without derivatives")
        return self.derivs[k] * np.exp(self.scaling_log[k])

    def log_abs(self, k: int) -> float:
        v = abs(self.values[k])
        return math.log(v) + self.scaling_log[k] if v else -math.inf

    def ratio(self, k: int, other: "PolySequence", j: int | None = None) -> complex:
        """self[k] / other[j] evaluated through the scaling logs."""
        j = k if j is None else j
        return (self.values[k] / other.values[j]) * np.exp(
            self.scaling_log[k] - other.scaling_log[j]
        )


def _rescale(v0, v1, d0, d1, shift):
    m = max(abs(v0), abs(v1))
    if m > _RESCALE_HI or (0 < m < _RESCALE_LO):
        v0 /= m
        v1 /= m
        if d0 is not None:
            d0 /= m
            d1 /= m
        shift += math.log(m)
    return v0, v1, d0, d1, shift


def eval_pq(
    rates: BirthDeathRates, n: int, x: complex, with_deriv: bool = False
) -> tuple[PolySequence, PolySequence]:
    """Evaluate P_0..P_n and Q_0..Q_n at ``x`` by the forward recurrence.

    Derivatives, when requested, come from the exactly differentiated
    recurrence (no finite differences).
    """
    if n < 1:
        raise ValueError("n must be positive")
    x = complex(x)
    lam, mu = rates.tabulate(n)
    a = lam + mu
    b = np.sqrt(lam[:-1] * mu[1:]) if n >= 1 else np.empty(0)

    pv = np.zeros(n + 1, dtype=complex)
    qv = np.zeros(n + 1, dtype=complex)
    ps = np.zeros(n + 1)
    qs = np.zeros(n + 1)
    pd = np.zeros(n + 1, dtype=complex) if with_deriv else None
    qd = np.zeros(n + 1, dtype=complex) if with_deriv else None

    p0, p1 = 1.0 + 0.0j, (x - a[0]) / b[0]
    q0, q1 = 0.0 + 0.0j, 1.0 / b[0] + 0.0j
    dp0, dp1 = (0.0j, 1.0 / b[0] + 0.0j) if with_deriv else (None, None)
    dq0, dq1 = (0.0j, 0.0j) if with_deriv else (None, None)
    pshift = qshift = 0.0
    pv[0], qv[0] = p0, q0
    if with_deriv:
        pd[0], qd[0] = dp0, dq0
    pv[1], qv[1] = p1, q1
    if with_deriv:
        pd[1], qd[1] = dp1, dq1

    for k in range(1, n):
        ak, bk, bkm = a[k], b[k], b[k - 1]
        p2 = ((x - ak) * p1 - bkm * p0) / bk
        q2 = ((x - ak) * q1 - bkm * q0) / bk
        if with_deriv:
            dp2 = ((x - ak) * dp1 + p1 - bkm * dp0) / bk
            dq2 = ((x - ak) * dq1 + q1 - bkm * dq0) / bk
            dp0, dp1 = dp1, dp2
            dq0, dq1 = dq1, dq2
        p0, p1 = p1, p2
        q0, q1 = q1, q2
        p0, p1, dp0, dp1, pshift = _rescale(p0, p1, dp0, dp1, pshift)
        q0, q1, dq0, dq1, qshift = _rescale(q0, q1, dq0, dq1, qshift)
        pv[k + 1], qv[k + 1] = p1, q1
        ps[k + 1], qs[k + 1] = pshift, qshift
        if with_deriv:
            pd[k + 1], qd[k + 1] = dp1, dq1

    return (
        PolySequence(values=pv, scaling_log=ps, derivs=pd),
        PolySequence(values=qv, scaling_log=qs, derivs=qd),
    )


def eval_f(rates: BirthDeathRates, n: int, x: complex, shift: int = 0) -> PolySequence:
    """Evaluate F_0..F_n at ``x``; ``shift=s`` uses rates (lambda_{k+s}, mu_{k+s}).

    The recurrence is mu_{k+1} F_{k+1} = (lambda_k + mu_k - x) F_k
    - lambda_{k-1} F_{k-1}, with F_0 = 1, so that F_n(0) = pi_n and
    P_n = (-1)^n F_n / sqrt(pi_n). ``shift=1`` yields the order-one
    associated family.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    x = complex(x)
    lam, mu = rates.tabulate(n + shift + 1)
    fv = np.zeros(n + 1, dtype=complex)
    fs = np.zeros(n + 1)
    f0, f1 = 0.0 + 0.0j, 1.0 + 0.0j  # F_{-1}, F_0
    fv[0] = f1
    sh = 0.0
    for k in range(n):
        lam_k = lam[k + shift]
        mu_k = mu[k + shift]
        lam_km = lam[k - 1 + shift] if k >= 1 else 0.0
        f2 = ((lam_k + mu_k - x) * f1 - lam_km * f0) / mu[k + 1 + shift]
        f0, f1 = f1, f2
        f0, f1, _, _, sh = _rescale(f0, f1, None, None, sh)
        fv[k + 1] = f1
        fs[k + 1] = sh
    return PolySequence(values=fv, scaling_log=fs)


def _scaled_add(m1: float, s1: float, m2: float, s2: float) -> tuple[float, float]:
    # (m1 e^{s1}) + (m2 e^{s2}) in mantissa/log form.
    if m1 == 0.0:
        return m2, s2
    if m2 == 0.0:
        return m1, s1
    s = max(s1, s2)
    m = m1 * math.exp(s1 - s) + m2 * math.exp(s2 - s)
    if m != 0.0 and not (_RESCALE_LO < abs(m) < _RESCALE_HI):
        s += math.log(abs(m))
        m = math.copysign(1.0, m)
    return m, s


def pi_sequence(rates: BirthDeathRates, n: int) -> PolySequence:
    """pi_0..pi_n in log-scaled form (pi_0 = 1, pi_k = pi_{k-1} lambda_{k-1}/mu_k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lam, mu = rates.tabulate(n + 1)
    vals = np.zeros(n + 1)
    slog = np.zeros(n + 1)
    m, s = 1.0, 0.0
    vals[0] = 1.0
    for k in range(1, n + 1):
        m *= lam[k - 1] / mu[k]
        if not (_RESCALE_LO < m < _RESCALE_HI):
            s += math.log(m)
            m = 1.0
        vals[k] = m
        slog[k] = s
    return PolySequence(values=vals.astype(complex), scaling_log=slog)


def pi_alpha(rates: BirthDeathRates, n: int) -> tuple[PolySequence, PolySequence]:
    """pi_0..pi_n and the partial sums 1/alpha_0..1/alpha_n (log-scaled).

    1/alpha_k = -sum_{j<=k} 1/(mu_j pi_j); defined only for mu_0 = 0.
    """
    if rates.mu0 != 0:
        raise ValueError("alpha_n requires mu_0 = 0")
    if n < 1:
        raise ValueError("n must be positive")
    lam, mu = rates.tabulate(n + 1)
    piv = np.zeros(n + 1)
    pis = np.zeros(n + 1)
    av = np.zeros(n + 1)
    asl = np.zeros(n + 1)
    pm, psl = 1.0, 0.0
    am, asum = 0.0, 0.0
    piv[0] = 1.0
    for k in range(1, n + 1):
        pm *= lam[k - 1] / mu[k]
        if not (_RESCALE_LO < pm < _RESCALE_HI):
            psl += math.log(pm)
            pm = 1.0
        piv[k], pis[k] = pm, psl
        # term -1/(mu_k pi_k) in mantissa/log form
        am, asum = _scaled_add(am, asum, -1.0 / (mu[k] * pm), -psl)
        av[k], asl[k] = am, asum
    return (
        PolySequence(values=piv.astype(complex), scaling_log=pis),
        PolySequence(values=av.astype(complex), scaling_log=asl),
    )


def eval_pq_mp(rates: BirthDeathRates, n: int, x, dps: int):
    """P_k, Q_k iterates at ``x`` in mpmath arithmetic; returns (P_n, Q_n) pairs.

    Used by the extended-precision mode where truncation errors far below
    double rounding must stay resolvable. Returns a dict {k: (P_k, Q_k)} for
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
            m = abs(p1)
            if m > mp.mpf(10) ** 200:
                p0, p1, q0, q1 = p0 / m, p1 / m, q0 / m, q1 / m
            out[k + 1] = (p1, q1)
    return out
