"""The quartic-rate family and its closed-form border measures.

Rates grow like 256 n^4; the c = mu = 0 member has explicitly computable
Friedrichs and Krein objects built from the order-4 trigonometric functions
and lemniscatic cn integrals. Closed forms here use the quarter-period scale
Kbar = sqrt(2) K0 throughout; that calibration (and the signs) is pinned by
agreement with the series paths in `indet`, which are single-valued and
branch-free. The historical mass normalization that sums to 2 is kept in the
measure metadata.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .contfrac import DiscreteMeasure, PoleError
from .elliptic import EllipticContext, _node_scd, delta4, lemniscate_K0, make_context
from .numerics import ConvergenceError, Tolerance, _require_finite, integrate
from .recurrence import BirthDeathRates, dual_rates, eval_f, pi_sequence

_SQRT2 = math.sqrt(2.0)
# The tolerance of every lemniscatic cn integral.
_CN_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=4000)


@dataclass(frozen=True)
class QuarticSpec:
    """The lemniscatic constants of the c = mu = 0 quartic member, the one with closed forms."""

    K0: float
    ctx_half: EllipticContext

    @property
    def qperiod(self) -> float:
        """Quarter-period scale sqrt(2) K0 = K(k^2 = 1/2)."""
        return _SQRT2 * self.K0


def make_quartic_spec() -> QuarticSpec:
    spec = QuarticSpec(K0=lemniscate_K0(), ctx_half=make_context(0.5))
    if abs(spec.qperiod - spec.ctx_half.K) > 1e-12 * spec.ctx_half.K:
        raise AssertionError("lemniscate constant inconsistent with K(1/2)")
    return spec


def quartic_rates(c: float = 0.0, mu: float = 0.0) -> BirthDeathRates:
    """lambda_n = (4n+4c+1)(4n+4c+2)^2(4n+4c+3); mu_n likewise with mu_0 = mu.

    The n = 0 death rate is the parameter itself (the delta_n0 term replaces
    the product there); the duality identities of the family only close
    under this reading, e.g. the c = mu = 0 dual system is exactly
    (c = 1/2, mu = 12).
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    if mu < 0:
        raise ValueError("mu must be nonnegative for a birth-death system")

    def lam(n: np.ndarray) -> np.ndarray:
        s = 4 * n + 4 * c
        return (s + 1) * np.float_power(s + 2, 2) * (s + 3)

    def mu_fn(n: np.ndarray) -> np.ndarray:
        s = 4 * n + 4 * c
        return np.where(n == 0, mu, (s - 1) * np.float_power(s, 2) * (s + 1))

    return BirthDeathRates(lam, mu_fn, family="Quartic", params={"c": c, "mu": mu})


def _root4(x: complex) -> complex:
    # Principal fourth root: argument in (-pi, pi] maps to (-pi/4, pi/4].
    return cmath.exp(0.25 * cmath.log(x)) if x != 0 else 0.0j


def _cn_integral(spec: QuarticSpec, l: int, rho: complex) -> complex:
    K = spec.qperiod
    ctx = spec.ctx_half

    def f(u: float) -> complex:
        return delta4(l, rho * u / _SQRT2) * _node_scd(ctx, u)[1]

    return integrate(f, 0.0, K, _CN_TOL) / _SQRT2


def _border_transform(spec: QuarticSpec, x: complex, l: int, name: str) -> complex:
    """(l - 1) [integral of delta_(2-l)(x^(1/4) u / sqrt2) cn(u) du/sqrt2]
    over sqrt(x) delta_l(x^(1/4) Kbar / sqrt2): the Friedrichs transform at
    l = 0, the Krein one at l = 2."""
    x = complex(x)
    _require_finite(x, "x")
    rho = _root4(x)
    try:
        den = rho * rho * delta4(l, rho * spec.qperiod / _SQRT2)
        if den == 0:
            raise PoleError(f"{name} transform pole", point=x)
        num = _cn_integral(spec, 2 - l, rho)
    except OverflowError:  # delta_l, beyond |x| ~ 1e11
        raise ConvergenceError(f"{name} closed form leaves the double range at x = {x}; "
                               "markov_like_limit reaches such x") from None
    return (num if l else -num) / den


def friedrichs_transform(spec: QuarticSpec, x: complex) -> complex:
    """Stieltjes transform of the Friedrichs border measure at c = mu = 0.

    -[integral over [0, Kbar] of delta_2(x^(1/4) u / sqrt2) cn(u) du/sqrt2]
    divided by sqrt(x) delta_0(x^(1/4) Kbar / sqrt2); poles sit at the zeros
    of the denominator, x_n = ((2n+1) pi / Kbar)^4.
    """
    return _border_transform(spec, x, 0, "Friedrichs")


def krein_transform(spec: QuarticSpec, x: complex) -> complex:
    """Stieltjes transform of the Krein border measure at c = mu = 0.

    [integral of delta_0(x^(1/4) u / sqrt2) cn(u) du/sqrt2] over
    sqrt(x) delta_2(x^(1/4) Kbar / sqrt2); poles at x_n = (2n pi / Kbar)^4,
    including the atom at x = 0.
    """
    return _border_transform(spec, x, 2, "Krein")


def border_measure(spec: QuarticSpec, mode: str, nmax: int) -> DiscreteMeasure:
    """Friedrichs or Krein measure atoms from the sinh mass formulas.

    Friedrichs: atoms (4 pi^2 (2n+1) / Kbar^2) / sinh((2n+1) pi) at
    ((2n+1) pi / Kbar)^4. Krein: pi/Kbar^2 at 0 plus
    (8 pi^2 n / Kbar^2)/sinh(2 n pi) at (2 n pi / Kbar)^4. With the
    quarter-period scale Kbar both families total exactly 1; the metadata
    keeps the variant written with K0 in place of Kbar (masses twice as
    large, totalling 2; supports 16x higher).
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if mode not in ("friedrichs", "krein"):
        raise ValueError("mode must be 'friedrichs' or 'krein'")
    K = spec.qperiod
    pref = 4.0 * math.pi / K**2
    # Lattice points a = (2n + 1) pi for Friedrichs, a = 2n pi (n >= 1) for
    # Krein after its atom at 0.
    odd = 1 if mode == "friedrichs" else 0
    support, mass = ([], []) if odd else ([0.0], [math.pi / K**2])
    for n in range(1 - odd, nmax + 1):
        a = (2 * n + odd) * math.pi
        m = pref * a * _inv_sinh(a)
        if m <= 0.0:
            break
        support.append((a / K) ** 4)
        mass.append(m)
    tail_arg = (2 * len(support) + odd) * math.pi
    tail = pref * tail_arg * 2.0 * math.exp(-tail_arg)
    return DiscreteMeasure(
        support=np.asarray(support),
        mass=np.asarray(mass),
        normalized=bool(tail < 1e-10),
        meta={
            "kind": f"border-{mode}",
            "k0_convention_mass": [2.0 * m for m in mass],
            "k0_convention_support": [16.0 * s for s in support],
            "tail_bound": tail,
        },
    )


def _inv_sinh(a: float) -> float:
    # 1/sinh(a) without overflow for large a.
    if a > 700.0:
        return 2.0 * math.exp(-a) if a < 1460.0 else 0.0
    return 1.0 / math.sinh(a)


@dataclass(frozen=True)
class AsymptoticReport:
    """Large-n ratio diagnostics for the four quartic growth laws."""

    n: int
    x: complex
    ratios: dict
    deviations: dict
    dual_prefactor: complex


def asymptotic_checks(spec: QuarticSpec, x: complex, n: int) -> AsymptoticReport:
    """Compare F_n, the order-one associated family, and both duals at index n
    against their closed-form growth laws.

    All four ratios tend to 1. The reference laws (with rho = x^(1/4) and
    Kbar = sqrt(2) K0):

    - base:        F_n ~ pi_n delta_0(rho Kbar/sqrt2)
    - associated:  F^(1)_(n-1)/mu_1 ~ pi_n N2(x)/sqrt(x)
    - dual:        F~_n ~ 3 pi pi_n delta_2(rho Kbar/sqrt2)/sqrt(x)
    - zero-dual:   F^_n ~ 3 pi pi_n N0(x)

    where N2, N0 are the cn integrals of the border transforms. The measured
    dual prefactor F~_n sqrt(x)/(pi_n delta_2) is reported as well; it tends
    to 3 pi. The four sequences come from the double-precision kernel
    (`eval_f`), pi_n from `pi_sequence`.
    """
    if n < 500:
        raise ValueError("asymptotic checks need n >= 500")
    x = complex(x)
    rho = _root4(x)
    sqx = rho * rho
    K = spec.qperiod
    d0 = delta4(0, rho * K / _SQRT2)
    d2 = delta4(2, rho * K / _SQRT2)
    n2 = _cn_integral(spec, 2, rho)
    n0 = _cn_integral(spec, 0, rho)

    base, dual, zero_dual = _base_systems()
    mu1 = base.mu(1)
    f_n = _last_value(eval_f(base, n, x))
    f1_nm1 = _last_value(eval_f(base, n - 1, x, shift=1))
    ft_n = _last_value(eval_f(dual, n, x))
    fh_n = _last_value(eval_f(zero_dual, n, x))
    pis = pi_sequence(base, n)
    pi_n = math.exp(pis.scaling_log[n]) * pis.values[n].real

    ratios = {
        "base": f_n / (pi_n * d0),
        "associated": f1_nm1 / (mu1 * pi_n * n2 / sqx),
        "dual": ft_n * sqx / (3.0 * math.pi * pi_n * d2),
        "zero_dual": fh_n / (3.0 * math.pi * pi_n * n0),
    }
    ratios = {k: complex(v) for k, v in ratios.items()}
    deviations = {k: abs(v - 1.0) for k, v in ratios.items()}
    prefactor = complex(ft_n * sqx / (pi_n * d2))
    return AsymptoticReport(
        n=n, x=x, ratios=ratios, deviations=deviations, dual_prefactor=prefactor
    )


@functools.cache
def _base_systems() -> tuple[BirthDeathRates, BirthDeathRates, BirthDeathRates]:
    # The c = mu = 0 member and its two duals, built once so that their
    # coefficient tables are tabulated once per process.
    base = quartic_rates(0.0, 0.0)
    return base, dual_rates(base), dual_rates(base, zero_related=True)


def _last_value(seq) -> complex:
    k = len(seq) - 1
    return seq.values[k] * math.exp(seq.scaling_log[k])
