"""Finite J- and S-fractions, Gauss (Christoffel) discretization, discrete measures.

The DiscreteMeasure type defined here is the common output format of every
spectral computation in the package, together with its Stieltjes transform,
power moments and JSON/CSV serialization.
"""
from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import _require_finite, tridiag_eigen
from .recurrence import BirthDeathRates, JacobiCoeffs, eval_pq, jacobi_from_rates


class PoleError(ArithmeticError):
    """Evaluation hit (or divided by) a spectral point."""

    def __init__(self, message: str, level: int | None = None, point=None):
        detail = message
        if level is not None:
            detail += f" at fraction level {level}"
        if point is not None:
            detail += f" at point {point}"
        super().__init__(detail)
        self.level = level
        self.point = point


def _fmt17(v: float) -> str:
    # 17 significant decimal digits round-trip IEEE doubles exactly.
    return format(float(v), ".17g")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms ``mass[k]`` at strictly increasing points ``support[k]``."""

    support: np.ndarray
    mass: np.ndarray
    normalized: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=float)
        mas = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "mass", mas)
        if sup.shape != mas.shape or sup.ndim != 1 or sup.size == 0:
            raise ValueError("support and mass must be equal-length nonempty vectors")
        if not np.all(np.diff(sup) > 0):
            raise ValueError("support must be strictly increasing")
        if not np.all(mas > 0):
            raise ValueError("masses must be strictly positive")
        if not (np.all(np.isfinite(sup)) and np.all(np.isfinite(mas))):
            raise ValueError("support and mass must be finite")
        if self.normalized and abs(mas.sum() - 1.0) > 1e-10:
            raise ValueError("normalized measure must have total mass 1 within 1e-10")

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def to_json(self) -> str:
        meta_json = json.dumps(self.meta, sort_keys=True)
        sup = ", ".join(_fmt17(v) for v in self.support)
        mas = ", ".join(_fmt17(v) for v in self.mass)
        norm = "true" if self.normalized else "false"
        return (
            f'{{"support": [{sup}], "mass": [{mas}], '
            f'"normalized": {norm}, "meta": {meta_json}}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        obj = json.loads(text)
        return cls(
            support=np.asarray(obj["support"], dtype=float),
            mass=np.asarray(obj["mass"], dtype=float),
            normalized=bool(obj.get("normalized", False)),
            meta=dict(obj.get("meta", {})),
        )

    def to_csv(self) -> str:
        lines = ["support,mass"]
        for s, m in zip(self.support, self.mass):
            lines.append(f"{_fmt17(s)},{_fmt17(m)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, normalized: bool = False) -> "DiscreteMeasure":
        rows = [ln for ln in text.strip().splitlines() if ln]
        if not rows or rows[0].strip() != "support,mass":
            raise ValueError("CSV must start with the header 'support,mass'")
        sup, mas = [], []
        for ln in rows[1:]:
            a, b = ln.split(",")
            sup.append(float(a))
            mas.append(float(b))
        return cls(np.asarray(sup), np.asarray(mas), normalized=normalized)


def j_fraction(jacobi: JacobiCoeffs, depth: int, x: complex) -> complex:
    """Finite J-fraction 1/(x-a_0 - b_0^2/(x-a_1 - ...)), ``depth`` levels.

    Backward evaluation from the deepest partial denominator; equals
    Q_depth(x)/P_depth(x).
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > jacobi.a.size:
        raise ValueError("depth exceeds available Jacobi coefficients")
    x = complex(x)
    _require_finite(x, "x")
    a = jacobi.a[:depth].tolist()
    b2 = (jacobi.b[: depth - 1] ** 2).tolist()
    r = x - a[depth - 1]
    for j in range(depth - 2, -1, -1):
        if r == 0:
            raise PoleError("division by vanishing partial denominator", level=j + 1)
        r = x - a[j] - b2[j] / r
    if r == 0:
        raise PoleError("fraction value has a pole", level=0)
    return 1.0 / r


def s_fraction(rates: BirthDeathRates, depth: int, x: complex) -> complex:
    """Finite S-fraction 1/x + lambda_0/x + mu_1/x + lambda_1/x + ...

    ``depth`` counts partial quotients after the leading 1/x, so depth 2k
    exposes lambda_0..lambda_{k-1} and mu_1..mu_k. Requires mu_0 = 0. The
    infinite fraction converges to the transform integral x/(x^2+t) dpsi(t)
    for Re x > 0.
    """
    if rates.mu0 != 0:
        raise ValueError("the S-fraction form requires mu_0 = 0")
    if depth < 1:
        raise ValueError("depth must be positive")
    x = complex(x)
    _require_finite(x, "x")
    npairs = (depth + 1) // 2
    lam, mu = rates.tabulate(npairs)
    coeffs = np.empty(2 * npairs)
    coeffs[0::2] = lam[:npairs]
    coeffs[1::2] = mu[1:]
    t = x
    for level, c in enumerate(coeffs[depth - 1 :: -1].tolist()):
        if t == 0:
            raise PoleError("vanishing partial denominator", level=depth - level)
        t = x + c / t
    if t == 0:
        raise PoleError("fraction value has a pole", level=0)
    return 1.0 / t


def gauss_measure(rates: BirthDeathRates, n: int) -> DiscreteMeasure:
    """Christoffel (Gauss) discretization of order n.

    Support are the zeros of P_n (eigenvalues of the truncated Jacobi
    matrix). Masses are the Christoffel numbers, evaluated through the
    Christoffel-function identity 1/sum_{j<n} P_j(x_k)^2: a sum of squares,
    so the tail weights (which decay superexponentially for the elliptic
    families) keep full relative accuracy and strict positivity. The
    equivalent partial-fraction residue Q_n(x_k)/P_n'(x_k) loses all
    relative precision below ~1e-9 of the leading weight; the test suite
    asserts agreement of the two forms where the residue is trustworthy.
    """
    if n < 1:
        raise ValueError("n must be positive")
    jc = jacobi_from_rates(rates, n)
    nodes = tridiag_eigen(jc.a, jc.b[: n - 1])
    pseq, _ = eval_pq(rates, n, nodes)
    # A sum past double range gives a zero weight, which the positivity
    # check of DiscreteMeasure refuses.
    with np.errstate(over="ignore"):
        sq = np.abs(pseq.values[:n]) ** 2 * np.exp(2.0 * pseq.scaling_log[:n])
        weights = 1.0 / sq.sum(axis=0)
    return DiscreteMeasure(
        support=nodes,
        mass=weights,
        normalized=True,
        meta={"kind": "gauss", "order": n, "family": rates.family},
    )


def _fsum(terms: np.ndarray, what: str) -> float:
    # The exactly rounded sum; past the double range fsum overflows or is not finite.
    with contextlib.suppress(OverflowError, ValueError):
        if math.isfinite(total := math.fsum(terms.tolist())):
            return total
    raise ValueError(f"{what} leaves the double range")


def measure_stieltjes(m: DiscreteMeasure, x: complex) -> complex:
    """sum_k mass_k / (x - support_k), each part the exactly rounded sum of
    the terms' parts (``math.fsum``); ValueError where x is not finite or a
    sum leaves the double range."""
    x = complex(x)
    _require_finite(x, "x")
    if x.imag == 0 and np.any(m.support == x.real):
        raise PoleError("Stieltjes transform evaluated on the support", point=x.real)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = m.mass / (x - m.support)
    what = f"the Stieltjes transform at {x}"
    return complex(_fsum(terms.real, what), _fsum(terms.imag, what))


def measure_moment(m: DiscreteMeasure, order: int) -> float:
    """Power moment sum mass_k * support_k**order, the exactly rounded sum of
    the terms (``math.fsum``); ValueError where it leaves the double range."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    with np.errstate(over="ignore"):
        return _fsum(m.mass * m.support**order, f"the moment of order {order}")
