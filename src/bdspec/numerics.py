"""Shared numerical primitives.

Adaptive quadrature (with endpoint power-singularity substitution), symmetric
tridiagonal eigenvalues, scan-and-bisect root bracketing, tolerance-driven
series summation (plain and Richardson-accelerated), and the gamma function
on the positive half line.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal


class QuadratureError(RuntimeError):
    """Quadrature failed to meet the requested tolerance.

    Carries the best estimate computed so far and its error bound.
    """

    def __init__(self, message: str, estimate: complex, bound: float):
        super().__init__(f"{message} (estimate={estimate}, bound={bound:.3e})")
        self.estimate = estimate
        self.bound = bound


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its budget."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair plus an iteration budget."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.max_iter < 8:
            raise ValueError("max_iter must be at least 8")

    def bound(self, scale: float | complex) -> float:
        """Tolerance bound for a result of the given magnitude."""
        return max(self.abs_tol, self.rel_tol * abs(scale))


@dataclass(frozen=True)
class ConvergedLimit:
    """A limit value together with convergence evidence."""

    value: complex
    terms_used: int
    last_increment: float
    converged: bool


# 15-point Gauss-Legendre rule on [-1, 1]; full double precision from numpy.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl15(f, a: float, b: float) -> complex:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    acc = 0.0 + 0.0j
    for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
        acc += wi * f(mid + half * xi)
    return half * acc


def _substitution_power(exponent: float) -> int:
    # u = t^p maps an integrable u^sigma endpoint factor to t^(p(sigma+1)-1);
    # p is chosen so that the transformed integrand vanishes at the endpoint.
    if exponent <= -1:
        raise ValueError("endpoint exponent must be > -1 (integrable)")
    return max(2, math.ceil(2.0 / (exponent + 1.0)))


def integrate(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: Tolerance | None = None,
    *,
    sing_a: float | None = None,
    sing_b: float | None = None,
    f_dist_a: Callable[[float], complex] | None = None,
    f_dist_b: Callable[[float], complex] | None = None,
) -> complex:
    """Adaptive Gauss-Legendre integral of ``f`` over ``[a, b]``.

    ``sing_a``/``sing_b`` declare power-law endpoint behaviour
    ``f(u) ~ (u-a)^sing_a`` (resp. ``(b-u)^sing_b``) with exponent > -1;
    the affected endpoint is handled by the substitution ``u = t^p`` before
    the adaptive pass, so ``f`` is never evaluated at the endpoints.

    A plain ``f(u)`` near a flagged endpoint cannot see distances below one
    ulp, which caps the reachable accuracy near eps^(1+sing). Supplying the
    integrand in exact-distance form (``f_dist_a(d) = f(a + d)`` or
    ``f_dist_b(d) = f(b - d)``, with d the true distance) removes that floor.

    Raises :class:`QuadratureError` when the subdivision budget ``tol.max_iter``
    is exhausted before the error bound drops below
    ``max(abs_tol, rel_tol * |result|)``.
    """
    if not (a < b) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("need finite a < b")
    tol = tol or Tolerance(abs_tol=1e-12, rel_tol=1e-12)

    pieces: list[tuple[Callable[[float], complex], float, float]] = []
    mid = 0.5 * (a + b)
    lo_end, hi_end = (mid, mid) if (sing_a is not None and sing_b is not None) else (b, a)
    if sing_a is not None:
        p = _substitution_power(sing_a)
        width = lo_end - a
        near_a = f_dist_a if f_dist_a is not None else (lambda d, _a=a: f(_a + d) if _a + d != _a else 0.0)

        def g_lo(t, _p=p, _g=near_a):
            return _g(t**_p) * _p * t ** (_p - 1)

        pieces.append((g_lo, 0.0, width ** (1.0 / p)))
        plain_lo = lo_end
    else:
        plain_lo = a
    if sing_b is not None:
        p = _substitution_power(sing_b)
        width = b - hi_end
        near_b = f_dist_b if f_dist_b is not None else (lambda d, _b=b: f(_b - d) if _b - d != _b else 0.0)

        def g_hi(t, _p=p, _g=near_b):
            return _g(t**_p) * _p * t ** (_p - 1)

        pieces.append((g_hi, 0.0, width ** (1.0 / p)))
        plain_hi = hi_end
    else:
        plain_hi = b
    if sing_a is None and sing_b is None:
        pieces.append((f, a, b))
    elif plain_lo < plain_hi:
        pieces.append((f, plain_lo, plain_hi))

    # Global adaptive subdivision: each node stores the two-half estimate and
    # the |whole - halves| discrepancy as its error indicator.
    counter = 0
    heap = []
    total = 0.0 + 0.0j
    err_total = 0.0

    def push(g, lo, hi):
        nonlocal counter, total, err_total
        m = 0.5 * (lo + hi)
        q1 = _gl15(g, lo, hi)
        q2 = _gl15(g, lo, m) + _gl15(g, m, hi)
        err = abs(q1 - q2)
        counter += 1
        total += q2
        err_total += err
        heapq.heappush(heap, (-err, counter, lo, hi, q2, g))

    for g, lo, hi in pieces:
        push(g, lo, hi)

    span = sum(hi - lo for _, lo, hi in pieces)
    subdivisions = 0
    while err_total > tol.bound(total):
        if subdivisions >= tol.max_iter:
            raise QuadratureError(
                "quadrature did not converge within max_iter subdivisions",
                total,
                err_total,
            )
        neg_err, _, lo, hi, q, g = heapq.heappop(heap)
        if hi - lo < 4e-16 * span:
            # Interval too narrow to refine further; keep its contribution.
            heapq.heappush(heap, (0.0, counter, lo, hi, q, g))
            if all(h[0] == 0.0 for h in heap):
                raise QuadratureError(
                    "quadrature stalled on a non-resolvable feature", total, err_total
                )
            continue
        total -= q
        err_total += neg_err  # neg_err is -err
        m = 0.5 * (lo + hi)
        push(g, lo, m)
        push(g, m, hi)
        subdivisions += 1
    return complex(total)


def tridiag_eigen(diag: Sequence[float], offdiag: Sequence[float]) -> np.ndarray:
    """Sorted eigenvalues of a symmetric tridiagonal matrix.

    Off-diagonal entries must be strictly positive (simple spectrum).
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("diag must be a nonempty 1-d array")
    if e.shape != (d.size - 1,):
        raise ValueError("offdiag must have length len(diag) - 1")
    if e.size and not np.all(e > 0):
        raise ValueError("off-diagonal entries must be strictly positive")
    if d.size == 1:
        return d.copy()
    return eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf")


def bracket_roots(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    grid: int,
    tol: Tolerance | None = None,
) -> list[float]:
    """Scan ``grid`` subintervals of ``[lo, hi]`` for sign changes and bisect.

    Returns the refined roots in ascending order; an empty list when no sign
    change is seen (the caller chooses the grid density).
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if not lo < hi:
        raise ValueError("need lo < hi")
    tol = tol or Tolerance(abs_tol=1e-13, rel_tol=1e-13)
    xs = np.linspace(lo, hi, grid + 1)
    fs = [f(x) for x in xs]
    roots: list[float] = []
    for i in range(grid):
        f0, f1 = fs[i], fs[i + 1]
        if f0 == 0.0:
            roots.append(xs[i])
            continue
        if i == grid - 1 and f1 == 0.0:
            roots.append(xs[i + 1])
            continue
        if f0 * f1 < 0:
            a, b = xs[i], xs[i + 1]
            fa = f0
            for _ in range(tol.max_iter):
                m = 0.5 * (a + b)
                if (b - a) <= tol.bound(m):
                    break
                fm = f(m)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    # Merge duplicates from roots landing exactly on grid points.
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > tol.bound(r):
            merged.append(r)
    return merged


def sum_until(
    term: Callable[[int], complex],
    tol: Tolerance | None = None,
    guard: int = 3,
) -> ConvergedLimit:
    """Sum ``term(0) + term(1) + ...`` until ``guard`` consecutive terms are small.

    A term is small when its magnitude is at most
    ``max(abs_tol, rel_tol * |partial sum|)``. Exhausting ``max_iter`` yields
    ``converged=False`` rather than an exception.
    """
    if guard < 2:
        raise ValueError("guard must be at least 2")
    tol = tol or Tolerance()
    total = 0.0 + 0.0j
    streak = 0
    last = math.inf
    n = 0
    for n in range(tol.max_iter):
        t = complex(term(n))
        total += t
        last = abs(t)
        if last <= tol.bound(total):
            streak += 1
            if streak >= guard:
                return ConvergedLimit(total, n + 1, last, True)
        else:
            streak = 0
    return ConvergedLimit(total, n + 1, last, False)


def gamma_pos(x: float) -> float:
    """Gamma function for x > 0."""
    if not x > 0:
        raise ValueError("gamma_pos requires x > 0")
    return math.gamma(x)


def neville(hs: Sequence[float], ys: Sequence) -> complex | np.ndarray:
    """Polynomial extrapolation of samples ``(h_i, y_i)`` to h = 0, elementwise
    when the ``y_i`` are arrays of one shape; scalar samples give a ``complex``."""
    vals = list(np.asarray(ys, dtype=complex))
    n = len(vals)
    if len(hs) != n or n == 0:
        raise ValueError("need equally many abscissae and values")
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            vals[i] = vals[i] + (vals[i] - vals[i - 1]) * hs[i] / (hs[i - j] - hs[i])
    return complex(vals[-1]) if vals[-1].ndim == 0 else vals[-1]


def richardson_sum(
    term: Callable[[int], complex],
    tol: Tolerance | None = None,
    *,
    n0: int = 64,
    average: int = 4,
) -> ConvergedLimit:
    """Sum a series whose partial sums admit a 1/n tail expansion.

    Partial sums are snapshotted at geometrically spaced checkpoints (each
    averaged over ``average`` consecutive indices to damp bounded-period
    oscillation) and extrapolated to n -> infinity by Neville's scheme.
    Intended for algebraically decaying terms; geometric series converge
    before extrapolation matters.
    """
    tol = tol or Tolerance()
    total = 0.0 + 0.0j
    hs: list[float] = []
    ys: list[complex] = []
    prev_extrap: complex | None = None
    last_inc = math.inf
    n = 0
    next_cp = max(8, n0)
    while n < tol.max_iter:
        total += complex(term(n))
        n += 1
        if n == next_cp:
            buf = [total]
            while len(buf) < average and n < tol.max_iter:
                total += complex(term(n))
                n += 1
                buf.append(total)
            hs.append(1.0 / (n - 0.5 * (len(buf) - 1)))
            ys.append(sum(buf) / len(buf))
            if len(ys) >= 3:
                extrap = neville(hs, ys)
                if prev_extrap is not None:
                    last_inc = abs(extrap - prev_extrap)
                    if last_inc <= tol.bound(extrap):
                        return ConvergedLimit(extrap, n, last_inc, True)
                prev_extrap = extrap
            next_cp *= 2
    value = prev_extrap if prev_extrap is not None else total
    return ConvergedLimit(value, n, last_inc, False)


def compensated_sum(values: Iterable[float]) -> float:
    """Neumaier-compensated sum of real values."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp
