"""Shared numerical primitives.

Adaptive Gauss-Legendre quadrature of smooth integrands (a 15-point rule
held as Python floats, so an integrand is called with floats), symmetric
tridiagonal eigenvalues, and the one extrapolation rule for every limit that
converges like 1/n: Neville extrapolation to h = 0 of checkpoint snapshots,
one tableau row per snapshot (:func:`neville_extend`), settled when the last
two extrapolations agree within the tolerance (:func:`neville_limit`), which
:func:`richardson_sum` applies to the partial sums of a series.
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


# 15-point Gauss-Legendre rule on [-1, 1]: numpy's leggauss(15) to the last
# bit, written out as Python floats, so that integrands receive floats, not
# numpy scalars, and importing this module makes no LAPACK call.
_GL_NODES = [
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854,
]
_GL_WEIGHTS = [
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
]


def _gl15(f, a: float, b: float) -> complex:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    acc = 0.0 + 0.0j
    for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
        acc += wi * f(mid + half * xi)
    return half * acc


def integrate(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: Tolerance | None = None,
) -> complex:
    """Adaptive Gauss-Legendre integral of ``f`` over ``[a, b]``.

    Raises :class:`QuadratureError` when the subdivision budget ``tol.max_iter``
    is exhausted before the error bound drops below
    ``max(abs_tol, rel_tol * |result|)``.
    """
    if not (a < b) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("need finite a < b")
    tol = tol or Tolerance(abs_tol=1e-12, rel_tol=1e-12)

    # Global adaptive subdivision: each node stores the two-half estimate and
    # the |whole - halves| discrepancy as its error indicator.
    counter = 0
    heap = []
    total = 0.0 + 0.0j
    err_total = 0.0

    def push(lo, hi):
        nonlocal counter, total, err_total
        m = 0.5 * (lo + hi)
        q1 = _gl15(f, lo, hi)
        q2 = _gl15(f, lo, m) + _gl15(f, m, hi)
        err = abs(q1 - q2)
        counter += 1
        total += q2
        err_total += err
        heapq.heappush(heap, (-err, counter, lo, hi, q2))

    push(a, b)
    span = b - a
    subdivisions = 0
    while err_total > tol.bound(total):
        if subdivisions >= tol.max_iter:
            raise QuadratureError(
                "quadrature did not converge within max_iter subdivisions",
                total,
                err_total,
            )
        neg_err, _, lo, hi, q = heapq.heappop(heap)
        if hi - lo < 4e-16 * span:
            # Interval too narrow to refine further; keep its contribution.
            heapq.heappush(heap, (0.0, counter, lo, hi, q))
            if all(h[0] == 0.0 for h in heap):
                raise QuadratureError(
                    "quadrature stalled on a non-resolvable feature", total, err_total
                )
            continue
        total -= q
        err_total += neg_err  # neg_err is -err
        m = 0.5 * (lo + hi)
        push(lo, m)
        push(m, hi)
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


def neville_extend(hs: Sequence[float], row: list, y):
    """One more sample for a Neville tableau in h, built one row at a time.

    ``row`` holds, for j < k, the extrapolation at h = 0 of the samples
    k-1-j .. k-1 (the empty list before the first sample); ``y`` is sample k,
    taken at ``hs[k]``. Returns the row of sample k, whose entry k is e_(k+1),
    the extrapolation of all k + 1 samples, and the increment
    |e_(k+1) - e_k| (inf below four samples). Each entry depends only on its
    own samples, so extending a row per sample gives the bits a tableau
    rebuilt over all samples gives; array samples extend elementwise.
    """
    k = len(row)
    new = [np.asarray(y, dtype=complex)]
    for j in range(1, k + 1):
        new.append(new[j - 1] + (new[j - 1] - row[j - 1]) * hs[k] / (hs[k - j] - hs[k]))
    if k < 3:
        inc = math.inf if new[0].ndim == 0 else np.full(new[0].shape, math.inf)
    elif new[0].ndim == 0:
        inc = abs(complex(new[-1]) - complex(row[-1]))
    else:
        inc = np.abs(new[-1] - row[-1])
    return new, inc


def neville_limit(hs: Sequence[float], ys: Sequence, tol: Tolerance):
    """Limit at h = 0 of samples ``(h_i, y_i)`` of a quantity converging like
    a power series in h, and whether it has settled.

    The tableau of :func:`neville_extend` over all k samples gives the
    extrapolation e_k and e_(k-1), that of the first k - 1 samples. Returns
    ``(e_k, |e_k - e_(k-1)|, settled)`` with settled meaning that increment
    is within ``max(abs_tol, rel_tol * |e_k|)``; below four samples the
    increment is inf. Samples that are arrays of one shape give elementwise
    results; scalar samples give a ``complex``, a ``float`` and a ``bool``.
    """
    vals = np.asarray(ys, dtype=complex)
    if len(hs) != len(vals) or len(vals) == 0:
        raise ValueError("need equally many abscissae and values")
    row: list = []
    for y in vals:
        row, inc = neville_extend(hs, row, y)
    if row[-1].ndim == 0:
        value = complex(row[-1])
        return value, inc, inc <= tol.bound(value)
    return row[-1], inc, inc <= np.maximum(tol.abs_tol, tol.rel_tol * np.abs(row[-1]))


def richardson_sum(
    terms: Sequence[complex] | np.ndarray,
    tol: Tolerance | None = None,
    *,
    n0: int = 64,
) -> ConvergedLimit:
    """Sum a series whose partial sums admit a 1/n tail expansion.

    The first ``tol.max_iter`` of ``terms`` form the budget. Checkpoints sit
    at n0, 2 n0, 4 n0, ... as long as the four partial sums S_cp .. S_(cp+3)
    fit in it; their average (which damps bounded-period oscillation) is the
    snapshot at h = 1/(cp + 1.5), which extends one Neville row
    (:func:`neville_extend`), and the sum stops at the first checkpoint
    where the extrapolation has settled as in :func:`neville_limit`.
    Intended for algebraically decaying terms; geometric series converge
    before extrapolation matters. Without a settled checkpoint the result
    has ``converged=False``, the last extrapolation (the plain sum below
    three snapshots) and the whole budget.
    """
    tol = tol or Tolerance()
    partial = np.cumsum(np.asarray(terms, dtype=complex)[: tol.max_iter])
    hs: list[float] = []
    row: list = []
    value = complex(partial[-1]) if partial.size else 0j
    inc = math.inf
    cp = max(8, n0)
    while cp + 3 <= partial.size:
        s0, s1, s2, s3 = partial[cp - 1 : cp + 3]
        hs.append(1.0 / (cp + 1.5))
        row, inc = neville_extend(hs, row, (s0 + s1 + s2 + s3) / 4)
        if len(row) >= 3:
            value = complex(row[-1])
            if inc <= tol.bound(value):
                return ConvergedLimit(value, cp + 3, inc, True)
        cp *= 2
    return ConvergedLimit(value, partial.size, inc, False)


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
