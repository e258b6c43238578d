"""The indeterminate half: determinacy, Nevanlinna matrix, N-extremal measures.

The four Nevanlinna series converge like 1/n for quartic-growth rate
families, so every series and border limit here is read at geometric
checkpoints (averaged over four consecutive partial sums to damp
bounded-period oscillation) and extrapolated in 1/n by
:func:`bdspec.numerics.neville_limit`, which also says when it has settled.
The Nevanlinna series place a checkpoint every half octave, the border
limits and the dual series every octave.

Everything here runs on the kernel of :mod:`bdspec.recurrence`: the
Nevanlinna series advance one checkpoint segment at a time on its banded
solver; the border limits and the dual series read its Stieltjes band from
one solve; ``classify`` and ``alpha_limit`` read pi_n and the partial sums
1/alpha_n from its log columns. The verdict and alpha are memoized per
rates object next to the tables.

Stieltjes' continued fraction is the weak form of Markov's theorem in the
indeterminate case: its even convergents tend to the Friedrichs transform
and its odd ones to the Krein transform, and minus its even rows (P, Q) are
the partial sums of the dual series for B - D/alpha and A - C/alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contfrac import DiscreteMeasure, PoleError
from .numerics import ConvergedLimit, ConvergenceError, Tolerance, neville_limit, richardson_sum
from .recurrence import (
    _CHUNK,
    BirthDeathRates,
    _advance,
    _coefficients,
    _log_columns,
    _memo,
    _qp_ratios,
    _solve,
    _start,
    _stieltjes_band,
)

DET_H = "DET_H"
INDET_S_INDET_H = "INDET_S_INDET_H"
DET_S_INDET_H = "DET_S_INDET_H"

_GROWTH_LIMIT = 1e130
_TERM_CAP = 16384  # the last checkpoint of every Nevanlinna series


@dataclass(frozen=True)
class Determinacy:
    """Classification verdict with the three criterion partial sums."""

    verdict: str
    series_values: tuple[float, float, float]
    tail_estimates: tuple[float, float, float]
    confident: bool
    nmax: int


@dataclass(frozen=True)
class NevanlinnaValue:
    """The entire-function quadruple (A, B, C, D) at a point."""

    A: complex
    B: complex
    C: complex
    D: complex
    x: complex
    terms_used: int
    det_defect: float


def _tail_behavior(logs: np.ndarray, ns: np.ndarray) -> tuple[str, bool, float]:
    """(verdict, conclusive, tail_estimate) for a positive-term series.

    Geometric ratio over the last quarter decides clearly geometric tails;
    otherwise a power-law fit t_n ~ n^-p decides, with p near 1 declared
    inconclusive.
    """
    last = logs[-1]
    if last == -math.inf:
        return "conv", True, 0.0
    if not math.isfinite(last):
        return "div", True, math.inf
    i0 = (3 * len(logs)) // 4
    if i0 >= len(logs) - 1:
        i0 = len(logs) - 2
    dlog = (logs[-1] - logs[i0]) / (ns[-1] - ns[i0])
    rho = math.exp(min(dlog, 700.0))
    tn = math.exp(min(last, 700.0))
    if rho <= 0.95:
        return "conv", True, tn * rho / (1.0 - rho)
    if rho >= 1.05:
        return "div", True, math.inf
    imid = len(logs) // 2
    p = -(logs[-1] - logs[imid]) / math.log(ns[-1] / ns[imid])
    if p >= 1.15:
        return "conv", True, tn * ns[-1] / (p - 1.0)
    if p <= 0.85:
        return "div", True, math.inf
    return ("conv" if p > 1.0 else "div"), False, math.inf


def _log_sum(logs: np.ndarray) -> float:
    top = logs.max()
    return top + math.log(np.exp(logs - top).sum())


def classify(rates: BirthDeathRates, nmax: int = 4000) -> Determinacy:
    """Determinacy of the moment problem from the growth of (lambda_n, mu_n).

    Evaluates partial sums of (i) sum pi_n + 1/(mu_n pi_n), (ii)
    sum pi_n (sum_{k<=n} 1/(mu_k pi_k))^2, (iii) sum 1/(mu_n pi_n), with the
    tail behaviour of each estimated from the computed terms. Convergent (i)
    means the Stieltjes problem is indeterminate (hence Hamburger too);
    otherwise convergent (ii) separates the det-S/indet-H boundary case
    from the plainly determinate one.
    """
    if rates.mu0 != 0:
        raise ValueError("classification requires mu_0 = 0")
    if nmax < 100:
        raise ValueError("nmax must be at least 100")
    # The table's log columns, computed without memoizing a table: the rates
    # of a determinate family never need one.
    lam, mu = rates.tabulate(nmax)
    log_pi, log_ainv = _log_columns(lam, mu, nmax + 1)
    lp = log_pi[1:]
    log_inv = -(np.log(mu[1:]) + lp)
    # log_ainv holds log sum_{k<=n} 1/(mu_k pi_k)
    log_t = (np.logaddexp(lp, log_inv), lp + 2.0 * log_ainv[1:], log_inv)
    ns = np.arange(1, nmax + 1, dtype=float)
    behav = [_tail_behavior(log_t[i], ns) for i in range(3)]
    if behav[0][0] == "conv":
        verdict = INDET_S_INDET_H
        confident = behav[0][1]
    elif behav[1][0] == "conv":
        verdict = DET_S_INDET_H
        confident = behav[1][1] and behav[2][0] == "div" and behav[2][1]
    else:
        verdict = DET_H
        confident = behav[0][1] and behav[1][1]
    values = tuple(
        math.inf if ln > 709.0 else math.exp(ln) for ln in map(_log_sum, log_t)
    )
    tails = tuple(b[2] for b in behav)
    return Determinacy(
        verdict=verdict,
        series_values=values,
        tail_estimates=tails,
        confident=confident,
        nmax=nmax,
    )


def _cached_verdict(rates: BirthDeathRates, nmax: int = 2000) -> str:
    memo = _memo(rates)
    if "verdict" not in memo:
        memo["verdict"] = classify(rates, nmax=nmax).verdict
    return memo["verdict"]


def _require_indet(rates: BirthDeathRates, allow_border: bool = False) -> None:
    verdict = _cached_verdict(rates)
    ok = (INDET_S_INDET_H,) + ((DET_S_INDET_H,) if allow_border else ())
    if verdict not in ok:
        raise ValueError(
            f"operation requires an indeterminate Stieltjes family, got {verdict}"
        )


def _require_finite(values, what: str) -> None:
    bad = np.asarray(values)[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{what} must be finite, got {bad[0]}")


def _nevanlinna_sums(
    rates: BirthDeathRates,
    xs: np.ndarray,
    tol: Tolerance,
    derivs: bool = False,
    n0: int = 128,
    nmax: int = _TERM_CAP,
):
    """Extrapolated sums behind the four Nevanlinna series at a batch of points.

    The recurrence advances by one :func:`_advance` per checkpoint segment and
    chunk of points, over the checkpoints round(n0 2^(j/2)), one every half
    octave up to ``nmax`` (128, 181, 256, 362, ..., 16384 from 128). Each
    point stops at the first checkpoint where its own extrapolation has
    settled, so its result does not depend on the batch. A point needs four
    checkpoints before it can settle, so n0 sets the fewest terms it can use
    (365 from 128); most points of the plane stop at 727 or 1027 terms. On
    an octave ladder a point that settles by n = 2900 still runs to 4099.
    Rows past ``_GROWTH_LIMIT`` raise a :class:`ConvergenceError` that names
    the double range.
    Returns (sums, terms_used, achieved increment, converged) over the batch;
    ``sums[r, i, c]`` has r over (Q, P[, Q', P']) and c over the weights
    (Q_k(0), P_k(0)), and :func:`_assemble` turns it into (A, B, C, D).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    checkpoints = []
    cp = n0
    while cp <= nmax:
        checkpoints.append(cp)
        cp = round(n0 * 2 ** (len(checkpoints) / 2))
    if not checkpoints:
        checkpoints = [nmax]
    tab = _coefficients(rates, checkpoints[-1] + 3)
    W = tab.weights
    carry = _start(tab, xs, 4 if derivs else 2)
    running = carry[:, :, 0, None] * W[0] + carry[:, :, 1, None] * W[1]

    result = np.zeros_like(running)
    terms = np.zeros(xs.size, dtype=int)
    achieved = np.full(xs.size, math.inf)
    converged = np.zeros(xs.size, dtype=bool)
    active = np.arange(xs.size)
    hs: list[float] = []
    snapshots: list[np.ndarray] = []
    lo = 2
    for cp in checkpoints:
        hi = cp + 3
        avg = np.zeros_like(running)
        step = max(1, _CHUNK // (hi - lo))
        for i0 in range(0, active.size, step):
            idx = active[i0 : i0 + step]
            rows = _advance(tab, xs[idx], carry[:, idx], lo, hi)[:, :, 2:]
            carry[:, idx] = rows[:, :, -2:]
            # A row past overflow makes every later row inf or nan, so the
            # carried rows show a segment that left the range before the
            # product below would meet it.
            grown = ~np.all(np.abs(carry[:, idx]) <= _GROWTH_LIMIT, axis=(0, 2))
            if grown.any():
                raise ConvergenceError(
                    f"Nevanlinna series rows pass {_GROWTH_LIMIT:.0e} within {hi} terms "
                    f"at x = {xs[idx[grown]][0]:.6g}: the series leaves the double range there"
                )
            # One (1, L) @ (L, 2) product per point keeps each point's sums
            # independent of how many points share the chunk.
            s = running[:, idx] + (rows[:, :, None, :-3] @ W[lo:cp])[:, :, 0]
            total = s
            for j in range(3):
                s = s + rows[:, :, j - 3, None] * W[cp + j]
                total = total + s
            running[:, idx] = s
            avg[:, idx] = total / 4
        lo = hi
        terms[active] = hi
        hs.append(1.0 / (cp + 1.5))
        snapshots.append(avg)
        extrap, inc, settled = neville_limit(hs, [snap[:, active] for snap in snapshots], tol)
        result[:, active] = extrap
        achieved[active] = inc.max(axis=(0, 2))
        converged[active] = settled.all(axis=(0, 2))
        active = active[~converged[active]]
        if not active.size:
            break
    return result, terms, achieved, converged


def _assemble(sums: np.ndarray, xs: np.ndarray):
    """Rows (A, B, C, D) from :func:`_nevanlinna_sums` and, when its sums are
    primed too, rows (A', B', C', D'); d(xS)/dx = S + x S'."""
    s = np.stack([sums[r, :, c] for c in (0, 1) for r in (0, 1)])
    vals = np.array([0.0, -1.0, 1.0, 0.0])[:, None] + xs * s
    if sums.shape[0] == 2:
        return vals, None
    ds = np.stack([sums[r, :, c] for c in (0, 1) for r in (2, 3)])
    return vals, s + xs * ds


def nevanlinna_batch(
    rates: BirthDeathRates,
    xs,
    tol: Tolerance | None = None,
) -> list[NevanlinnaValue]:
    """Vectorized :func:`nevanlinna_eval` over a batch of points.

    The points share one series pass, but each stops at the first checkpoint
    where its own extrapolation has settled, so ``terms_used`` is per point
    and ``nevanlinna_batch(rates, xs)[i]`` equals ``nevanlinna_eval(rates,
    xs[i])``. Raises :class:`ConvergenceError` when any point has not settled
    by 16384 terms or its series leaves the double range, and
    :class:`ValueError` for a non-finite point.
    """
    _require_indet(rates)
    tol = tol or Tolerance(abs_tol=1e-11, rel_tol=1e-11)
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    _require_finite(xs, "Nevanlinna points")
    nonzero = np.flatnonzero(xs)
    out = [
        NevanlinnaValue(A=0j, B=-1 + 0j, C=1 + 0j, D=0j, x=0j, terms_used=0, det_defect=0.0)
    ] * xs.size
    if nonzero.size:
        sub = xs[nonzero]
        sums, terms, achieved, converged = _nevanlinna_sums(rates, sub, tol)
        if not converged.all():
            worst = np.argmax(np.where(converged, -1.0, achieved))
            raise ConvergenceError(
                f"Nevanlinna series did not stabilize within the {_TERM_CAP}-term cap "
                f"(achieved {achieved[worst]:.2e} at x = {sub[worst]:.6g})"
            )
        vals, _ = _assemble(sums, sub)
        for j, i in enumerate(nonzero):
            A, B, C, D = (complex(v) for v in vals[:, j])
            out[i] = NevanlinnaValue(
                A, B, C, D, complex(xs[i]), int(terms[j]), abs(A * D - B * C - 1.0)
            )
    return out


def nevanlinna_eval(
    rates: BirthDeathRates, x: complex, tol: Tolerance | None = None
) -> NevanlinnaValue:
    """Entire functions (A, B, C, D) at ``x`` by extrapolated series summation.

    Refuses rate families that do not classify as indet S; at x = 0 the exact
    values (0, -1, 1, 0) are returned without summation.
    """
    return nevanlinna_batch(rates, [x], tol=tol)[0]


def alpha_limit(rates: BirthDeathRates, tol: Tolerance | None = None) -> float:
    """The limit alpha < 0 of P_n(0)/Q_n(0), i.e. -1 / sum 1/(mu_k pi_k).

    The positive series is summed with Richardson acceleration; divergence
    (a det-S family) raises.
    """
    _require_indet(rates)
    tol = tol or Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=300_000)
    memo = _memo(rates)
    key = ("alpha", tol)
    if key in memo:
        return memo[key]
    # The terms 1/(mu_k pi_k), k >= 1, over doubling blocks; every entry
    # depends on its index alone, so each block extends the last.
    size = 512
    while True:
        size = min(2 * size, tol.max_iter)
        _, mu = rates.tabulate(size)
        terms = np.exp(-(np.log(mu[1:]) + _coefficients(rates, size + 1).log_pi[1 : size + 1]))
        res = richardson_sum(terms, tol, n0=256)
        if res.converged or size == tol.max_iter:
            break
    if not res.converged:
        raise ConvergenceError(
            "sum 1/(mu_k pi_k) did not converge; rates look det S"
        )
    total = res.value.real
    if not total > 0:
        raise ConvergenceError("accelerated sum lost positivity; cannot form alpha")
    alpha = memo[key] = -1.0 / total
    return alpha


def nextremal_transform(
    nv: NevanlinnaValue,
    param: float,
    convention: str = "lambda",
    alpha: float | None = None,
) -> complex:
    """Moebius transform of the Nevanlinna matrix at a constant parameter.

    ``lambda`` convention: (A lam - C)/(B lam - D), with lam = inf giving A/B.
    ``mu`` convention substitutes lam = mu alpha/(mu - alpha) into that, which
    reduces to (At mu + C)/(Bt mu + D) with the modified first column
    At = A - C/alpha, Bt = B - D/alpha; mu = inf gives At/Bt (the Friedrichs
    point) and mu in [0, inf] sweeps exactly the positively supported family.
    Requires ``alpha``.
    """
    if convention == "lambda":
        if math.isinf(param):
            num, den = nv.A, nv.B
        else:
            num, den = nv.A * param - nv.C, nv.B * param - nv.D
    elif convention == "mu":
        if alpha is None:
            raise ValueError("mu convention requires alpha")
        At = nv.A - nv.C / alpha
        Bt = nv.B - nv.D / alpha
        if math.isinf(param):
            num, den = At, Bt
        else:
            num, den = At * param + nv.C, Bt * param + nv.D
    else:
        raise ValueError("convention must be 'lambda' or 'mu'")
    if den == 0:
        raise PoleError("transform denominator vanished", point=nv.x)
    return num / den


def _border_rows(rates: BirthDeathRates, max_iter: int, parity: int, levels: int):
    """The checkpoints cp = N // 2^j (j < levels, N = max(max_iter, 64)), the
    indices 2(cp + i) + parity (i < 4) of the Stieltjes rows averaged at
    each, and a band that holds them."""
    N = max(max_iter, 64)
    cps = sorted({max(8, N // (2**j)) for j in range(levels)})
    ks = 2 * np.add.outer(cps, np.arange(4)).ravel() + parity
    return cps, ks, _stieltjes_band(rates, ks[-1] + 1)


def markov_like_limit(
    rates: BirthDeathRates,
    x: complex,
    mode: str,
    tol: Tolerance | None = None,
) -> ConvergedLimit:
    """Border-measure transforms of indet-S families: the limits of the even
    (Friedrichs) and odd (Krein) convergents of Stieltjes' continued fraction.

    Both converge like 1/n, so the convergents averaged over four rows at
    each of five checkpoints up to ``tol.max_iter`` are Neville-extrapolated;
    diagnostics report the extrapolation increment.
    """
    x = complex(x)
    _require_finite(x, "x")
    if x.imag == 0:
        raise ValueError("markov_like_limit requires Im x != 0")
    if rates.mu0 != 0:
        raise ValueError("markov_like_limit requires mu_0 = 0")
    if mode not in ("friedrichs", "krein"):
        raise ValueError("mode must be 'friedrichs' or 'krein'")
    _require_indet(rates, allow_border=(mode == "friedrichs"))
    tol = tol or Tolerance(abs_tol=1e-8, rel_tol=1e-8, max_iter=20000)
    cps, ks, band = _border_rows(rates, tol.max_iter, mode == "krein", 5)
    ratios = _qp_ratios(band, x, ks).reshape(-1, 4).mean(axis=1)
    value, inc, converged = neville_limit([1.0 / (cp + 1.5) for cp in cps], ratios, tol)
    return ConvergedLimit(value, cps[-1], inc, converged)


def modified_entries_dual(
    rates: BirthDeathRates, x: complex, tol: Tolerance | None = None
) -> tuple[complex, complex]:
    """(B - D/alpha, A - C/alpha) through the dual-polynomial series
    -1 + (x/lambda_0) sum Ftilde_n(x) and (1/lambda_0) sum Fhat_n(x).

    Their partial sums, minus the even rows (P, Q) of the Stieltjes band, are
    Neville-extrapolated from the checkpoints of :func:`markov_like_limit` and
    one more at a 32nd of ``tol.max_iter`` (by default 16388, where the
    Nevanlinna series ends); raises :class:`ConvergenceError` when either has
    not settled. The strongest cross-check of the direct Nevanlinna summation.
    """
    _require_indet(rates)
    _require_finite(complex(x), "x")
    if rates.mu0 != 0:
        raise ValueError("dual-series entries require mu_0 = 0")
    tol = tol or Tolerance(abs_tol=1e-11, rel_tol=1e-11, max_iter=16388)
    # At |x| >= 3e3 five checkpoints leave about half the points short of
    # 1e-11 though their values are good to 6e-13; a sixth settles them.
    cps, ks, band = _border_rows(rates, tol.max_iter, 0, 6)
    rows, exps = _solve(band, np.array([complex(x)]), ks)
    avg = (rows[:, 0] * np.ldexp(1.0, exps[:, 0])).reshape(2, -1, 4).mean(axis=2)
    (q, p), _, settled = neville_limit([1.0 / (cp + 1.5) for cp in cps], avg.T, tol)
    if not settled.all():
        raise ConvergenceError("dual polynomial series did not stabilize")
    return -complex(p), -complex(q)


def _default_grid(rates: BirthDeathRates, window: tuple[float, float]) -> np.ndarray:
    lo, hi = window
    if rates.family == "Quartic":
        # Spectral points sit near ((j pi)/Kbar)^4 with Kbar the lemniscatic
        # half period scale, so scan uniformly in y = sign(s) |s|^(1/4) at a
        # fifth of the expected spacing, on either side of 0.
        from .elliptic import lemniscate_K0

        step = (math.pi / (math.sqrt(2.0) * lemniscate_K0())) / 5.0
        ylo, yhi = (math.copysign(abs(s) ** 0.25, s) for s in window)
        npts = max(8, int(math.ceil((yhi - ylo) / step)) + 1)
        ys = np.linspace(ylo, yhi, npts)
        return np.copysign(ys**4, ys)
    return np.linspace(lo, hi, 513)


def nextremal_measure(
    rates: BirthDeathRates,
    param: float,
    convention: str = "lambda",
    window: tuple[float, float] = (0.0, 100.0),
    tol: Tolerance | None = None,
) -> DiscreteMeasure:
    """Window-limited N-extremal measure psi_param.

    Support are the zeros of B lam - D (lambda convention; B for lam = inf;
    the modified combination in the mu convention) inside ``window``, found
    by a scan plus safeguarded Newton refinement on the extrapolated series.
    Masses are 1/(B'(s) D(s) - B(s) D'(s)). The result is flagged
    ``normalized=False``: it is a window of an infinite discrete measure.
    Raises :class:`ValueError` when a window bound is not finite or the
    window holds no spectral point, and :class:`ConvergenceError` when the
    series behind the masses have not settled to ``tol`` or a refined root
    gives a nonpositive mass.
    """
    _require_indet(rates)
    tol = tol or Tolerance(abs_tol=1e-11, rel_tol=1e-11)
    lo, hi = window
    _require_finite(window, "window bounds")
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if convention == "lambda":
        cB, cD = (1.0, 0.0) if math.isinf(param) else (param, -1.0)
    elif convention == "mu":
        # zeros of Bt mu + D = mu B + (1 - mu/alpha) D
        alpha = alpha_limit(rates)
        if math.isinf(param):
            cB, cD = 1.0, -1.0 / alpha
        else:
            cB, cD = param, 1.0 - param / alpha
    else:
        raise ValueError("convention must be 'lambda' or 'mu'")

    xs = _default_grid(rates, window)

    def g_batch(points: np.ndarray, derivs: bool, nmax: int, final: bool = False):
        # Only the final pass, which gives the masses, must converge; the scan,
        # bisection and Newton passes need signs and deliberately run short.
        # Their checkpoints start at 256. From 128 the passes on the real
        # axis would stop at 1027-1451 terms instead of 1451-2051, a third
        # fewer steps, with atoms and masses as close (within 3e-13) to the
        # closed forms.
        sums, _, achieved, converged = _nevanlinna_sums(
            rates, points, tol, derivs=derivs, n0=256, nmax=nmax
        )
        if final and not converged.all():
            raise ConvergenceError(
                f"N-extremal masses: the Nevanlinna series reached "
                f"{achieved[~converged].max():.2e}, requested abs_tol "
                f"{tol.abs_tol:.1e} / rel_tol {tol.rel_tol:.1e}; loosen the tolerance"
            )
        vals, dvals = _assemble(sums, points)
        g = (cB * vals[1] + cD * vals[3]).real
        if derivs:
            return g, (cB * dvals[1] + cD * dvals[3]).real, vals, dvals
        return g

    scan = g_batch(xs, False, 4096)
    roots: list[float] = []
    brackets: list[tuple[float, float, float]] = []  # (lo, hi, sign at lo)
    for i in range(xs.size - 1):
        if scan[i] == 0.0:
            roots.append(float(xs[i]))
        elif scan[i] * scan[i + 1] < 0:
            brackets.append((float(xs[i]), float(xs[i + 1]), float(scan[i])))
    if scan[-1] == 0.0:
        roots.append(float(xs[-1]))

    if brackets:
        a = np.array([b[0] for b in brackets])
        bb = np.array([b[1] for b in brackets])
        fa = np.array([b[2] for b in brackets])
        # Bisection narrows each bracket far enough that the closing Newton
        # steps (on the extrapolated series, with exact derivatives) are safe.
        for _ in range(14):
            mids = 0.5 * (a + bb)
            g = g_batch(mids, False, 3072)
            left = fa * g > 0
            a = np.where(left, mids, a)
            bb = np.where(left, bb, mids)
            fa = np.where(left, g, fa)
        mids = 0.5 * (a + bb)
        for _ in range(3):
            g, dg, _, _ = g_batch(mids, True, _TERM_CAP)
            mids = mids - g / np.where(dg == 0, 1.0, dg)
        roots.extend(float(r) for r in mids)

    roots = sorted(r for r in roots if lo <= r <= hi)
    if not roots:
        raise ValueError(
            f"no spectral points found in window {window}; widen the window"
        )
    pts = np.array(roots)
    _, _, vals, dvals = g_batch(pts, True, _TERM_CAP, final=True)
    denom = (dvals[1] * vals[3] - vals[1] * dvals[3]).real
    masses = 1.0 / denom
    bad = [float(p) for p, m in zip(pts, masses) if not m > 0]
    if bad:
        raise ConvergenceError(
            f"root refinement produced nonpositive masses near {bad}; "
            "offending brackets were "
            + ", ".join(f"[{a:.6g},{b:.6g}]" for a, b, _ in brackets)
        )
    return DiscreteMeasure(
        support=pts,
        mass=masses,
        normalized=False,
        meta={
            "kind": "nextremal",
            "param": ("inf" if math.isinf(param) else param),
            "convention": convention,
            "window": [lo, hi],
            "family": rates.family,
        },
    )
