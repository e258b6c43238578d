"""The indeterminate half: determinacy, Nevanlinna matrix, N-extremal measures.

The four Nevanlinna series converge like 1/n for quartic-growth rate
families, so every series and border limit here is read at geometric
checkpoints (averaged over four consecutive partial sums to damp
bounded-period oscillation) and extrapolated in 1/n by one Neville tableau
(:mod:`bdspec.numerics`). The Nevanlinna series, the border limits and the
dual series place a checkpoint every half octave from 64 to ``tol.max_iter``
(by default 16384), extend a tableau row by one sample per checkpoint, and
stop once what their caller reads there agrees at the last two
extrapolations: for the Nevanlinna series every sum (:func:`nevanlinna_batch`)
or a sign, a Newton step or a mass (:func:`nextremal_measure`); for the
border limits the ratio of the Q and P rows of the Stieltjes band, which
they return, and for the dual series those rows (:func:`_border_march`).

Everything here runs on the kernel of :mod:`bdspec.recurrence`: the
Nevanlinna series advance one checkpoint segment at a time on its banded
solver, and the border limits and the dual series once on its Stieltjes
band; ``classify`` and ``alpha_limit`` read pi_n and the partial sums
1/alpha_n from its log columns. Every entry point here, and ``markov_limit``,
passes one determinacy gate: it reads :func:`classify` at its default depth
and raises :class:`DeterminacyError` for a family on the wrong side or an
unconfident verdict; the classification and alpha are memoized per rates.

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
from .numerics import (
    ConvergedLimit,
    ConvergenceError,
    Tolerance,
    _require_finite,
    neville_extend,
    richardson_sum,
)
from .recurrence import (
    _CHUNK,
    _RESCALE_HI,
    BirthDeathRates,
    _advance,
    _coefficients,
    _log_columns,
    _rescaled_rows,
    _start,
    _stieltjes_band,
)

DET_H = "DET_H"
INDET_S_INDET_H = "INDET_S_INDET_H"
DET_S_INDET_H = "DET_S_INDET_H"


def _ladder(top: int) -> list[int]:
    """The checkpoints round(64 2^(j/2)), one every half octave, from 64 to ``top``."""
    cps = [64]
    while (cp := round(64 * 2 ** (len(cps) / 2))) <= top:
        cps.append(cp)
    return cps


_BUDGET = 16384  # the term budget of every series and march here by default
# The default tolerance of the Nevanlinna series, the dual series and the N-extremal measures.
_SERIES_TOL = Tolerance(abs_tol=1e-11, rel_tol=1e-11, max_iter=_BUDGET)
# Derivative passes an N-extremal bracket may take before its Newton iteration settles.
_NEWTON_CAP = 8


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
    from the plainly determinate one. The result is memoized per rates
    object and ``nmax``.
    """
    if rates.mu0 != 0:
        raise ValueError("classification requires mu_0 = 0")
    if nmax < 100:
        raise ValueError("nmax must be at least 100")
    memo = rates._store
    key = ("determinacy", nmax)
    if key in memo:
        return memo[key]
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
    return memo.setdefault(key, Determinacy(
        verdict=verdict,
        series_values=values,
        tail_estimates=tails,
        confident=confident,
        nmax=nmax,
    ))


class DeterminacyError(ValueError):
    """The rates classify on the wrong side of determinacy for the operation."""


def _require_verdict(rates: BirthDeathRates, accepted: tuple[str, ...]) -> str:
    """The verdict of :func:`classify` at its default depth; raises
    :class:`DeterminacyError` unless it is confident and ``accepted``."""
    det = classify(rates)
    if not det.confident:
        raise DeterminacyError(f"classification is inconclusive: {det.verdict}, not confident")
    if det.verdict not in accepted:
        raise DeterminacyError(
            f"operation accepts {' or '.join(accepted)} families, classification is {det.verdict}"
        )
    return det.verdict


def _nevanlinna_sums(rates: BirthDeathRates, xs: np.ndarray, settled, max_iter: int, derivs: bool = False):
    """Extrapolated sums behind the four Nevanlinna series at a batch of points.

    The recurrence advances by one :func:`_advance` per checkpoint segment and
    chunk of points over ``_ladder(max_iter)``, on a table grown with it. Each
    point extends its own row of the Neville tableau at every checkpoint and
    stops at the first one where ``settled(sums, previous, xs)``, the
    caller's test over the points still running, holds for it: ``sums`` is
    the extrapolation of all the point's samples and ``previous`` the one
    before the last sample, so its result does not depend on the batch. A
    point settles on four checkpoints at the least (184 terms). The points,
    carried rows, running sums and tableau row hold the points still
    running alone, compacted at each checkpoint where some settle, so every
    chunk is a slice of them. A shorter ladder, and rows past the kernel's
    1e150 (naming the double range), raise a :class:`ConvergenceError`.
    Returns (sums, terms_used, previous, converged) over the batch;
    ``sums[r, i, c]`` has r over (Q, P[, Q', P']) and c over the weights
    (Q_k(0), P_k(0)), and :func:`_assemble` turns it into (A, B, C, D).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    cps = _ladder(max_iter)
    if len(cps) < 4:  # a point settles on four checkpoints, 184 terms
        raise ConvergenceError(f"Nevanlinna series cannot settle within the {cps[-1]}-term cap")
    tab = _coefficients(rates, 2)
    carry = _start(tab, xs, 4 if derivs else 2)
    running = carry[:, :, 0, None] * tab.weights[0] + carry[:, :, 1, None] * tab.weights[1]

    result = np.zeros_like(running)
    earlier = np.zeros_like(running)
    terms = np.zeros(xs.size, dtype=int)
    converged = np.zeros(xs.size, dtype=bool)
    active = np.arange(xs.size)  # the running points' indices in the batch
    hs: list[float] = []
    row: list = []  # the running points' row of the Neville tableau
    lo = 2
    for cp in cps:
        hi = cp + 3
        if tab.inv_b.size < hi:  # every entry depends on its index alone
            tab = _coefficients(rates, min(2 * hi, cps[-1] + 3))
        avg = np.empty_like(running)
        step = max(1, _CHUNK // (hi - lo))
        for i0 in range(0, xs.size, step):
            at = slice(i0, i0 + step)
            rows = _advance(tab, xs[at], carry[:, at], lo, hi)[:, :, 2:]
            carry[:, at] = rows[:, :, -2:]
            # A row past overflow makes every later row inf or nan, so the
            # carried rows show a segment that left the range before the
            # product below would meet it.
            grown = ~np.all(np.abs(carry[:, at]) <= _RESCALE_HI, axis=(0, 2))
            if grown.any():
                raise ConvergenceError(
                    f"Nevanlinna series rows pass {_RESCALE_HI:.0e} within {hi} terms "
                    f"at x = {xs[at][grown][0]:.6g}: the series leaves the double range there"
                )
            # One (1, L) @ (L, 2) product per point keeps each point's sums
            # independent of how many points share the chunk.
            s = running[:, at] + (rows[:, :, None, :-3] @ tab.weights[lo:cp])[:, :, 0]
            total = s
            for j in range(3):
                s = s + rows[:, :, j - 3, None] * tab.weights[cp + j]
                total = total + s
            running[:, at] = s
            avg[:, at] = total / 4
        lo = hi
        terms[active] = hi
        hs.append(1.0 / (cp + 1.5))
        previous = row[-1] if row else None
        row, _ = neville_extend(hs, row, avg)
        if len(row) < 4:  # no point settles on fewer than four checkpoints
            continue
        result[:, active] = row[-1]
        earlier[:, active] = previous
        done = settled(row[-1], previous, xs)
        converged[active] = done
        if done.all():
            break
        if done.any():  # one compaction, so every chunk stays a slice
            keep = ~done
            active, xs, carry, running = active[keep], xs[keep], carry[:, keep], running[:, keep]
            row = [entry[:, keep] for entry in row]
    return result, terms, earlier, converged


def _every_sum_settled(sums: np.ndarray, previous: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Per point of :func:`_nevanlinna_sums`: whether every extrapolated sum
    is within ``tol.bound`` of its value at the previous extrapolation."""
    return np.all(np.abs(sums - previous) <= tol.bound(sums), axis=(0, 2))


def _assemble(sums: np.ndarray, xs: np.ndarray):
    """Rows (A, B, C, D) from :func:`_nevanlinna_sums` and, when its sums are
    primed too, rows (A', B', C', D'), or None: entry 2c + r of x S is sum r
    against weight c, and its derivative is S + x S'."""
    s = sums.reshape(-1, 2, xs.size, 2).transpose(0, 3, 1, 2).reshape(-1, 4, xs.size)
    vals = np.array([0.0, -1.0, 1.0, 0.0])[:, None] + xs * s[0]
    return vals, (s[0] + xs * s[1] if len(s) > 1 else None)


def nevanlinna_batch(
    rates: BirthDeathRates,
    xs,
    tol: Tolerance | None = None,
) -> list[NevanlinnaValue]:
    """Vectorized :func:`nevanlinna_eval` over a batch of points.

    The points share one series pass, but each stops at the first checkpoint
    where every one of its extrapolated sums is within ``tol.bound`` of its
    value (at least 184 terms), so ``terms_used`` is per point
    and ``nevanlinna_batch(rates, xs)[i]`` equals ``nevanlinna_eval(rates,
    xs[i])``. Raises :class:`ConvergenceError` when any point has not settled
    by the last checkpoint within ``tol.max_iter`` terms, naming that cap, or
    its series leaves the double range, and :class:`ValueError` for a
    non-finite point.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    _require_finite(xs, "Nevanlinna points")
    _require_verdict(rates, (INDET_S_INDET_H,))
    tol = tol or _SERIES_TOL
    nonzero = np.flatnonzero(xs)
    out = [
        NevanlinnaValue(A=0j, B=-1 + 0j, C=1 + 0j, D=0j, x=0j, terms_used=0, det_defect=0.0)
    ] * xs.size
    if nonzero.size:
        sub = xs[nonzero]
        sums, terms, previous, converged = _nevanlinna_sums(
            rates, sub, lambda sums, previous, points: _every_sum_settled(sums, previous, tol),
            tol.max_iter,
        )
        if not converged.all():
            achieved = np.abs(sums - previous).max(axis=(0, 2))
            worst = np.argmax(np.where(converged, -1.0, achieved))
            raise ConvergenceError(
                f"Nevanlinna series did not stabilize within the {_ladder(tol.max_iter)[-1]}-term cap "
                f"(achieved {achieved[worst]:.2e} at x = {sub[worst]:.6g})"
            )
        vals, _ = _assemble(sums, sub)
        for i, (A, B, C, D), x, n in zip(
            nonzero.tolist(), vals.T.tolist(), sub.tolist(), terms.tolist()
        ):
            out[i] = NevanlinnaValue(A, B, C, D, x, n, abs(A * D - B * C - 1.0))
    return out


def nevanlinna_eval(
    rates: BirthDeathRates, x: complex, tol: Tolerance | None = None
) -> NevanlinnaValue:
    """Entire functions (A, B, C, D) at ``x`` by extrapolated series summation.

    Raises :class:`DeterminacyError` unless the rates classify as indet S; at
    x = 0 the exact values (0, -1, 1, 0) are returned without summation.
    """
    return nevanlinna_batch(rates, [x], tol=tol)[0]


def alpha_limit(rates: BirthDeathRates, tol: Tolerance | None = None) -> float:
    """The limit alpha < 0 of P_n(0)/Q_n(0), i.e. -1 / sum 1/(mu_k pi_k).

    The positive series is summed with Richardson acceleration in 1/n; one
    unsettled within ``tol.max_iter`` terms raises :class:`ConvergenceError`.
    """
    _require_verdict(rates, (INDET_S_INDET_H,))
    tol = tol or Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=300_000)
    memo = rates._store
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
            f"sum 1/(mu_k pi_k) did not stabilize within its {tol.max_iter}-term budget "
            f"(achieved {res.last_increment:.2e})"
        )
    total = res.value.real
    if not total > 0:
        raise ConvergenceError("accelerated sum lost positivity; cannot form alpha")
    alpha = memo[key] = -1.0 / total
    return alpha


def _pencil(param: float, convention: str, alpha) -> tuple[float, float]:
    """(p, q) such that the N-extremal transform at ``param`` is
    (pA + qC)/(pB + qD) and its measure sits on the zeros of pB + qD.
    ``alpha``, a value or a function giving it, is read in the mu convention
    only; a nan parameter raises :class:`ValueError`."""
    if convention not in ("lambda", "mu"):
        raise ValueError("convention must be 'lambda' or 'mu'")
    if math.isnan(param):
        raise ValueError(f"the N-extremal parameter {convention} is nan")
    if convention == "lambda":
        return (1.0, 0.0) if math.isinf(param) else (param, -1.0)
    alpha = alpha() if callable(alpha) else alpha
    if alpha is None:
        raise ValueError("mu convention requires alpha")
    # (lam, -1) at lam = mu alpha/(mu - alpha), scaled by (mu - alpha)/alpha
    return (1.0, -1.0 / alpha) if math.isinf(param) else (param, 1.0 - param / alpha)


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
    p, q = _pencil(param, convention, alpha)
    den = p * nv.B + q * nv.D
    if den == 0:
        raise PoleError("transform denominator vanished", point=nv.x)
    return (p * nv.A + q * nv.C) / den


# The bound to which the dual series settles its rows, or the caller's where
# that is tighter. Rows settled to 1e-11 cut the dual series' worst margin
# inside its 1e-8 benchmark bound from 4.1 to 3.5 digits.
_ROW_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12)


def _border_march(rates: BirthDeathRates, x: complex, parity: int, max_iter: int, ratios: bool):
    """Extrapolations of the Q and P rows 2n + parity of the Stieltjes band at ``x``.

    The band is solved by :func:`_rescaled_rows` one segment at a time over
    the half-octave ladder up to ``max_iter`` (:func:`_ladder`). At each
    checkpoint cp the rows 2(cp + i) + parity (i < 4), brought to their
    largest power of two 2^e, are averaged and extend one Neville row each,
    kept at 2^e; with ``ratios`` the samples are the averaged convergents
    Q/P, paired with 1 (e = 0). Yields, per checkpoint, (cp, the
    extrapolations [Q, P] times 2^-e, their changes from the ones before
    (inf below four samples), e, the averaged samples times 2^-e); the
    caller stops the march.
    """
    xs = np.array([x])
    band = _stieltjes_band(rates, 2)
    carry, scale = _start(band, xs, 2), np.zeros((2, 1), dtype=int)
    e = np.zeros((2, 1, 1), dtype=int)
    hs, row, lo = [], [], 2
    for cp in _ladder(max_iter):
        first = 2 * cp + parity
        if band.inv_b.size <= first + 6:
            band = _stieltjes_band(rates, 2 * (first + 7))
        rows, exps = np.empty((2, 1, 4), dtype=complex), np.empty((2, 1, 4), dtype=int)
        ks = np.arange(first, first + 8, 2)
        carry, scale = _rescaled_rows(band, xs, ks, carry, scale, lo, rows, exps)
        lo = first + 7
        if ratios:
            rows = np.stack([rows[0] / rows[1] * np.ldexp(1.0, exps[0] - exps[1]), np.ones((1, 4))])
        elif (exps != e).any():
            top = exps.max(axis=2, keepdims=True)
            row = [entry * np.ldexp(1.0, e - top) for entry in row]
            rows, e = rows * np.ldexp(1.0, exps - top), top
        hs.append(1.0 / (cp + 1.5))
        row, change = neville_extend(hs, row, sample := rows.sum(axis=2, keepdims=True) / 4)
        yield cp, row[-1].ravel(), change.ravel(), e.ravel(), sample.ravel()


def markov_like_limit(
    rates: BirthDeathRates,
    x: complex,
    mode: str,
    tol: Tolerance | None = None,
) -> ConvergedLimit:
    """Border-measure transforms of indet-S families: the limits of the even
    (Friedrichs) and odd (Krein) convergents of Stieltjes' continued fraction,
    at x off the real axis or real x < 0.

    The convergents are Q/P on the rows 2n (Friedrichs) or 2n + 1 (Krein) of
    the Stieltjes band, and on an indet-S family both rows converge like 1/n.
    The value at each checkpoint of the march (:func:`_border_march`) is the
    ratio of the two row extrapolations, or, for a det-S family, whose rows
    diverge, the extrapolation of the averaged convergents. The march stops
    at the first checkpoint (the fourth at the earliest) where the value
    changes by at most min(``tol.bound``, 1e-12 relative) from the one
    before; ``terms_used`` is that checkpoint and ``last_increment`` the
    change. Where it does not by ``tol.max_iter``, the last value is
    returned, settled only if its change is within ``tol.bound`` and the
    unextrapolated value changes 2 +- 0.2 times as much from cp/4 to cp/2 as
    from cp/2 to the last checkpoint cp, as the 1/n model has it.
    """
    x = complex(x)
    _require_finite(x, "x")
    if x.imag == 0 and x.real >= 0:
        raise ValueError("markov_like_limit requires Im x != 0 or real x < 0")
    if mode not in ("friedrichs", "krein"):
        raise ValueError("mode must be 'friedrichs' or 'krein'")
    accepted = (INDET_S_INDET_H, DET_S_INDET_H) if mode == "friedrichs" else (INDET_S_INDET_H,)
    ratios = _require_verdict(rates, accepted) == DET_S_INDET_H
    tol = tol or Tolerance(abs_tol=1e-8, rel_tol=1e-8, max_iter=_BUDGET)
    march = _border_march(rates, x, int(mode == "krein"), tol.max_iter, ratios)
    plain, previous = [], math.inf
    for k, (cp, (q, p), _, (eq, ep), (sq, sp)) in enumerate(march):
        scale = math.ldexp(1.0, int(eq - ep))
        value = complex(q / p) * scale
        plain.append(complex(sq / sp) * scale)
        inc = abs(value - previous)
        if k >= 3 and inc <= min(tol.bound(value), 1e-12 * abs(value)):
            return ConvergedLimit(value, cp, inc, True)
        previous = value  # carried: the rows rescaled to a far larger 2^e can be 0 / 0
    # The 1/n model halves the unextrapolated value's change per octave.
    d1, d2 = np.abs(np.diff(plain[-5::2])) if len(plain) >= 5 else (1.0, 0.0)
    fits = abs(d1 - 2 * d2) <= 0.2 * d2
    return ConvergedLimit(value, cp, inc, inc <= tol.bound(value) and fits)


def modified_entries_dual(
    rates: BirthDeathRates, x: complex, tol: Tolerance | None = None
) -> tuple[complex, complex]:
    """(B - D/alpha, A - C/alpha) through the dual-polynomial series
    -1 + (x/lambda_0) sum Ftilde_n(x) and (1/lambda_0) sum Fhat_n(x).

    Their partial sums are minus the even rows (P, Q) of the Stieltjes band,
    whose march (:func:`_border_march`) stops at the first checkpoint where
    both extrapolations are within ``_ROW_TOL``, or ``tol`` where tighter, of
    the ones before, within ``tol.max_iter`` terms. Raises
    :class:`ConvergenceError` naming the double range at the first checkpoint
    whose extrapolations pass it at their true scale, and naming the budget
    and the last row increment where the rows have not settled. The
    strongest cross-check of the direct Nevanlinna summation.
    """
    x = complex(x)
    _require_finite(x, "x")
    _require_verdict(rates, (INDET_S_INDET_H,))
    tol = tol or _SERIES_TOL
    bound = Tolerance(min(tol.abs_tol, _ROW_TOL.abs_tol), min(tol.rel_tol, _ROW_TOL.rel_tol))
    for _, limits, change, e, _ in _border_march(rates, x, 0, tol.max_iter, False):
        if (np.frexp(np.abs(limits))[1] + e).max() > 1024:  # past the double range at 2^e
            raise ConvergenceError(f"dual polynomial series leaves the double range at x = {x:.6g}")
        if (np.ldexp(change, e) <= bound.bound(np.ldexp(np.abs(limits), e))).all():
            break
    else:
        raise ConvergenceError(
            f"dual polynomial series did not stabilize within its {tol.max_iter}-term budget "
            f"(achieved {(change * np.ldexp(1.0, e)).max():.2e} at x = {x:.6g}); "
            "at large |x| it needs a larger max_iter"
        )
    q, p = limits * np.ldexp(1.0, e)
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
    the modified combination in the mu convention) inside ``window``. A scan
    brackets them; each bracket then runs Newton on the extrapolated series
    from its false-position point, with a step that leaves the bracket
    replaced by the bracket's (Illinois) false-position point. A bracket
    stops once its step or its width is within ``tol.bound(s)``, that is
    max(abs_tol, rel_tol |s|), and may take at most 8 derivative passes.
    Masses are 1/d with d = B'(s) D(s) - B(s) D'(s). Each series pass stops
    a point once what it reads there, computed at the last two
    extrapolations, agrees: the scan once |g| exceeds the change of
    g = pB + qD, a Newton pass once the step g/g' changes by at most
    ``tol.bound(s)``, and the mass pass once d changes by at most
    ``tol.bound(d)`` or every sum has settled as in
    :func:`nevanlinna_batch`. The scan and the mass pass read at most
    ``tol.max_iter`` terms, the Newton passes at most 16384 of them. The
    result is flagged ``normalized=False``: it is a window of an infinite
    discrete measure. Raises :class:`ValueError`
    when a window bound is not finite or the window holds no spectral point,
    and :class:`ConvergenceError` when a bracket has not settled within 8
    passes, a mass has not settled within ``tol.max_iter`` terms (naming its
    atom and the last checkpoint), the budget is below 181 terms, or a refined
    root gives a nonpositive mass (naming the brackets of those roots).
    """
    lo, hi = window
    _require_finite(window, "window bounds")
    _require_verdict(rates, (INDET_S_INDET_H,))
    tol = tol or _SERIES_TOL
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    p, q = _pencil(param, convention, lambda: alpha_limit(rates))
    xs = _default_grid(rates, window)

    def readings(sums, points):
        # g = pB + qD at the points and, from primed sums, g' and d = B'D - BD'.
        vals, dvals = _assemble(sums, points)
        g = (p * vals[1] + q * vals[3]).real
        if dvals is None:
            return g, None, None
        return g, (p * dvals[1] + q * dvals[3]).real, (dvals[1] * vals[3] - vals[1] * dvals[3]).real

    # Each pass stops a point once what it reads there agrees at the last two
    # extrapolations: the scan reads the sign of g, a Newton pass the step
    # g/g', and the mass pass d, to tol.bound(d), or every sum settled.
    def sign_known(sums, previous, points):
        g, g_prev = readings(sums, points)[0], readings(previous, points)[0]
        return np.abs(g) > np.abs(g - g_prev)

    def step_known(sums, previous, points):
        (g, dg, _), (g_prev, dg_prev, _) = readings(sums, points), readings(previous, points)
        with np.errstate(divide="ignore", invalid="ignore"):
            change = np.abs(g / dg - g_prev / dg_prev)
        return change <= tol.bound(points)

    def mass_known(sums, previous, points):
        # Where B'D and BD' cancel, the rounding of d can stay above the
        # bound to the cap while every sum has settled and the mass is
        # accurate, as at the Friedrichs atoms on (0.5, 21000) at c = 0 with
        # Tolerance(1e-13, 1e-13).
        d, d_prev = readings(sums, points)[2], readings(previous, points)[2]
        return (np.abs(d - d_prev) <= tol.bound(d)) | _every_sum_settled(sums, previous, tol)

    def g_pass(points: np.ndarray, settled, max_iter: int, derivs: bool):
        sums, _, _, _ = _nevanlinna_sums(rates, points, settled, max_iter, derivs=derivs)
        return readings(sums, points)

    scan = g_pass(xs, sign_known, tol.max_iter, False)[0]
    cross = np.flatnonzero(scan[:-1] * scan[1:] < 0)  # brackets [xs[cross], xs[cross + 1]]
    # Per bracket: its ends, their values, and which end the last pass moved.
    a, b, fa, fb = xs[cross], xs[cross + 1], scan[cross], scan[cross + 1]
    moved = np.zeros(cross.size)
    x = a - fa * (b - a) / (fb - fa)  # each bracket's false-position point
    active = np.arange(cross.size)
    for _ in range(_NEWTON_CAP):
        if not active.size:
            break
        i, xi = active, x[active]
        # Newton keeps to 16384 terms: past them a step test finer than the
        # rounding of the series holds at chance checkpoints, and Newton can
        # bounce between their readings instead of settling (ROADMAP item 4).
        g, dg, _ = g_pass(xi, step_known, min(tol.max_iter, _BUDGET), True)
        left = np.sign(g) == np.sign(fa[i])
        # Illinois: an end kept twice in a row has its value halved, so that
        # false position does not stall next to it.
        fa[i] = np.where(left, g, np.where(moved[i] < 0, 0.5 * fa[i], fa[i]))
        fb[i] = np.where(left, np.where(moved[i] > 0, 0.5 * fb[i], fb[i]), g)
        a[i] = np.where(left, xi, a[i])
        b[i] = np.where(left, b[i], xi)
        moved[i] = np.where(left, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / dg
        newton = xi - step
        bound = tol.bound(newton)
        # Newton where it stays in the bracket or moves less than the bound
        # (rounding can put such a step just past an end), false position
        # where it leaves.
        take = (np.abs(step) <= bound) | ((a[i] <= newton) & (newton <= b[i]))
        falsi = a[i] - fa[i] * (b[i] - a[i]) / (fb[i] - fa[i])
        x[i] = np.where(take, newton, falsi)
        step = x[i] - xi
        done = (np.abs(step) <= bound) | (b[i] - a[i] <= bound)
        active = active[~done]
    if active.size:
        # The step relative to |s| shows an abs_tol finer than the rounding
        # of the series at the root.
        k, last = active[0], step[~done][0]
        raise ConvergenceError(
            f"N-extremal root refinement did not settle within {_NEWTON_CAP} Newton passes "
            f"in bracket [{xs[cross[k]]:.6g},{xs[cross[k] + 1]:.6g}] "
            f"(last step {last:.2e}, {abs(last / x[k]):.1e} of |s|, requested abs_tol "
            f"{tol.abs_tol:.1e} / rel_tol {tol.rel_tol:.1e})"
        )

    zeros = xs[scan == 0.0]
    pts = np.concatenate([zeros, x])
    brackets = np.concatenate([np.stack([zeros, zeros], 1), np.stack([xs[cross], xs[cross + 1]], 1)])
    order = np.argsort(pts)
    order = order[(lo <= pts[order]) & (pts[order] <= hi)]
    if not order.size:
        raise ValueError(
            f"no spectral points found in window {window}; widen the window"
        )
    pts, brackets = pts[order], brackets[order]
    sums, _, previous, converged = _nevanlinna_sums(rates, pts, mass_known, tol.max_iter, True)
    d = readings(sums, pts)[2]
    if not converged.all():
        spread = np.abs(d - readings(previous, pts)[2]) / np.abs(d)
        raise ConvergenceError(
            f"N-extremal masses at {', '.join(f'{s:.10g}' for s in pts[~converged])} did not "
            f"settle within the {_ladder(tol.max_iter)[-1]}-term cap (reached {spread[~converged].max():.2e} "
            f"relative, requested abs_tol {tol.abs_tol:.1e} / rel_tol {tol.rel_tol:.1e})"
        )
    masses = 1.0 / d
    bad = ~(masses > 0)
    if bad.any():
        raise ConvergenceError(
            f"root refinement produced nonpositive masses near {pts[bad].tolist()}; "
            "offending brackets were "
            + ", ".join(f"[{a:.6g},{b:.6g}]" for a, b in brackets[bad])
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
