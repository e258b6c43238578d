"""The three seeded workloads: inputs, set-up, timed calls and their oracles.

Inputs come from ``random.Random(seed)`` so that nothing heavier than the
standard library is imported before set-up is timed. Every call carries an
oracle check that runs after the timed pass. A check returns the worst
error-to-tolerance ratio of the call, so a ratio above 1 is a miss and
``-log10(ratio)`` is the margin, in digits, inside the tolerance. Each
tolerance is the one of the test or acceptance criterion that pins the same
identity; ``tol`` names it at the call site.
"""
from __future__ import annotations

import cmath
import contextlib
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Frozen 50-digit references, as in tests/conftest.py.
K0_REF = 1.31102877714605990523242
K_HALF_REF = 1.85407467730137191843385
ALPHA_QUARTIC_REF = -8.2887663268797183585

# Known defects (ROADMAP items 3 and 5), by name. A call whose inputs lie where
# one of them shows names it in ``Call.defect``; such calls are run once per run
# as defect probes, apart from the timed passes, and must fail in one of the
# kinds of DEFECT_KINDS or pass. The timed passes hold only the other calls, and
# any failure among them makes the run incorrect.
DEFECTS = {
    "gauss-onset": "gauss_measure raises ValueError (non-positive masses) on DN and CN below a k^2 "
                   "that grows with n, and on the quartic family from n = 80",
    "series-stall": "the Nevanlinna series stalls short of 1e-11 at large |x| near the positive axis "
                    "(in_stall_region); at c = 0.25, x = 1e5+1e3i it reaches 4.5e-9",
    "cli-gauss-exit": "spectrum --mode gauss:120 exits 2, the input-error code, for a numerical failure",
}
# The failure kinds (``failure_kind``; a check that raises gives "oracle <name>")
# in which each defect shows. The series may stall in a call or in its oracle.
DEFECT_KINDS = {
    "gauss-onset": ("ValueError",),
    "series-stall": ("ConvergenceError", "oracle ConvergenceError"),
    "cli-gauss-exit": ("exit 2",),
}

# gauss_measure(DN or CN at k^2, n) may raise ValueError only for k^2 below
# these values. On a 0.0005 grid of k^2 over (0.1, 0.9) it raised for most k^2
# below the onset and for none above; each value is the largest failing k^2 plus
# 0.01. It never raised at n = 20, and raised at every k^2 at n = 120.
GAUSS_FAILS_BELOW = {
    ("DN", 60): 0.3585, ("CN", 60): 0.3995, ("DN", 100): 0.5435, ("CN", 100): 0.586,
    ("DN", 120): 1.0, ("CN", 120): 1.0,
}
QUARTIC_GAUSS_FAILS_FROM = 80

# Where the Nevanlinna series may stall, for every c in IndetSeries.FAMILIES.
# Stalls were found at |x| >= 1.03e4 and up to 4.05 degrees from the positive
# axis, none beyond, on grids of 10^3 <= |x| <= 10^5 by 0 to 12 degrees.
STALL_MIN_ABS = 5e3
STALL_MAX_DEG = 6.0


def in_stall_region(x: complex) -> bool:
    return abs(x) >= STALL_MIN_ABS and abs(math.degrees(cmath.phase(x))) <= STALL_MAX_DEG


class ExitCode(Exception):
    """A CLI process ended with a non-zero exit code."""

    def __init__(self, code: int):
        super().__init__(f"exit {code}")
        self.code = code


def failure_kind(exc: BaseException) -> str:
    return f"exit {exc.code}" if isinstance(exc, ExitCode) else type(exc).__name__


@dataclass
class Call:
    cls: str  # call class; its latency forms one class metric
    label: str  # stable name used in failure lists
    fn: Callable[[], object]
    check: Callable[[object], float]  # error-to-tolerance ratio of the result
    # the known defect whose region holds the inputs: a probe, not a timed call
    defect: str | None = None


def ratio(value, ref, tol: float, scale: float | None = None) -> float:
    """|value - ref| / (tol * scale); scale defaults to max(1, |ref|)."""
    s = max(1.0, abs(ref)) if scale is None else scale
    return abs(value - ref) / (tol * s)


def rel(value, ref, tol: float) -> float:
    return abs(value - ref) / (tol * abs(ref))


def _stratified(rnd: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw from each of n equal sub-intervals, shuffled."""
    w = (hi - lo) / n
    vals = [lo + (i + rnd.random()) * w for i in range(n)]
    rnd.shuffle(vals)
    return vals


def _plane_points(rnd: random.Random, n: int, lo_exp: float, hi_exp: float) -> list[complex]:
    """Points with log10|x| stratified over [lo_exp, hi_exp], cycling the quadrants."""
    mags = _stratified(rnd, n, lo_exp, hi_exp)
    out = []
    for i, e in enumerate(mags):
        theta = (i % 4 + rnd.random()) * (math.pi / 2)
        out.append(complex(10.0**e * math.cos(theta), 10.0**e * math.sin(theta)))
    return out


def _right_half_points(rnd: random.Random, n: int, stratify: bool = False) -> list[complex]:
    """Re x in (0.5, 3) and Im x in (-2, 2) away from 0, for S-fractions and -x^2.

    With ``stratify``, Re x is stratified over (0.5, 3), as the quadrature's cost
    grows as Re x falls.
    """
    res = _stratified(rnd, n, 0.5, 3.0) if stratify else [rnd.uniform(0.5, 3.0) for _ in range(n)]
    return [complex(re, rnd.uniform(0.1, 2.0) * (1 if i % 2 == 0 else -1)) for i, re in enumerate(res)]


# --------------------------------------------------------------- indet-series

class IndetSeries:
    """Quartic family, mu = 0: Nevanlinna series, border limits, N-extremal spectra."""

    name = "indet-series"
    FAMILIES = (0.0, 0.25, 0.5, 1.0)
    DEFECT = (0.25, complex(1e5, 1e3))  # ConvergenceError: 4.5e-9 against 1e-11

    def __init__(self, seed: int, quick: bool = False):
        rnd = random.Random(seed)
        # one point per family, one per quadrant, one per magnitude band
        pts = _plane_points(rnd, len(self.FAMILIES), 0.0, 5.0)
        self.points = list(zip(self.FAMILIES, pts))
        batch = _plane_points(rnd, 32 if quick else 1024, 0.0, 5.0)
        self.timed_batch = [x for x in batch if not in_stall_region(x)]
        self.region_batch = [x for x in batch if in_stall_region(x)]
        self.windows = (
            [(0.0, (-0.5, 3000.0))]
            if quick
            else [("alpha", (0.5, 21000.0)), (0.0, (-0.5, 11000.0))]
        )

    def setup(self, bs):
        st = {"bs": bs, "spec": bs.make_quartic_spec(), "rates": {}, "alpha": {}}
        for c in self.FAMILIES:
            r = bs.quartic_rates(c, 0.0)
            st["rates"][c] = r
            st["alpha"][c] = bs.alpha_limit(r)  # classifies the family first
        return st

    def calls(self, st) -> list[Call]:
        bs, spec = st["bs"], st["spec"]
        rates, alpha = st["rates"], st["alpha"]
        out = [
            Call(
                "const", "alpha_limit(quartic c=0) vs ALPHA_QUARTIC_REF",
                lambda: bs.alpha_limit(rates[0.0]),
                lambda a: ratio(a, ALPHA_QUARTIC_REF, 5e-11, 1.0),  # test_indet: abs 5e-11
            )
        ]

        @functools.cache
        def nv_of(c, x):
            return bs.nevanlinna_eval(rates[c], x)

        @functools.cache
        def closed_of(x):
            return bs.friedrichs_transform(spec, x), bs.krein_transform(spec, x)

        def stall_at(x):
            # the series, in the call or in its oracle, may stall only in the region
            return "series-stall" if in_stall_region(x) else None

        def point(c, x):
            a = alpha[c]

            def run():
                nv = bs.nevanlinna_eval(rates[c], x)
                return nv, [bs.nextremal_transform(nv, p) for p in (0.0, math.inf, a)]

            def check(res):
                nv, (t0, tinf, ta) = res
                worst = _det_ratio(nv)
                if not all(cmath.isfinite(t) for t in (t0, tinf, ta)):
                    return math.inf
                if c == 0.0:  # closed forms at c = 0; test_quartic: 1e-6
                    fr, kr = closed_of(x)
                    worst = max(worst, rel(ta, fr, 1e-6), rel(t0, kr, 1e-6))
                return worst

            return Call("point", f"nevanlinna_eval(quartic c={c}, x={x:.6g})", run, check, stall_at(x))

        for c, x in self.points:
            out.append(point(c, x))
        out.append(point(*self.DEFECT))

        def check_batch(vals):
            worst = max(_det_ratio(nv) for nv in vals)
            for nv in vals[:16]:  # Krein closed form = C/D (criterion 8); 1e-6
                worst = max(worst, rel(nv.C / nv.D, closed_of(complex(nv.x))[1], 1e-6))
            return worst

        # the batch stalls as a whole when one of its points does: its points in
        # the stall region form a batch of their own, a probe
        for pts, defect in ((self.timed_batch, None), (self.region_batch, "series-stall")):
            if pts:
                out.append(Call("batch", f"nevanlinna_batch(quartic c=0, {len(pts)} points)",
                                lambda pts=pts: bs.nevanlinna_batch(rates[0.0], pts), check_batch, defect))

        for c, x in self.points:
            a = alpha[c]
            r = rates[c]

            def fr_check(res, c=c, x=x, a=a):  # criterion 8, relative 1e-6
                nv = nv_of(c, x)
                return rel(res.value, (nv.A * a - nv.C) / (nv.B * a - nv.D), 1e-6) if res.converged else math.inf

            def kr_check(res, c=c, x=x):
                nv = nv_of(c, x)
                return rel(res.value, nv.C / nv.D, 1e-6) if res.converged else math.inf

            def dual_check(res, c=c, x=x, a=a):  # criterion 7, relative 1e-8
                nv = nv_of(c, x)
                bt, at = res
                return max(rel(bt, nv.B - nv.D / a, 1e-8), rel(at, nv.A - nv.C / a, 1e-8))

            tag = f"quartic c={c}, x={x:.6g}"
            out += [
                Call("border", f"markov_like_limit(friedrichs, {tag})",
                     lambda r=r, x=x: bs.markov_like_limit(r, x, "friedrichs"), fr_check, stall_at(x)),
                Call("border", f"markov_like_limit(krein, {tag})",
                     lambda r=r, x=x: bs.markov_like_limit(r, x, "krein"), kr_check, stall_at(x)),
                Call("border", f"modified_entries_dual({tag})",
                     lambda r=r, x=x: bs.modified_entries_dual(r, x), dual_check, stall_at(x)),
            ]

        windows = self.windows

        def spectra():
            return [
                bs.nextremal_measure(rates[0.0], alpha[0.0] if p == "alpha" else p, window=w)
                for p, w in windows
            ]

        def check_spectra(measures):
            return max(
                _criterion9_ratio(m, bs.border_measure(spec, "friedrichs" if p == "alpha" else "krein", 8), w)
                for (p, w), m in zip(windows, measures)
            )

        label = " + ".join(f"nextremal_measure({p}, window={w})" for p, w in windows)
        out.append(Call("spectrum", label, spectra, check_spectra))
        return out


def _criterion9_ratio(m, ref, window) -> float:
    """N-extremal atoms against the closed-form border atoms inside ``window``."""
    keep = (ref.support >= window[0]) & (ref.support <= window[1])
    if m.support.size != int(keep.sum()):
        return math.inf
    worst = 0.0
    for s, t, ms, mt in zip(m.support, ref.support[keep], m.mass, ref.mass[keep]):
        # criterion 9: supports rtol 1e-7 (the atom at 0: abs 1e-10), masses 1e-5
        worst = max(worst, abs(s - t) / (1e-10 if t == 0 else 1e-7 * t), rel(ms, mt, 1e-5))
    return worst


def _det_ratio(nv) -> float:
    # AD - BC = 1 relative to max(1, |AD|); criterion 6 tolerance 1e-9
    return abs(nv.A * nv.D - nv.B * nv.C - 1.0) / (1e-9 * max(1.0, abs(nv.A * nv.D)))


# ------------------------------------------------------------ det-closed-form

class DetClosedForm:
    """DN, CN and c > 0 families plus the quartic closed forms: no Nevanlinna series."""

    name = "det-closed-form"
    DEFECT_K2 = 0.3  # gauss_measure fails from n = 60 on DN and CN
    # the gauss_measure onsets below 0.9, between 0.1 and 0.9, and 0.75 to halve the widest stratum
    K2_EDGES = (0.1, *sorted(v for v in GAUSS_FAILS_BELOW.values() if v < 0.9), 0.75, 0.9)
    GAUSS_N = (20, 60, 100, 120)
    QUARTIC_GAUSS_N = (20, 60, 80)

    def __init__(self, seed: int, quick: bool = False):
        rnd = random.Random(seed)
        # one k^2 from each stratum between K2_EDGES, so that every seed has
        # the same number of gauss_measure calls on each side of each onset
        edges = self.K2_EDGES[-2:] if quick else self.K2_EDGES
        self.k2s = [self.DEFECT_K2] + [rnd.uniform(lo, hi) for lo, hi in zip(edges, edges[1:])]
        self.xs = {k2: [x] for k2, x in zip(self.k2s, _right_half_points(rnd, len(self.k2s), stratify=True))}
        # The cost of generalized_ratio jumps fourfold between neighbouring k^2
        # (its node count doubles until two estimates agree), so a seeded k^2
        # would move the pass time from seed to seed more than the machine
        # does: each family's c > 0 companion takes its k^2 from a fixed grid,
        # and the seed picks c.
        n = len(self.k2s)
        self.gen_k2 = {k2: 0.1 + (i + 0.5) * 0.8 / n for i, k2 in enumerate(self.k2s)}
        self.cs = dict(zip(self.k2s, _stratified(rnd, n, 0.1, 1.5)))
        self.zs = {k2: complex(rnd.uniform(-2.0, 2.0), rnd.uniform(0.2, 2.0)) for k2 in self.k2s}
        self.quartic_xs = _plane_points(rnd, 2 if quick else 4, 0.0, 3.0)
        self.gauss_n = self.GAUSS_N[:2] if quick else self.GAUSS_N
        self.iter_x = complex(rnd.uniform(0.5, 2.0), rnd.uniform(0.5, 2.0))

    def setup(self, bs):
        st = {"bs": bs, "spec": bs.make_quartic_spec(), "fam": {}}
        for k2 in self.k2s:
            dn, cn = bs.stieltjes_dn_rates(k2), bs.stieltjes_cn_rates(k2)
            gc = bs.generalized_c_rates(self.gen_k2[k2], self.cs[k2])
            for r in (dn, cn, gc):
                bs.classify(r)
            st["fam"][k2] = {"ctx": bs.make_context(k2), "dn": dn, "cn": cn, "gc": gc,
                             "gctx": bs.make_context(self.gen_k2[k2]), "jc": bs.jacobi_from_rates(dn, 200)}
        st["quartic"] = bs.quartic_rates(0.0, 0.0)
        bs.classify(st["quartic"])
        return st

    def calls(self, st) -> list[Call]:
        bs, spec = st["bs"], st["spec"]
        out = [
            Call("const", "lemniscate_K0 vs K0_REF", bs.lemniscate_K0,
                 lambda v: ratio(v, K0_REF, 1e-12, 1.0)),  # test_elliptic: abs 1e-12
            Call("const", "make_context(0.5).K vs K_HALF_REF",
                 lambda: bs.make_context(0.5).K, lambda v: rel(v, K_HALF_REF, 1e-13)),
        ]
        for k2 in self.k2s:
            f = st["fam"][k2]
            ctx, dn, cn, gc, jc, gctx = f["ctx"], f["dn"], f["cn"], f["gc"], f["jc"], f["gctx"]
            c = self.cs[k2]
            for x in self.xs[k2]:
                z = -x * x
                tag = f"k2={k2:.4f}, x={x:.4g}"
                ld = functools.cache(lambda ctx=ctx, x=x: bs.laplace_dn(ctx, x))
                lc = functools.cache(lambda ctx=ctx, x=x: _laplace_cn(bs, ctx, x))
                sf = functools.cache(lambda dn=dn, x=x: bs.s_fraction(dn, 400, x))
                meas = functools.cache(lambda ctx=ctx: bs.dn_spectral_measure(ctx, 80))
                sf_odd = functools.cache(lambda dn=dn, x=x: bs.s_fraction(dn, 2 * 200 - 1, x))
                sg = functools.cache(lambda gc=gc, x=x: bs.s_fraction(gc, 400, x))
                # criterion 1 (abs 1e-8): S-fraction = Laplace transform; the
                # S-fraction at -x^2 contracts to the J-fraction (test, rel 1e-10)
                out += [
                    Call("fraction", f"s_fraction(DN {tag})",
                         lambda dn=dn, x=x: bs.s_fraction(dn, 400, x),
                         lambda v, ld=ld: ratio(v, ld(), 1e-8, 1.0)),
                    Call("fraction", f"s_fraction(CN {tag})",
                         lambda cn=cn, x=x: bs.s_fraction(cn, 400, x),
                         lambda v, lc=lc: ratio(v, lc(), 1e-8, 1.0)),
                    Call("fraction", f"j_fraction(DN {tag}, depth 200)",
                         lambda jc=jc, z=z: bs.j_fraction(jc, 200, z),
                         lambda v, x=x, sf_odd=sf_odd: rel(-x * v, sf_odd(), 1e-10)),
                    Call("fraction", f"markov_limit(DN {tag})",
                         lambda dn=dn, z=z: bs.markov_limit(dn, z),
                         lambda v, x=x, ld=ld: ratio(-x * v.value, ld(), 1e-8, 1.0) if v.converged else math.inf),
                    Call("fraction", f"markov_limit(CN {tag})",
                         lambda cn=cn, z=z: bs.markov_limit(cn, z),
                         lambda v, x=x, lc=lc: ratio(-x * v.value, lc(), 1e-8, 1.0) if v.converged else math.inf),
                    # criterion 3 (abs 1e-8): Laplace = S-fraction = measure transform
                    Call("quad", f"laplace_dn({tag})",
                         lambda ctx=ctx, x=x: bs.laplace_dn(ctx, x),
                         lambda v, x=x, z=z, sf=sf, meas=meas: max(
                             ratio(v, sf(), 1e-8, 1.0),
                             ratio(v, -x * bs.measure_stieltjes(meas(), z), 1e-8, 1.0))),
                    # criterion 5 (abs 1e-7): quadrature ratio = S-fraction
                    Call("quad", f"generalized_ratio(k2={self.gen_k2[k2]:.4f}, x={x:.4g}, c={c:.4f})",
                         lambda gctx=gctx, c=c, x=x: bs.generalized_ratio(gctx, c, x),
                         lambda v, sg=sg: ratio(v, sg(), 1e-7, 1.0)),
                ]
        q = st["quartic"]
        tol = bs.Tolerance(abs_tol=1e-9, rel_tol=1e-9, max_iter=20000)
        for x in self.quartic_xs:
            for mode, fn in (("friedrichs", bs.friedrichs_transform), ("krein", bs.krein_transform)):
                series = functools.cache(lambda mode=mode, x=x: bs.markov_like_limit(q, x, mode, tol).value)
                # test_quartic: closed form vs series, abs 1e-6
                out.append(Call("quad", f"{fn.__name__}(x={x:.4g})",
                                lambda fn=fn, x=x: fn(spec, x),
                                lambda v, series=series: ratio(v, series(), 1e-6, 1.0)))
        for k2 in self.k2s:
            f = st["fam"][k2]
            for fam in ("dn", "cn"):
                for n in self.gauss_n:
                    fails = k2 < GAUSS_FAILS_BELOW.get((fam.upper(), n), 0.0)
                    out.append(self._gauss(bs, f[fam], n, self.zs[k2], f"{fam.upper()} k2={k2:.4f}", fails))
        for n in self.QUARTIC_GAUSS_N:
            out.append(self._gauss(bs, q, n, self.iter_x, "quartic c=0", n >= QUARTIC_GAUSS_FAILS_FROM))

        dn = st["fam"][self.k2s[-1]]["dn"]
        ns = [50, 200]
        x = self.iter_x
        out += [
            # the 40-digit recurrence agrees with the double one (benchmark tol 1e-10)
            Call("extended", f"markov_iterates(DN k2={self.k2s[-1]:.4f}, x={x:.4g}, dps=40)",
                 lambda: bs.markov_iterates(dn, x, ns, dps=40),
                 lambda v: max(rel(complex(a), b, 1e-10) for a, b in zip(v, bs.markov_iterates(dn, x, ns)))),
            # test_quartic: every growth-law deviation below 0.01
            Call("extended", f"asymptotic_checks(x={x:.4g}, n=600)",
                 lambda: bs.asymptotic_checks(spec, x, 600),
                 lambda rep: max(rep.deviations.values()) / 0.01),
        ]
        return out

    @staticmethod
    def _gauss(bs, rates, n, z, tag, fails: bool) -> Call:
        def check(m):
            # test_contfrac: transform = J-fraction (abs 1e-10), total mass 1 (abs 1e-10)
            jc = bs.jacobi_from_rates(rates, n)
            return max(ratio(bs.measure_stieltjes(m, z), bs.j_fraction(jc, n, z), 1e-10, 1.0),
                       abs(m.total_mass - 1.0) / 1e-10)

        return Call("gauss", f"gauss_measure({tag}, n={n})", lambda: bs.gauss_measure(rates, n), check,
                    "gauss-onset" if fails else None)


def _laplace_cn(bs, ctx, x: complex) -> complex:
    """Laplace transform of cn: the CN S-fraction's closed form (period 4K)."""
    period = 4.0 * ctx.K
    tol = bs.Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=4000)
    num = bs.integrate(lambda u: bs.jacobi_scd(ctx, u)[1] * cmath.exp(-x * u), 0.0, period, tol)
    return num / (1.0 - cmath.exp(-x * period))


# ------------------------------------------------------------------ cli-cold

CLI_MAIN = "import sys; from bdspec.cli import main; sys.exit(main())"


class CliCold:
    """Fresh `bdspec` processes, one at a time; every pass repeats every command."""

    name = "cli-cold"

    def __init__(self, seed: int, quick: bool = False):
        rnd = random.Random(seed)
        self.c = rnd.choice(IndetSeries.FAMILIES)
        self.k2 = rnd.uniform(0.1, 0.9)
        self.x_dn = _right_half_points(rnd, 1)[0]
        self.x_q = _plane_points(rnd, 1, 0.0, 3.0)[0]
        q = ["--family", "quartic", "--c", _num(self.c), "--mu", "0"]
        q0 = ["--family", "quartic", "--c", "0", "--mu", "0"]
        xq = f"--x={_num(self.x_q.real)},{_num(self.x_q.imag)}"
        self.commands = {
            "classify": ["classify", *q],
            "transform markov": ["transform", "--family", "stieltjes-dn", "--k2", _num(self.k2),
                                 f"--x={_num(self.x_dn.real)},{_num(self.x_dn.imag)}", "--mode", "markov"],
            "transform krein": ["transform", *q, xq, "--mode", "krein"],
            "transform nevanlinna:0": ["transform", *q, xq, "--mode", "nevanlinna:0"],
            "spectrum border:friedrichs": ["spectrum", *q0, "--mode", "border:friedrichs", "--out", "border.csv"],
            "spectrum gauss:60": ["spectrum", *q0, "--mode", "gauss:60", "--out", "gauss60.json"],
            "spectrum gauss:120": ["spectrum", *q0, "--mode", "gauss:120", "--out", "gauss120.json"],
            "spectrum nextremal:0": ["spectrum", *q0, "--mode", "nextremal:0", "--window=-0.5,3000",
                                     "--out", "nextremal.json"],
        }
        if quick:
            self.commands = {k: v for k, v in self.commands.items()
                             if k in ("classify", "transform markov", "transform krein", "spectrum border:friedrichs",
                                      "spectrum gauss:60", "spectrum gauss:120")}

    def setup(self, bs):
        import bdspec.cli  # noqa: F401  (the CLI module is part of what a user loads)

        q = bs.quartic_rates(self.c, 0.0)
        bs.classify(q)
        return {"bs": bs, "spec": bs.make_quartic_spec(), "q": q, "q0": bs.quartic_rates(0.0, 0.0),
                "ctx": bs.make_context(self.k2)}

    def calls(self, st, workdir: Path, src: Path, in_process: bool = False) -> list[Call]:
        """One call per command; every later pass must reproduce the first pass byte for byte."""
        oracles = self._oracles(st)
        out = []
        for name, argv in self.commands.items():
            argv = [str(workdir / a) if a.endswith((".csv", ".json")) else a for a in argv]
            outfile = next((Path(a) for a in argv if a.startswith(str(workdir))), None)
            run = (lambda argv=argv: _cli_in_process(argv)) if in_process else (
                lambda argv=argv: _cli_process(argv, src, workdir))

            def fn(run=run, outfile=outfile):
                code, stdout = run()
                body = b""
                if outfile is not None and outfile.exists():
                    body = outfile.read_bytes()
                    outfile.unlink()
                if code != 0:  # documented contract: 0 on success
                    raise ExitCode(code)
                return stdout, body

            first: dict = {}

            def check(res, name=name, first=first):
                if first.setdefault("out", res) != res:
                    return math.inf  # reports must be byte-identical from run to run
                stdout, body = res
                return oracles[name](json.loads(stdout), body)

            # gauss:120 asks the quartic family for n >= QUARTIC_GAUSS_FAILS_FROM
            defect = "cli-gauss-exit" if name == "spectrum gauss:120" else None
            out.append(Call("cli", f"bdspec {name}", fn, check, defect))
        return out

    def _oracles(self, st):
        bs, spec = st["bs"], st["spec"]
        xq, xd = self.x_q, self.x_dn
        nv = functools.cache(lambda: bs.nevanlinna_eval(st["q"], xq))
        krein = functools.cache(lambda: bs.markov_like_limit(
            st["q"], xq, "krein", bs.Tolerance(abs_tol=1e-9, rel_tol=1e-9, max_iter=20000)).value)
        det = functools.cache(lambda: bs.classify(st["q"], 4000))
        dn_meas = functools.cache(lambda: bs.dn_spectral_measure(st["ctx"], 80))

        def value(rep):
            v = rep["outputs"]["value"]
            return complex(v["re"], v["im"])

        def classify(rep, _):
            d = det()
            if rep["outputs"]["verdict"] != d.verdict:
                return math.inf
            return max(rel(a, b, 1e-12) for a, b in zip(rep["outputs"]["series_values"], d.series_values))

        def markov(rep, _):  # criterion 3: the dn measure's transform, abs 1e-8
            return ratio(value(rep), bs.measure_stieltjes(dn_meas(), xd), 1e-8, 1.0)

        def krein_mode(rep, _):  # criterion 8: Krein limit = C/D, relative 1e-6
            return rel(value(rep), nv().C / nv().D, 1e-6)

        def nevanlinna0(rep, _):  # the same identity read the other way
            return rel(value(rep), krein(), 1e-6)

        def border(rep, body):  # 17-digit CSV round trip of the closed form
            m = bs.DiscreteMeasure.from_csv(body.decode(), normalized=True)
            ref = bs.border_measure(spec, "friedrichs", 60)
            if m.support.size != ref.support.size:
                return math.inf
            return max(max(rel(a, b, 1e-15) for a, b in zip(m.support, ref.support)),
                       max(rel(a, b, 1e-15) for a, b in zip(m.mass, ref.mass)))

        def gauss(n):
            def check(rep, body):  # test_contfrac: transform = J-fraction, mass 1
                m = bs.DiscreteMeasure.from_json(body.decode())
                jc = bs.jacobi_from_rates(st["q0"], n)
                z = complex(0.5, 1.0)
                return max(ratio(bs.measure_stieltjes(m, z), bs.j_fraction(jc, n, z), 1e-10, 1.0),
                           abs(rep["outputs"]["total_mass"] - 1.0) / 1e-10)
            return check

        def nextremal(rep, body):  # criterion 9 against the Krein closed form
            m = bs.DiscreteMeasure.from_json(body.decode())
            return _criterion9_ratio(m, bs.border_measure(spec, "krein", 8), (-0.5, 3000.0))

        return {
            "classify": classify,
            "transform markov": markov,
            "transform krein": krein_mode,
            "transform nevanlinna:0": nevanlinna0,
            "spectrum border:friedrichs": border,
            "spectrum gauss:60": gauss(60),
            "spectrum gauss:120": gauss(120),
            "spectrum nextremal:0": nextremal,
        }


def _num(v: float) -> str:
    return repr(float(v))


def cli_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BDSPEC_TOL", "BDSPEC_EXTENDED")}
    env["PYTHONPATH"] = str(src)
    return env


def _cli_process(argv: list[str], src: Path, workdir: Path) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, *argv],
        cwd=workdir, env=cli_env(src), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120,
    )
    return proc.returncode, proc.stdout


def _cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    from bdspec.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue().encode()


WORKLOADS = {w.name: w for w in (IndetSeries, DetClosedForm, CliCold)}
