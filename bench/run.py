"""bdspec benchmark: seeded workloads, oracle checks, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload indet-series --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --report --seed 1          # every workload, one table
    python3 bench/run.py --quick --workload cli-cold --seed 1 --seconds 1 --trace 0

Load is a closed loop with one client: one call at a time, each awaited.
``--trace 0`` repeats passes over the workload's call list for ``--seconds``
and prints the end-to-end metrics. ``--trace 1`` runs a warm-up, an untraced
and a traced pass of every workload and prints the per-layer metrics, each
named after the workload it was measured on. The last line of standard output is
one JSON object; the lines before it, starting with ``#``, are for people.
Full details (class latencies, failed calls) go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DEFECT_KINDS, DEFECTS, WORKLOADS, cli_env, failure_kind  # noqa: E402

SETUP_PROBES = 6
IMPORTTIME_PROBES = 3
SPEED_EVERY_S = 0.2  # run an in-process speed kernel between calls at most this often
SPEED_REF_S = 0.005  # speed_kernel's time at the reference speed; a scale only
ARRAY_REF_S = 0.01  # array_kernel's time at the reference speed; a scale only
CHILD_EVERY_S = 3.0  # cli-cold: run the child kernel between calls at most this often
CHILD_REF_S = 0.8  # child_kernel's time at the reference speed; a scale only

# Latency classes: call class -> (metric name, unit).
CLASSES = {
    "point": ("point_ms", "ms"),
    "batch": ("batch_pts_per_s", "1/s"),
    "border": ("border_ms", "ms"),
    "spectrum": ("spectrum_s", "s"),
    "fraction": ("fraction_ms", "ms"),
    "quad": ("quad_ms", "ms"),
    "gauss": ("gauss_ms", "ms"),
    "extended": ("extended_ms", "ms"),
    "cli": ("cli_p50_s", "s"),
}

# Per-layer metrics of the traced run, by the workload they are measured on.
LAYER_METRICS = {
    "indet-series": [
        "recurrence.tabulate.calls", "recurrence.tabulate.indices", "recurrence.tabulate.self_s",
        "indet.nevanlinna_batch.calls", "indet.nevanlinna_batch.points", "indet.nevanlinna_batch.terms",
        "indet.nevanlinna_batch.self_s", "indet.nevanlinna_batch.steps_per_s",
        "indet.classify.calls", "indet.classify.self_s", "indet.alpha_limit.self_s",
        "numerics.richardson_sum.calls", "numerics.richardson_sum.terms", "numerics.richardson_sum.self_s",
        "indet.markov_like_limit.terms", "indet.markov_like_limit.self_s",
        "indet.modified_entries_dual.self_s", "indet.nextremal_measure.atoms", "indet.nextremal_measure.self_s",
        "acc.point.digits_min", "acc.batch.digits_min", "acc.border.digits_min", "acc.spectrum.digits_min",
        "trace.wall_ratio",
    ],
    "det-closed-form": [
        "recurrence.tabulate.calls", "recurrence.tabulate.indices", "recurrence.tabulate.self_s",
        "recurrence.eval_pq.calls", "recurrence.eval_pq.steps", "recurrence.eval_pq.self_s",
        "recurrence.jacobi_from_rates.self_s",
        "numerics.integrate.calls", "numerics.integrate.evals", "numerics.integrate.self_s",
        "elliptic.jacobi_scd.calls", "elliptic.delta4.calls", "elliptic.laplace_dn.self_s",
        "det_markov.generalized_ratio.self_s", "quartic.friedrichs_transform.self_s",
        "quartic.krein_transform.self_s",
        "numerics.tridiag_eigen.calls", "numerics.tridiag_eigen.size", "numerics.tridiag_eigen.self_s",
        "contfrac.gauss_measure.calls", "contfrac.gauss_measure.self_s",
        "det_markov.markov_limit.terms", "det_markov.markov_limit.self_s",
        "contfrac.s_fraction.self_s", "contfrac.j_fraction.self_s",
        "det_markov.markov_iterates.self_s", "quartic.asymptotic_checks.self_s",
        "acc.fraction.digits_min", "acc.quad.digits_min", "acc.gauss.digits_min",
        "trace.wall_ratio",
    ],
    "cli-cold": [
        "indet.classify.calls", "indet.classify.self_s",
        "indet.markov_like_limit.terms", "indet.markov_like_limit.self_s",
        "contfrac.DiscreteMeasure.to_json.bytes", "contfrac.DiscreteMeasure.to_json.self_s",
        "contfrac.DiscreteMeasure.to_csv.bytes", "contfrac.DiscreteMeasure.to_csv.self_s",
        "cli.classify.self_s", "cli.transform.self_s", "cli.spectrum.self_s",
        "cli.import.numpy_s", "cli.import.scipy_linalg_s", "cli.import.scipy_special_s",
        "cli.import.bdspec_self_s",
        "trace.wall_ratio",
    ],
}

# Modules whose cumulative -X importtime entry gives a cli.import metric.
IMPORT_PARTS = {"numpy": "numpy_s", "scipy.linalg": "scipy_linalg_s", "scipy.special": "scipy_special_s"}


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its last component."""
    q = name.rsplit(".", 1)[1]
    if q == "steps_per_s":
        return "1/s", "higher"
    if q == "digits_min":
        return "digits", "higher"
    if q == "wall_ratio":
        return "ratio", "lower"
    if q.endswith("_s"):
        return "s", "lower"
    return "count", "higher" if q in ("points", "atoms") else "lower"


# ------------------------------------------------------------------ statistics

def summary(samples: list[float]) -> dict:
    """Median, plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    out = {"n": len(samples)}
    if not samples:
        return out
    s = sorted(samples)
    out["median"] = statistics.median(s)
    for p in (99.9, 99.0, 90.0):
        if len(s) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = s[min(len(s) - 1, math.ceil(p / 100 * len(s)) - 1)]
            break
    return out


def margin_digits(r: float) -> float:
    """Digits of margin inside the tolerance; 16 when the error is zero."""
    return 16.0 if r <= 0 else min(16.0, -math.log10(r))


# ---------------------------------------------------------------------- passes

def time_calls(calls, between=None) -> list[tuple]:
    """Run each call in order, one at a time; (call, result, exception, seconds, start).

    ``between`` runs after each call, outside the timed region.
    """
    out = []
    for call in calls:
        t0 = time.perf_counter()
        try:
            res, exc = call.fn(), None
        except Exception as e:  # a failing call is a measured outcome
            res, exc = None, e
        out.append((call, res, exc, time.perf_counter() - t0, t0))
        if between is not None:
            between()
    return out


def check_calls(timed: list[tuple], records: list[dict]) -> float:
    """Check every result against its oracle; returns the pass wall time."""
    for call, res, exc, dt, _ in timed:
        rec = {"cls": call.cls, "label": call.label, "seconds": dt}
        if exc is not None:
            rec.update(ok=False, kind=failure_kind(exc), detail=str(exc)[:160])
        else:
            kind = "oracle"
            try:
                r = call.check(res)
            except Exception as e:  # an oracle that cannot be formed is a miss
                r, rec["detail"] = math.inf, f"{type(e).__name__}: {e}"[:160]
                kind = f"oracle {type(e).__name__}"
            rec.update(ratio=r, ok=r <= 1.0)
            if not rec["ok"]:
                rec["kind"] = kind
        rec["defect"] = call.defect
        if call.defect and not rec["ok"]:
            rec["documented"] = rec["kind"] in DEFECT_KINDS[call.defect]
        records.append(rec)
    return sum(t[3] for t in timed)


def class_stats(records: list[dict], batch_points: int | None) -> dict:
    out = {}
    for cls, (metric, unit) in CLASSES.items():
        recs = [r for r in records if r["cls"] == cls]
        if not recs:
            continue
        ok = [r["seconds"] for r in recs if r["ok"]]
        if cls == "batch":
            samples = [batch_points / s for s in ok]
        else:
            samples = [s * (1e3 if unit == "ms" else 1.0) for s in ok]
        out[metric] = {"unit": unit, "failed": len(recs) - len(ok), **summary(samples)}
        digits = [margin_digits(r["ratio"]) for r in recs if r["ok"]]
        if digits:
            out[metric]["digits_min"] = min(digits)
    return out


def failures(records: list[dict]) -> list[dict]:
    seen: dict[str, dict] = {}
    for r in records:
        if not r["ok"]:
            f = seen.setdefault(r["label"], {"label": r["label"], "kind": r["kind"], "count": 0,
                                             "detail": r.get("detail", "")})
            f["count"] += 1
    return list(seen.values())


def probe_outcome(rec: dict) -> str:
    if rec["ok"]:
        return "passes"
    return f"fails {'as documented' if rec['documented'] else 'OTHERWISE'}: {rec['kind']}"


def run_probes(probes) -> list[dict]:
    """Each defect probe once, untimed: its outcome, by name."""
    recs: list[dict] = []
    check_calls(time_calls(probes), recs)
    return [{"label": r["label"], "defect": r["defect"], "failed": not r["ok"],
             "documented": r["ok"] or r["documented"], "outcome": probe_outcome(r),
             "detail": r.get("detail", "")} for r in recs]


# ---------------------------------------------------------------- child probes

def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=cli_env(SRC), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)


def speed_kernel() -> float:
    """Seconds for fixed work like bdspec's batch recurrences: small complex
    arrays stepped through a table. The benchmark owns this code, so a change
    to bdspec never moves it; only the machine's speed does."""
    import numpy as np

    t0 = time.perf_counter()
    xs = np.linspace(0.1, 2.0, 256) + 0.5j
    a, b, acc = np.ones(256, complex), xs.copy(), np.zeros(256, complex)
    table = [float(k * k) for k in range(2000)]
    for k in range(600):
        a, b = b, ((xs - table[k] * 1e-6) * b - 0.5 * a) / 1.5
        acc += 0.01 * b
    return time.perf_counter() - t0


_ARRAY = []


def array_kernel() -> float:
    """Seconds for fixed work like bdspec's wide Nevanlinna scans: passes over
    complex arrays of 400000 entries, more than a core's caches hold."""
    import numpy as np

    if not _ARRAY:
        _ARRAY.append(np.linspace(0.0, 1.0, 400000) + 0.3j)
    t0 = time.perf_counter()
    x = _ARRAY[0]
    for _ in range(6):
        x = x * 0.999 + 0.001j
    return time.perf_counter() - t0


CHILD_KERNEL = (
    "import numpy as np, scipy.linalg, scipy.special\n"
    "xs = np.linspace(0.1, 2.0, 256) + 0.5j\n"
    "a, b = np.ones(256, complex), xs.copy()\n"
    "for k in range(4000):\n"
    "    a, b = b, ((xs - k * 1e-6) * b - 0.5 * a) / 1.5\n"
)


def child_kernel() -> float:
    """Seconds for a fresh interpreter that imports numpy and scipy, as the
    bdspec CLI does, and steps small complex arrays. bdspec never runs in it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_KERNEL], cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120, check=True)
    return time.perf_counter() - t0


class SpeedProbe:
    """The machine's speed over time, from a kernel run between calls.

    The shared 2-core machine has slow spells of seconds to minutes in which
    every call takes up to 1.8 times as long. Times are reported at a
    reference speed: multiplied by ``ref`` over the kernel's median time
    within ``window`` seconds of the call. Raw times stay in the details.
    Each workload uses the kernel whose times follow its own calls best (see
    KERNELS): how much a slow spell slows a call depends on the kind of work.
    """

    def __init__(self, kernel, every: float, ref: float, window: float, burst: int):
        self.kernel, self.every, self.ref, self.window, self.burst = kernel, every, ref, window, burst
        kernel()  # the first run pays first-use costs
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.maybe()

    def maybe(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.every:
            self.samples.append((time.perf_counter(), statistics.median(self.kernel() for _ in range(self.burst))))

    def factor(self, start: float, end: float) -> float:
        near = [d for t, d in self.samples if start - self.window <= t <= end + self.window]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return self.ref / statistics.median(near)


# workload -> SpeedProbe(kernel, every, ref, window, burst). In-process
# kernels run three times per sample, as one 5-10 ms run is itself noisy. On
# six runs of each workload, the spread (q3 - q1) / median of wall_s was:
# indet-series 0.29 with speed_kernel, 0.05 with array_kernel, 0.12 raw;
# det-closed-form 0.06 with speed_kernel, 0.13 with array_kernel, 0.17 raw;
# cli-cold 0.06 with child_kernel, 0.15 raw, and speed_kernel's
# times did not follow a CLI process's at all (correlation -0.1).
KERNELS = {
    "indet-series": (array_kernel, SPEED_EVERY_S, ARRAY_REF_S, 1.0, 3),
    "det-closed-form": (speed_kernel, SPEED_EVERY_S, SPEED_REF_S, 1.0, 3),
    "cli-cold": (child_kernel, CHILD_EVERY_S, CHILD_REF_S, CHILD_EVERY_S, 1),
}


class SetupProbes:
    """import_s and setup_s from fresh interpreters, spread evenly over the run.

    The machine's speed drifts over seconds, so probes taken back to back
    share one speed; spreading them lets the median see several.
    """

    def __init__(self, workload: str, seed: int, quick: bool, n: int, seconds: float):
        self.args = [str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        if quick:
            self.args.append("--quick")
        self.due = [(i + 0.5) * seconds / n for i in range(n)]
        self.start = time.perf_counter()
        self.imports: list[float] = []
        self.setups: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def maybe(self) -> None:
        while len(self.setups) < len(self.due) and time.perf_counter() - self.start >= self.due[len(self.setups)]:
            self.probe()

    def finish(self) -> None:
        while len(self.setups) < len(self.due):
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        proc = _python(self.args)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-400:]}")
        rec = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        self.imports.append(rec["import_s"])
        self.setups.append(rec["setup_s"])
        self.spans.append((start, time.perf_counter()))


def setup_probe(workload: str, seed: int, quick: bool) -> None:
    wl = WORKLOADS[workload](seed, quick)
    t0 = time.perf_counter()
    import bdspec

    t1 = time.perf_counter()
    wl.setup(bdspec)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def importtime_probe() -> dict[str, float]:
    """cli.import.* from `python -X importtime -c "import bdspec.cli"`."""
    vals: dict[str, list[float]] = {v: [] for v in (*IMPORT_PARTS.values(), "bdspec_self_s")}
    for _ in range(IMPORTTIME_PROBES):
        proc = _python(["-X", "importtime", "-c", "import bdspec.cli"])
        own = 0.0
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line.split(":", 1)[1].split("|")
            try:
                self_us, cum_us = float(parts[0]), float(parts[1])
            except ValueError:
                continue  # the header line
            mod = parts[2].strip()
            if mod in IMPORT_PARTS:
                vals[IMPORT_PARTS[mod]].append(cum_us * 1e-6)
            if mod == "bdspec" or mod.startswith("bdspec."):
                own += self_us * 1e-6
        vals["bdspec_self_s"].append(own)
    return {"cli.import." + k: statistics.median(v) for k, v in vals.items() if v}


# ---------------------------------------------------------------------- modes

def build_calls(wl, st, workdir: Path, in_process: bool) -> tuple[list, list]:
    """(timed calls, defect probes): the calls whose inputs lie in a known defect's region are probes."""
    calls = wl.calls(st, workdir, SRC, in_process=in_process) if wl.name == "cli-cold" else wl.calls(st)
    return [c for c in calls if c.defect is None], [c for c in calls if c.defect]


def batch_points(wl) -> int | None:
    return len(wl.timed_batch) if hasattr(wl, "timed_batch") else None


def measure(workload: str, seed: int, seconds: float, quick: bool, workdir: Path) -> dict:
    """The untraced run: passes for ``seconds``, set-up probes in between."""
    import bdspec

    wl = WORKLOADS[workload](seed, quick)
    calls, defect_probes = build_calls(wl, wl.setup(bdspec), workdir, in_process=False)
    probes = SetupProbes(workload, seed, quick, 1 if quick else SETUP_PROBES, seconds)
    speed = SpeedProbe(*KERNELS[workload])

    def between():
        probes.maybe()
        speed.maybe()

    records: list[dict] = []
    n = len(calls)
    spans: list[tuple[float, float]] = []  # (start, seconds) of every timed call, in call-list order
    while True:
        # the calls in turn, so that the run ends with a part of a pass rather than idle time
        timed = time_calls([calls[len(spans) % n]], between=between)
        check_calls(timed, records)
        spans.append((timed[0][4], timed[0][3]))
        # at least two passes, so that cli-cold compares reports between runs;
        # then no call that would end after ``seconds``, going by its last time
        nxt = spans[len(spans) - n][1] if len(spans) >= n else 0.0
        if len(spans) >= 2 * n and time.perf_counter() - probes.start + nxt > seconds:
            break
    probes.finish()
    speed.maybe()  # a sample after the last set-up probe
    factors = [speed.factor(a, b) for a, b in probes.spans]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-cold":
        usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    defects = run_probes(defect_probes)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    raw = [[dt for _, dt in spans[i::n]] for i in range(n)]
    scaled = [[dt * speed.factor(t0, t0 + dt) for t0, dt in spans[i::n]] for i in range(n)]
    # one pass at the reference speed: each call's median over the run
    wall = sum(statistics.median(ts) for ts in scaled)
    metrics = {
        "setup_s": (statistics.median(s * f for s, f in zip(probes.setups, factors)), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
    }
    return {
        "workload": workload, "seed": seed, "measured_s": time.perf_counter() - probes.start,
        "attempted": attempted, "failed": failed, "passes": len(spans) / n, "calls_per_pass": n,
        "correct": failed == 0 and all(d["documented"] for d in defects),
        "metrics": metrics,
        "samples": {"setup_s": probes.setups, "import_s": probes.imports, "wall_s": raw[-1]},
        "import_s": statistics.median(i * f for i, f in zip(probes.imports, factors)),
        "raw": {"setup_s": statistics.median(probes.setups), "import_s": statistics.median(probes.imports),
                "wall_s": sum(statistics.median(ts) for ts in raw)},
        "speed_factor": statistics.median(speed.ref / d for _, d in speed.samples),
        "call_seconds": raw,
        "call_spans": spans,
        "speed_samples": speed.samples,
        "classes": class_stats(records, batch_points(wl)),
        "failures": failures(records),
        "defects": defects,
    }


def trace_all(seed: int, quick: bool, workdir: Path) -> dict:
    """A warm-up, an untraced and a traced pass of every workload; per-layer metrics."""
    import bdspec
    import bdspec.cli  # noqa: F401  (traced like every other module)
    from layers import Tracer

    metrics: dict[str, tuple[float, str]] = {}
    records: list[dict] = []
    for name, cls in WORKLOADS.items():
        wl = cls(seed, quick)
        recs: list[dict] = []
        # the first pass pays lazy imports and first-use costs; the second is the reference
        check_calls(time_calls(build_calls(wl, wl.setup(bdspec), workdir, True)[0]), recs)
        wall_u = check_calls(time_calls(build_calls(wl, wl.setup(bdspec), workdir, True)[0]), recs)
        tracer = Tracer()
        tracer.install()
        try:  # set-up and the pass are traced; the oracle checks are not
            timed = time_calls(build_calls(wl, wl.setup(bdspec), workdir, True)[0])
        finally:
            tracer.uninstall()
        wall_t = check_calls(timed, recs)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")

        layer = tracer.metrics()
        if "indet.nevanlinna_batch.steps" in layer:
            layer["indet.nevanlinna_batch.steps_per_s"] = (
                layer["indet.nevanlinna_batch.steps"] / layer["indet.nevanlinna_batch.self_s"])
        for r in recs:
            if r["ok"]:
                key = f"acc.{r['cls']}.digits_min"
                layer[key] = min(layer.get(key, 16.0), margin_digits(r["ratio"]))
        layer["trace.wall_ratio"] = wall_t / wall_u
        if name == "cli-cold":
            layer.update(importtime_probe())
        missing = [m for m in LAYER_METRICS[name] if m not in layer]
        if missing:  # a layer no span reached, such as a function no longer called
            raise RuntimeError(f"{name}: no measurement for per-layer metrics {missing}")
        for m in LAYER_METRICS[name]:
            metrics[f"{name}.{m}"] = (float(layer[m]), layer_unit(m)[0])
        records += recs
    return {
        "seed": seed, "attempted": len(records), "failed": sum(not r["ok"] for r in records),
        "correct": all(r["ok"] for r in records),
        "metrics": metrics, "failures": failures(records),
    }


# --------------------------------------------------------------------- output

def emit(result: dict, detail_path: Path) -> None:
    """Print the human summary, write the details, and print the JSON line last."""
    for name, (value, unit) in result["metrics"].items():
        n = len(result.get("samples", {}).get(name, [])) or ""
        print(f"# {name:<58} {value:>14.6g} {unit:<7} {f'n={n}' if n else ''}")
    if "import_s" in result:
        print(f"# {'import_s (not gated)':<58} {result['import_s']:>14.6g} s       "
              f"n={len(result['samples']['import_s'])}")
        raw = result["raw"]
        print(f"# raw, at the machine's speed (factor {result['speed_factor']:.3f}): setup_s {raw['setup_s']:.6g} s,"
              f" import_s {raw['import_s']:.6g} s, wall_s {raw['wall_s']:.6g} s")
    for metric, st in result.get("classes", {}).items():
        high = next((f"{k} {v:.6g}" for k, v in st.items() if k.startswith("p") and k[1:2].isdigit()), "")
        med = f"{st['median']:.6g}" if "median" in st else "-"
        print(f"# class {metric:<16} median {med:>10} {st['unit']:<4} n={st['n']:<4} {high:<16}"
              f" failed={st['failed']}")
    for f in result["failures"]:
        print(f"# failed x{f['count']} [UNEXPECTED: {f['kind']}] {f['label']}")
    for d in result.get("defects", []):
        print(f"# defect probe {d['defect']} [{d['outcome']}] {d['label']}")
    for name in sorted({d["defect"] for d in result.get("defects", [])}):
        print(f"# known defect {name}: {DEFECTS[name]}")
    detail_path.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


REPORT_METRICS = [  # end-to-end and class metrics, in report order
    "setup_s", "wall_s", "fail_frac", "peak_rss_mb", "point_ms", "batch_pts_per_s", "border_ms",
    "spectrum_s", "fraction_ms", "quad_ms", "gauss_ms", "cli_p50_s", "import_s",
]


def report(seed: int, seconds: float, quick: bool) -> int:
    """Run every workload in its own process and print one table of all metrics."""
    rows, fails, ok = [], [], True
    for name in WORKLOADS:
        args = [str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"] + (["--quick"] if quick else [])
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
        if proc.returncode != 0:
            print(f"# {name}: benchmark run failed with exit code {proc.returncode}")
            return 1
        res = json.loads((OUT / f"result-{name}-seed{seed}-trace0.json").read_text())
        ok = ok and res["correct"]
        m = dict(res["metrics"])
        # failed calls in one pass over every call, the defect probes included
        per_pass = res["calls_per_pass"] + len(res["defects"])
        failed = res["failed"] / res["passes"] + sum(d["failed"] for d in res["defects"])
        m["fail_frac"] = [failed / per_pass, "ratio"]
        m["import_s"] = [res["import_s"], "s"]
        n = {k: len(v) for k, v in res["samples"].items()}
        n["fail_frac"] = per_pass
        for metric in REPORT_METRICS:
            if metric in res["classes"]:
                st = res["classes"][metric]
                high = next((f"{k}={v:.6g}" for k, v in st.items() if k.startswith("p") and k[1:2].isdigit()),
                            "")
                val = st.get("median", float("nan"))
                rows.append((name, metric, val, st["unit"], st["n"], high))
            elif metric in m:
                rows.append((name, metric, m[metric][0], m[metric][1], n.get(metric, 1), ""))
        fails += [(name, f"x{f['count']} [UNEXPECTED: {f['kind']}] {f['label']}") for f in res["failures"]]
        fails += [(name, f"defect probe {d['defect']} [{d['outcome']}] {d['label']}")
                  for d in res["defects"] if d["failed"]]
    print(f"{'workload':<16} {'metric':<16} {'value':>12} {'unit':<6} {'n':>5}  high percentile")
    for name, metric, val, unit, cnt, high in rows:
        print(f"{name:<16} {metric:<16} {val:>12.6g} {unit:<6} {cnt:>5}  {high}")
    print("failed calls:")
    for name, line in fails:
        print(f"  {name}: {line}")
    print(f"oracle checks: {'all results correct or known defects' if ok else 'UNEXPECTED FAILURES'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small inputs, one set-up probe (smoke test)")
    ap.add_argument("--report", action="store_true", help="run every workload and print one table")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "bdspec" / "__init__.py").is_file():
        print(f"error: no bdspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.quick)
        return 0
    OUT.mkdir(exist_ok=True)
    if args.report:
        return report(args.seed, args.seconds, args.quick)
    if args.workload is None:
        ap.error("--workload is required")
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow inside gauss_measure
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            result = trace_all(args.seed, args.quick, Path(tmp))
        else:
            result = measure(args.workload, args.seed, args.seconds, args.quick, Path(tmp))
    import bdspec

    if Path(bdspec.__file__).resolve().parent != (SRC / "bdspec").resolve():
        print(f"error: bdspec was imported from {bdspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    emit(result, OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
