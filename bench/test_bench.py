"""Smoke test of the benchmark's quick mode: python -m pytest bench -q"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("indet-series", "det-closed-form", "cli-cold")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = last_json(run("--quick", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_quick_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = last_json(run("--quick", "--workload", "cli-cold", "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert res["metrics"][m["name"]]["value"] > 0, m["name"]


class FailingBdspec:
    """Stands in for bdspec: gauss_measure raises as it does past its onset."""

    @staticmethod
    def gauss_measure(rates, n):
        raise ValueError("non-positive mass")


def test_known_defects_follow_inputs():
    sys.path.insert(0, str(BENCH))
    import run as bench_run
    import workloads

    for fails, want in ((True, "gauss-onset"), (False, None)):
        call = workloads.DetClosedForm._gauss(FailingBdspec, None, 60, 1j, "DN k2=0.3000", fails)
        assert call.defect == want
        recs = []
        bench_run.check_calls(bench_run.time_calls([call]), recs)
        assert recs[0]["kind"] == "ValueError" and recs[0]["defect"] == want
    probe = workloads.DetClosedForm._gauss(FailingBdspec, None, 60, 1j, "DN k2=0.3000", True)
    assert bench_run.run_probes([probe])[0]["outcome"] == "fails as documented: ValueError"
    assert workloads.in_stall_region(workloads.IndetSeries.DEFECT[1])
    assert not workloads.in_stall_region(complex(1e5, 2e4))
    assert not workloads.in_stall_region(complex(4e3, 1.0))


def test_probes_leave_the_timed_passes():
    sys.path.insert(0, str(BENCH))
    import workloads

    wl = workloads.IndetSeries(6)
    assert wl.region_batch and len(wl.timed_batch) + len(wl.region_batch) == 1024
    assert not any(workloads.in_stall_region(x) for x in wl.timed_batch)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
