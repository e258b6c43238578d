"""Compare, bit for bit, what every IndetSeries and DetClosedForm call returns
in two source trees.

    python3 tools/compare_records.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]

PARENT_SRC and CHANGE_SRC are directories that hold a ``bdspec`` package
(the ``src`` of two checkouts). Each tree runs in its own interpreter, on
the calls that ``bench/workloads.py`` of this checkout builds for each seed:
the timed calls and the defect probes, one record each, with the oracle
checks left out. A record is exact: floats by their hex form, arrays by
dtype, shape and bytes, mpmath numbers by sign, mantissa and exponent, and
a raised exception by its type and text. Prints how many records differ and
which, and exits 1 if any does.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("IndetSeries", "DetClosedForm")


def canon(v) -> str:
    """An exact text form of a call's result."""
    import numpy as np

    if v is None or isinstance(v, (bool, str)):
        return repr(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, (complex, np.complexfloating)):
        return f"({complex(v).real.hex()}, {complex(v).imag.hex()})"
    if isinstance(v, np.ndarray):
        return f"array({v.dtype}, {v.shape}, {hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()})"
    for raw in ("_mpf_", "_mpc_"):
        if hasattr(v, raw):
            return f"{type(v).__name__}{getattr(v, raw)}"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{canon(k)}: {canon(v[k])}" for k in sorted(v, key=repr)) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(canon(x) for x in v) + "]"
    if dataclasses.is_dataclass(v):
        fields = ", ".join(f"{f.name}={canon(getattr(v, f.name))}" for f in dataclasses.fields(v))
        return f"{type(v).__name__}({fields})"
    raise TypeError(f"no exact form for {type(v).__name__}")


def dump(src: str, seeds: list[int]) -> dict[str, str]:
    """Key -> digest of the exact form of each call's result, in tree ``src``."""
    sys.path[:0] = [src, str(BENCH)]
    import bdspec
    import workloads

    out = {}
    for seed in seeds:
        for name in WORKLOADS:
            wl = getattr(workloads, name)(seed)
            for i, call in enumerate(wl.calls(wl.setup(bdspec))):
                try:
                    text = canon(call.fn())
                except Exception as exc:  # compared by text, as the result would be
                    text = f"raised {type(exc).__name__}: {exc}"
                key = f"{wl.name} seed {seed} #{i}: {call.label}"
                out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def run_tree(src: str, seeds: list[int]) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", src, "--seeds", *map(str, seeds)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the calls of {src} did not run:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="source tree of the parent")
    ap.add_argument("change", nargs="?", help="source tree of the change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--dump", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        print(json.dumps(dump(args.dump, args.seeds)))
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT_SRC and CHANGE_SRC are required")
    a, b = (run_tree(str(Path(s).resolve()), args.seeds) for s in (args.parent, args.change))
    differ = [k for k in a if a[k] != b.get(k)]
    only = sorted(set(a) ^ set(b))
    print(f"{len(a)} records in the parent, {len(b)} in the change; "
          f"{len(differ)} differ, {len(only)} in one tree only")
    for k in differ:
        print(f"differs: {k}")
    for k in only:
        print(f"one tree only: {k}")
    return 1 if differ or only else 0


if __name__ == "__main__":
    sys.exit(main())
