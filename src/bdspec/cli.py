"""Command-line surface: classify, transform, spectrum.

Reports are deterministic JSON: floats rendered with 17 significant digits,
keys sorted, no timestamps. Exit codes: 0 success, 2 input error (a point on
a pole of the transform included), 3 mode vs classification conflict, 4 I/O
error, 5 numerical failure (a series or a quadrature did not reach its
tolerance, or an N-extremal mass came out nonpositive).
"""
from __future__ import annotations

import argparse
import ast
import math
import sys

import numpy as np

from . import __version__
from .contfrac import PoleError, gauss_measure
from .det_markov import dn_spectral_measure, markov_limit
from .elliptic import make_context
from .indet import (
    DeterminacyError,
    alpha_limit,
    classify,
    markov_like_limit,
    nevanlinna_eval,
    nextremal_measure,
    nextremal_transform,
)
from .numerics import ConvergenceError, QuadratureError, Tolerance
from .quartic import border_measure, make_quartic_spec, quartic_rates
from .recurrence import (
    BirthDeathRates,
    generalized_c_rates,
    stieltjes_cn_rates,
    stieltjes_dn_rates,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODE = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- expressions

_ALPHABET = frozenset("0123456789.eEn+-*/^()<>= ")
_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.true_divide,
        ast.Pow: np.float_power, ast.USub: np.negative, ast.Gt: np.greater, ast.Lt: np.less,
        ast.GtE: np.greater_equal, ast.LtE: np.less_equal, ast.Eq: np.equal}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Name, ast.Constant, ast.Load)


def _value(node, n: np.ndarray):
    if isinstance(node, ast.BinOp):
        return _OPS[type(node.op)](_value(node.left, n), _value(node.right, n))
    if isinstance(node, ast.UnaryOp):
        return np.negative(_value(node.operand, n))
    if isinstance(node, ast.Compare):
        return _OPS[type(node.ops[0])](_value(node.left, n), _value(node.comparators[0], n)) * 1.0
    return n if isinstance(node, ast.Name) else node.value


def compile_rate_expr(text: str):
    """Compile a rate expression (grammar in the README) to an array closed form.

    Comparisons give 1.0 or 0.0; other operations follow numpy (1/0 is inf)."""
    text = " ".join(text.split())
    invalid = ValueError(f"not a rate expression: {text!r}")
    if not set(text) <= _ALPHABET or "**" in text:
        raise invalid
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError:
        raise invalid from None
    except (MemoryError, RecursionError):  # the parser's report of nesting past its stack
        raise ValueError("rate expression nested too deeply") from None
    for node in ast.walk(tree):
        if (not isinstance(node, (*_NODES, *_OPS)) or isinstance(node, ast.Name) and node.id != "n"
                or isinstance(node, ast.Constant) and type(node.value) not in (int, float)
                or isinstance(node, ast.Compare) and len(node.ops) != 1):
            raise invalid
        if isinstance(node, ast.Constant):  # through str, an int past the float range is inf
            node.value = float(str(node.value))

    def rate(n):
        try:
            return _value(tree.body, np.asarray(n, dtype=float))
        except RecursionError:
            raise ValueError("rate expression nested too deeply") from None

    return rate


# ---------------------------------------------------------------- rate builder

def build_rates(args) -> BirthDeathRates:
    family = args.family
    if family is None:
        family = "custom" if (args.lam is not None or args.mu is not None) else None
    if family is None:
        raise ValueError("specify --family or custom --lambda/--mu expressions")
    if family == "stieltjes-dn":
        return stieltjes_dn_rates(_require_float(args.k2, "--k2"))
    if family == "stieltjes-cn":
        return stieltjes_cn_rates(_require_float(args.k2, "--k2"))
    if family == "generalized-c":
        return generalized_c_rates(_require_float(args.k2, "--k2"), _require_float(args.c, "--c"))
    if family == "quartic":
        c = float(args.c) if args.c is not None else 0.0
        mu = float(args.mu) if args.mu is not None else 0.0
        return quartic_rates(c, mu)
    # argparse's choices leave "custom" as the one other family
    if args.lam is None or args.mu is None:
        raise ValueError("custom rates need both --lambda and --mu")
    return BirthDeathRates(compile_rate_expr(args.lam), compile_rate_expr(args.mu))


def _require_float(value, flag: str) -> float:
    if value is None:
        raise ValueError(f"{flag} is required for this family")
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{flag} must be a number, got {value!r}") from None


def _parse_pair(text: str, flag: str, form: str) -> tuple[float, float]:
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError:
        raise ValueError(f"{flag} must be '{form}', got {text!r}") from None


def _mode_param(mode: str) -> float:
    """PARAM of a 'nevanlinna:PARAM' or 'nextremal:PARAM' mode; inf or oo is infinity."""
    text = mode.split(":", 1)[1]
    try:
        return math.inf if text == "oo" else float(text)
    except ValueError:
        raise ValueError(f"PARAM of --mode must be a number, inf or oo, got {text!r}") from None


# ---------------------------------------------------------------- reporting

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        if math.isnan(v):
            return '"nan"'
        return format(v, ".17g")
    if isinstance(v, complex):
        return f'{{"re": {_fmt(v.real)}, "im": {_fmt(v.imag)}}}'
    if isinstance(v, str):
        import json

        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(item) for item in v) + "]"
    if isinstance(v, dict):
        items = sorted(v.items())
        return "{" + ", ".join(f"{_fmt(str(k))}: {_fmt(val)}" for k, val in items) + "}"
    raise TypeError(f"cannot serialize {type(v)}")


def emit_report(command: str, inputs: dict, outputs: dict, diagnostics: dict) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    sys.stdout.write(_fmt(report) + "\n")


def _tolerance_from(args) -> Tolerance:
    t = float(args.tol) if args.tol is not None else 1e-10
    return Tolerance(abs_tol=t, rel_tol=t, max_iter=args.max_iter)


def _echo_inputs(args) -> dict:
    keys = ("family", "k2", "c", "mu", "lam", "x", "mode", "nmax", "tol")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k if k != "lam" else "lambda"] = v
    return out


# ---------------------------------------------------------------- commands

def cmd_classify(args) -> int:
    rates = build_rates(args)
    det = classify(rates, nmax=args.nmax)
    emit_report(
        "classify",
        _echo_inputs(args),
        {
            "verdict": det.verdict,
            "confident": det.confident,
            "series_values": list(det.series_values),
            "tail_estimates": list(det.tail_estimates),
        },
        {"nmax": det.nmax},
    )
    return EXIT_OK


def cmd_transform(args) -> int:
    rates = build_rates(args)
    x = complex(*_parse_pair(args.x, "--x", "re,im"))
    tol = _tolerance_from(args)
    mode = args.mode
    if mode in ("markov", "friedrichs", "krein"):
        res = (markov_limit(rates, x, tol) if mode == "markov"
               else markov_like_limit(rates, x, mode, tol))
        if not res.converged:
            raise ConvergenceError(
                f"{mode} limit did not reach its tolerance (terms_used {res.terms_used}, "
                f"last_increment {res.last_increment:.2e})"
            )
        value, terms = res.value, res.terms_used
        extra = {"last_increment": res.last_increment}
    elif mode.startswith("nevanlinna:"):
        param = _mode_param(mode)
        nv = nevanlinna_eval(rates, x, tol)
        alpha = alpha_limit(rates) if args.convention == "mu" else None
        value = nextremal_transform(nv, param, convention=args.convention, alpha=alpha)
        terms = nv.terms_used
        extra = {"det_defect": nv.det_defect}
    else:
        raise ValueError(f"unknown mode {args.mode!r}")
    emit_report(
        "transform",
        _echo_inputs(args),
        {"value": complex(value), "converged": True},  # an unsettled limit raised above
        {"terms_used": int(terms), **extra},
    )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    rates = build_rates(args)
    tol = _tolerance_from(args)
    mode = args.mode
    if mode.startswith("gauss:"):
        n = int(mode.split(":", 1)[1])
        measure = gauss_measure(rates, n)
    elif mode == "dn-measure":
        if rates.family != "StieltjesDN":
            raise CliError("dn-measure requires --family stieltjes-dn", EXIT_MODE)
        ctx = make_context(rates.params["k2"])
        measure = dn_spectral_measure(ctx, nmax=args.nmax)
    elif mode.startswith("border:"):
        kind = mode.split(":", 1)[1]
        if rates.family != "Quartic" or rates.params.get("c") or rates.params.get("mu"):
            raise CliError("border measures exist for --family quartic --c 0 --mu 0", EXIT_MODE)
        measure = border_measure(make_quartic_spec(), kind, nmax=min(args.nmax, 60))
    elif mode.startswith("nextremal:"):
        param = _mode_param(mode)
        window = _parse_pair(args.window, "--window", "lo,hi")
        measure = nextremal_measure(
            rates, param, convention=args.convention, window=window, tol=tol
        )
    else:
        raise ValueError(f"unknown spectrum mode {args.mode!r}")

    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.out.endswith(".csv") else "json"
    payload = measure.to_csv() if fmt == "csv" else measure.to_json() + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc
    emit_report(
        "spectrum",
        _echo_inputs(args),
        {
            "atoms": int(measure.support.size),
            "total_mass": float(measure.total_mass),
            "normalized": measure.normalized,
            "out": args.out,
            "format": fmt,
        },
        {},
    )
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def _add_rate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=[
        "stieltjes-dn", "stieltjes-cn", "generalized-c", "quartic", "custom"
    ])
    p.add_argument("--k2")
    p.add_argument("--c")
    p.add_argument("--mu", help="quartic mu parameter, or custom mu_n expression")
    p.add_argument("--lambda", dest="lam", help="custom lambda_n expression")
    p.add_argument("--nmax", type=int, default=4000)
    p.add_argument("--tol", default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000,
                   help="term budget of every series and march in every mode (default %(default)s)")
    p.add_argument("--convention", choices=["lambda", "mu"], default="lambda")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bdspec",
        description="Spectral measures of birth-death orthogonal polynomial systems",
    )
    ap.add_argument("--version", action="version", version=f"bdspec {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="determinacy classification of a rate family")
    _add_rate_args(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("transform", help="evaluate a Stieltjes transform")
    _add_rate_args(p)
    p.add_argument("--x", required=True, help="evaluation point as 're,im'")
    p.add_argument(
        "--mode",
        required=True,
        help="markov | friedrichs | krein | nevanlinna:PARAM (PARAM may be inf)",
    )
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("spectrum", help="extract a discrete spectrum to JSON/CSV")
    _add_rate_args(p)
    p.add_argument(
        "--mode",
        required=True,
        help="gauss:N | dn-measure | border:friedrichs | border:krein | nextremal:PARAM",
    )
    p.add_argument(
        "--window",
        default="0,100",
        help="real window 'lo,hi' for nextremal (use --window=-1,50 for negative lo)",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.set_defaults(fn=cmd_spectrum)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input, matching the input-error contract
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except DeterminacyError as exc:  # a ValueError, so caught before that clause
        sys.stderr.write(f"error: {args.mode} mode: {exc}\n")
        return EXIT_MODE
    except (ValueError, ZeroDivisionError, PoleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except (ConvergenceError, QuadratureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
