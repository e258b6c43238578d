"""Command-line surface: classify, transform, spectrum.

Reports are deterministic JSON: floats rendered with 17 significant digits,
keys sorted, no timestamps. Exit codes: 0 success, 2 input error, 3 mode vs
classification conflict, 4 I/O error, 5 numerical failure (a series or a
quadrature did not reach its tolerance).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .contfrac import DiscreteMeasure
from .det_markov import dn_spectral_measure, generalized_ratio, markov_iterates, markov_limit
from .elliptic import make_context
from .indet import (
    DET_S_INDET_H,
    INDET_S_INDET_H,
    alpha_limit,
    classify,
    markov_like_limit,
    nevanlinna_eval,
    nextremal_measure,
    nextremal_transform,
)
from .contfrac import gauss_measure
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

# Two-character operators first, so that the parser tries them before ">" and "<".
_COMPARE_OPS = {
    ">=": np.greater_equal, "<=": np.less_equal, "==": np.equal, ">": np.greater, "<": np.less,
}


class _ExprParser:
    """Minimal arithmetic grammar: + - * / ^, comparisons, variable n, literals.

    Comparisons evaluate to 1.0 / 0.0 so rate cutoffs like "1*(n>0)" stay
    expressible without a function vocabulary.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._comparison()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at column {self.pos}: {self.text!r}")
        return node

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _match(self, tok: str) -> bool:
        self._skip_ws()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def _comparison(self):
        left = self._additive()
        self._skip_ws()
        for op in _COMPARE_OPS:
            if self._match(op):
                right = self._additive()
                return ("cmp", op, left, right)
        return left

    def _additive(self):
        node = self._term()
        while True:
            if self._match("+"):
                node = ("add", node, self._term())
            elif self._peek() == "-" and not self.text.startswith("->", self.pos):
                self.pos += 1
                node = ("sub", node, self._term())
            else:
                return node

    def _term(self):
        node = self._unary()
        while True:
            if self._match("*"):
                node = ("mul", node, self._unary())
            elif self._match("/"):
                node = ("div", node, self._unary())
            else:
                return node

    def _unary(self):
        if self._match("-"):
            return ("neg", self._unary())
        return self._power()

    def _power(self):
        base = self._atom()
        if self._match("^"):
            return ("pow", base, self._unary())
        return base

    def _atom(self):
        self._skip_ws()
        if self._match("("):
            node = self._comparison()
            if not self._match(")"):
                raise ValueError("unbalanced parenthesis")
            return node
        ch = self._peek()
        if ch == "n":
            self.pos += 1
            return ("var",)
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"
            or (self.text[self.pos] in "+-" and self.pos > start
                and self.text[self.pos - 1] in "eE")
        ):
            self.pos += 1
        if self.pos == start:
            raise ValueError(f"unexpected character at column {start}: {self.text!r}")
        return ("num", float(self.text[start:self.pos]))


_BINARY_OPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.true_divide,
    "pow": np.float_power,
}


def _expr_eval(node, n: np.ndarray):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return n
    if kind == "neg":
        return np.negative(_expr_eval(node[1], n))
    if kind == "cmp":
        return _COMPARE_OPS[node[1]](_expr_eval(node[2], n), _expr_eval(node[3], n)) * 1.0
    return _BINARY_OPS[kind](_expr_eval(node[1], n), _expr_eval(node[2], n))


def compile_rate_expr(text: str):
    """Compile a rate expression to an array closed form, validating the grammar.

    The callable takes an index or an array of indices and evaluates with
    numpy semantics: division by zero gives inf or nan, a negative base to a
    fractional power nan, and comparisons 1.0 or 0.0.
    """
    tree = _ExprParser(text).parse()
    return lambda n: _expr_eval(tree, np.asarray(n, dtype=float))


# ---------------------------------------------------------------- rate builder

def build_rates(args) -> BirthDeathRates:
    family = args.family
    if family is None:
        family = "custom" if (args.lam is not None or args.mu is not None) else None
    if family is None:
        raise CliError("specify --family or custom --lambda/--mu expressions", EXIT_INPUT)
    try:
        if family == "stieltjes-dn":
            return stieltjes_dn_rates(_require_float(args.k2, "--k2"))
        if family == "stieltjes-cn":
            return stieltjes_cn_rates(_require_float(args.k2, "--k2"))
        if family == "generalized-c":
            return generalized_c_rates(
                _require_float(args.k2, "--k2"), _require_float(args.c, "--c")
            )
        if family == "quartic":
            c = float(args.c) if args.c is not None else 0.0
            mu = float(args.mu) if args.mu is not None else 0.0
            return quartic_rates(c, mu)
        if family == "custom":
            if args.lam is None or args.mu is None:
                raise ValueError("custom rates need both --lambda and --mu")
            return BirthDeathRates(compile_rate_expr(args.lam), compile_rate_expr(args.mu))
    except CliError:
        raise
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INPUT) from exc
    raise CliError(f"unknown family {family!r}", EXIT_INPUT)


def _require_float(value, flag: str) -> float:
    if value is None:
        raise CliError(f"{flag} is required for this family", EXIT_INPUT)
    try:
        return float(value)
    except ValueError as exc:
        raise CliError(f"{flag} must be a number, got {value!r}", EXIT_INPUT) from exc


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise CliError(f"--x must be 're,im', got {text!r}", EXIT_INPUT) from exc


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
    tol = args.tol if args.tol is not None else os.environ.get("BDSPEC_TOL")
    t = float(tol) if tol is not None else 1e-10
    return Tolerance(abs_tol=t, rel_tol=t, max_iter=args.max_iter)


def _extended_enabled() -> bool:
    return os.environ.get("BDSPEC_EXTENDED", "").strip().lower() in ("1", "true", "yes", "on")


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
    x = _parse_complex(args.x)
    tol = _tolerance_from(args)
    mode = args.mode
    verdict = classify(rates, nmax=max(2000, min(args.nmax, 8000))).verdict
    if mode == "markov":
        if verdict != "DET_H":
            raise CliError(
                f"markov mode needs a determinate family, classification is {verdict}",
                EXIT_MODE,
            )
        res = markov_limit(rates, x, tol)
        value, terms, converged = res.value, res.terms_used, res.converged
        if converged and _extended_enabled():
            # re-evaluate the stopping iterate in 40-digit arithmetic to
            # strip double-rounding noise from the reported value
            value = complex(markov_iterates(rates, x, [terms], dps=40)[0])
        extra = {"last_increment": res.last_increment}
    elif mode in ("friedrichs", "krein"):
        allowed = (INDET_S_INDET_H, DET_S_INDET_H) if mode == "friedrichs" else (INDET_S_INDET_H,)
        if verdict not in allowed:
            raise CliError(
                f"{mode} mode needs an indeterminate Stieltjes family, "
                f"classification is {verdict}",
                EXIT_MODE,
            )
        res = markov_like_limit(rates, x, mode, tol)
        value, terms, converged = res.value, res.terms_used, res.converged
        extra = {"last_increment": res.last_increment}
    elif mode.startswith("nevanlinna:"):
        if verdict != INDET_S_INDET_H:
            raise CliError(
                f"nevanlinna mode needs an indet S family, classification is {verdict}",
                EXIT_MODE,
            )
        param_s = mode.split(":", 1)[1]
        param = math.inf if param_s in ("inf", "oo") else float(param_s)
        nv = nevanlinna_eval(rates, x, tol)
        alpha = alpha_limit(rates) if args.convention == "mu" else None
        value = nextremal_transform(nv, param, convention=args.convention, alpha=alpha)
        terms, converged = nv.terms_used, True
        extra = {"det_defect": nv.det_defect}
    else:
        raise CliError(f"unknown mode {args.mode!r}", EXIT_INPUT)
    emit_report(
        "transform",
        _echo_inputs(args),
        {"value": complex(value), "converged": bool(converged)},
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
        verdict = classify(rates, nmax=2000).verdict
        if verdict != INDET_S_INDET_H:
            raise CliError(
                f"nextremal spectra need an indet S family, classification is {verdict}",
                EXIT_MODE,
            )
        param_s = mode.split(":", 1)[1]
        param = math.inf if param_s in ("inf", "oo") else float(param_s)
        window = tuple(float(v) for v in args.window.split(","))
        measure = nextremal_measure(
            rates, param, convention=args.convention, window=window, tol=tol
        )
    else:
        raise CliError(f"unknown spectrum mode {args.mode!r}", EXIT_INPUT)

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
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
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
    except (ValueError, ZeroDivisionError) as exc:
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
