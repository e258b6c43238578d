import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdspec import (
    DiscreteMeasure,
    dn_spectral_measure,
    krein_transform,
    make_context,
    measure_stieltjes,
)
from bdspec import cli, indet
from bdspec.cli import compile_rate_expr, main


Q0 = ["--family", "quartic", "--c", "0", "--mu", "0"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpressions:
    def test_arithmetic(self):
        f = compile_rate_expr("2*n^2 + 3*n - 1")
        assert f(3) == 2 * 9 + 9 - 1

    def test_comparison_indicator(self):
        f = compile_rate_expr("1*(n>0)")
        assert f(0) == 0.0
        assert f(5) == 1.0

    def test_nested(self):
        f = compile_rate_expr("(n+1)^2 / (2*(n+2))")
        assert f(2) == pytest.approx(9 / 8)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            compile_rate_expr("n +")
        with pytest.raises(ValueError):
            compile_rate_expr("import os")


_N = np.arange(6.0)


@pytest.mark.parametrize("text, expected", [
    ("-2^2", -4.0),
    ("2^-1", 0.5),
    ("2^3^2", 512.0),
    ("1*(n>0)", (_N > 0) * 1.0),
    ("n>=1", (_N >= 1) * 1.0),
    ("(n+1)^2/(2*(n+2))", (_N + 1) ** 2 / (2 * (_N + 2))),
    ("n**2", None),
    ("+n", None),
    ("1<n<3", None),
    ("n//2", None),
    ("n<<1", None),
    ("0x10", None),
    ("1_000", None),
    ("1j", None),
    ("n.e", None),
    ("n(1)", None),
    ("import os", None),
])
def test_expression_grammar(text, expected):
    # The language of rate expressions: values where it accepts, ValueError
    # (exit 2 on the command line) where it does not.
    if expected is None:
        with pytest.raises(ValueError):
            compile_rate_expr(text)(_N)
    else:
        np.testing.assert_array_equal(
            np.broadcast_to(compile_rate_expr(text)(_N), _N.shape), expected
        )


class TestClassifyCommand:
    def test_quartic(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--family", "quartic", "--c", "0", "--mu", "0"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["verdict"] == "INDET_S_INDET_H"

    def test_stieltjes_dn(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "stieltjes-dn", "--k2", "0.5")
        assert code == 0
        assert json.loads(out)["outputs"]["verdict"] == "DET_H"

    def test_custom_bounded(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--lambda", "1", "--mu", "1*(n>0)", "--nmax", "800"
        )
        assert code == 0
        assert json.loads(out)["outputs"]["verdict"] == "DET_H"

    def test_bad_input_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--family", "stieltjes-dn", "--k2", "1.5")
        assert code == 2
        assert "k2" in err

    @pytest.mark.parametrize("mu", ["(n-2)^0.5", "1/n", "10^400", "0/n"])
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_custom_rates_exit_2(self, capsys, mu):
        # nan from a negative base, inf and nan from division by zero, inf
        # from overflow: each is rejected as input, with no warning leaking.
        code, out, err = run_cli(capsys, "classify", "--lambda", "1", "--mu", mu)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("lam", [
        "+".join(["n"] * 1500),  # parses, but is too deep to evaluate
        "(" * 400 + "n" + ")" * 400,
        "-" * 3000 + "n",
    ], ids=["long-sum", "nested-parentheses", "unary-chain"])
    def test_deep_expressions_exit_2(self, capsys, lam):
        code, out, err = run_cli(capsys, "classify", f"--lambda={lam}", "--mu", "n")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


_LITERALS = ["0", "1", "2", "0.5", "3", "1e-300", "1e300", "1e400"]
_EXPRESSIONS = st.recursive(
    st.sampled_from(["n"] + _LITERALS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", ">=", "<=", "==", ">", "<"]),
                  inner)
        .map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=6,
)
# Half the draws are powers of n + 1, positive wherever their exponent is
# finite, and mu is cut to 0 at n = 0, so that classification runs often.
_RATES = st.one_of(_EXPRESSIONS, _EXPRESSIONS.map(lambda e: f"(n+1)^{e}"))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lam=_RATES, mu=_RATES.map(lambda e: f"(n>0)*{e}"))
def test_custom_expressions_exit_with_documented_codes(lam, mu):
    # Any expression of the grammar either classifies or is rejected with a
    # documented exit code; an uncaught exception or a RuntimeWarning (an
    # error under the test configuration) fails the test.
    assert main(["classify", "--lambda", lam, "--mu", mu, "--nmax", "100"]) in (0, 2, 3, 4, 5)


class TestTransformCommand:
    def test_markov_matches_measure_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--family", "stieltjes-dn", "--k2", "0.5",
            "--x", "0,1", "--mode", "markov",
        )
        assert code == 0
        rep = json.loads(out)
        v = complex(rep["outputs"]["value"]["re"], rep["outputs"]["value"]["im"])
        oracle = measure_stieltjes(dn_spectral_measure(make_context(0.5), 60), 1j)
        assert abs(v - oracle) < 1e-8
        assert rep["outputs"]["converged"] is True

    def test_krein_on_quartic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--family", "quartic", "--c", "0", "--mu", "0",
            "--x", "10,10", "--mode", "krein", "--max-iter", "5000", "--tol", "1e-7",
        )
        assert code == 0
        rep = json.loads(out)
        v = complex(rep["outputs"]["value"]["re"], rep["outputs"]["value"]["im"])
        # frozen from the Nevanlinna series C/D at 10+10i
        assert abs(v - (0.044995413928543 - 0.045752013312697j)) < 1e-6

    def test_nevanlinna_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--family", "quartic", "--c", "0", "--mu", "0",
            "--x", "4,3", "--mode", "nevanlinna:0",
        )
        assert code == 0
        rep = json.loads(out)
        v = complex(rep["outputs"]["value"]["re"], rep["outputs"]["value"]["im"])
        from bdspec import nevanlinna_eval, quartic_rates

        nv = nevanlinna_eval(quartic_rates(0, 0), 4 + 3j)
        assert abs(v - nv.C / nv.D) < 1e-9
        assert rep["diagnostics"]["det_defect"] < 1e-9

    def test_pole_exit_2(self, capsys):
        # x = 0 is an atom of the Krein (parameter 0) N-extremal measure
        code, out, err = run_cli(
            capsys,
            "transform", "--family", "quartic", "--c", "0", "--mu", "0",
            "--x", "0,0", "--mode", "nevanlinna:0",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "vanished" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tolerance_exit_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys,
            "transform", "--family", "stieltjes-dn", "--k2", "0.5",
            "--x", "0,1", "--mode", "markov", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert err == "error: tolerances must be finite and nonnegative\n"

    def test_mode_conflict_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "transform", "--family", "stieltjes-dn", "--k2", "0.5",
            "--x", "0,1", "--mode", "friedrichs",
        )
        assert code == 3
        assert err.startswith("error: friedrichs mode: ") and "classification" in err
        dn = ["--family", "stieltjes-dn", "--k2", "0.5"]
        out_path = tmp_path / "x.json"
        for argv in (
            ["transform", *dn, "--x", "0,1", "--mode", "krein"],
            ["transform", *dn, "--x", "0,1", "--mode", "nevanlinna:0"],
            ["spectrum", *dn, "--mode", "nextremal:0", "--out", str(out_path)],
            ["transform", *Q0, "--x", "0,1", "--mode", "markov"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3
            assert out == ""
            mode = argv[argv.index("--mode") + 1]
            assert err.startswith(f"error: {mode} mode: ") and err.count("\n") == 1
            assert "classification" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["transform", "--family", "stieltjes-dn", "--k2", "0.5", "--x", "0,1", "--mode", "markov"],
        ["transform", *Q0, "--x", "4,3", "--mode", "nevanlinna:0"],
        ["transform", *Q0, "--x", "10,10", "--mode", "krein", "--max-iter", "5000",
         "--tol", "1e-7"],
        ["spectrum", *Q0, "--mode", "nextremal:0", "--window=-0.5,3000"],
    ], ids=["markov", "nevanlinna", "krein", "nextremal"])
    def test_each_mode_classifies_once(self, capsys, tmp_path, monkeypatch, argv):
        # One determinacy gate per command, the library's, markov included;
        # the CLI classifies only for the classify command.
        depths = []
        classify = indet.classify

        def spy(rates, *args, **kwargs):
            det = classify(rates, *args, **kwargs)
            depths.append(det.nmax)
            return det

        monkeypatch.setattr(indet, "classify", spy)
        monkeypatch.setattr(cli, "classify", spy)
        if argv[0] == "spectrum":
            argv = [*argv, "--out", str(tmp_path / "x.json")]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert depths == [4000]

    @pytest.mark.parametrize("value", ["garbage", "", "1e-4"])
    def test_tolerance_environment_is_ignored(self, capsys, monkeypatch, value):
        argv = ["transform", "--family", "stieltjes-dn", "--k2", "0.5", "--x", "1,1",
                "--mode", "markov"]
        monkeypatch.delenv("BDSPEC_TOL", raising=False)
        _, plain, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("BDSPEC_TOL", value)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == plain

    def test_bad_x_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "transform", "--family", "stieltjes-dn", "--k2", "0.5",
            "--x", "1", "--mode", "markov",
        )
        assert code == 2

    @pytest.mark.parametrize("mode, x", [
        ("krein", "nan,1"), ("friedrichs", "1,inf"), ("nevanlinna:0", "inf,0"), ("markov", "1,nan"),
    ])
    def test_nonfinite_x_exit_2(self, capsys, mode, x):
        family = ["--family", "stieltjes-dn", "--k2", "0.5"] if mode == "markov" else Q0
        code, out, err = run_cli(capsys, "transform", *family, f"--x={x}", "--mode", mode)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    # The CLI asks for 1e-10, which 1e9i meets at 23173 terms, past a
    # 16384-term budget.
    @pytest.mark.parametrize("x, budget, says", [
        pytest.param("0,1e9", ["--max-iter", "16384"], "16384-term cap", id="0,1e9-16384-term cap"),
        pytest.param("0,1e12", [], "double range", id="0,1e12-double range"),
    ])
    def test_series_failure_exit_5(self, capsys, x, budget, says):
        code, out, err = run_cli(
            capsys,
            "transform", "--family", "quartic", "--c", "0", "--mu", "0",
            f"--x={x}", "--mode", "nevanlinna:0", *budget,
        )
        assert code == 5
        assert out == ""
        assert err.startswith("error:") and says in err

    # A 200-term budget ends the ladder at checkpoint 181, before 4+3i
    # settles (365 terms) and before the window's masses do; a 100-term one
    # ends it at 91, before any point can settle (four checkpoints).
    @pytest.mark.parametrize("budget, cap", [("200", "181-term cap"), ("100", "91-term cap")])
    @pytest.mark.parametrize("argv", [
        ["transform", *Q0, "--x", "4,3", "--mode", "nevanlinna:0"],
        ["spectrum", *Q0, "--mode", "nextremal:0", "--window=-0.5,3000", "--out"],
    ])
    def test_max_iter_bounds_the_series(self, capsys, tmp_path, argv, budget, cap):
        if argv[-1] == "--out":
            argv = [*argv, str(tmp_path / "krein_window.json")]
        code, out, err = run_cli(capsys, *argv, "--max-iter", budget)
        assert code == 5
        assert out == ""
        assert err.startswith("error:") and cap in err

    # Berg and Valent's cubic family at 10+10i: its border limits do not
    # settle on the 92682-term ladder of the default --max-iter.
    @pytest.mark.parametrize("mode, increment", [
        ("friedrichs", "last_increment 1.61e-07"), ("krein", "last_increment 6.83e-06"),
    ])
    def test_unsettled_border_limit_exit_5(self, capsys, mode, increment):
        code, out, err = run_cli(
            capsys, "transform", "--lambda", "(3*n+1)^2*(3*n+2)", "--mu", "(3*n-1)*(3*n)^2",
            "--x", "10,10", "--mode", mode,
        )
        assert code == 5
        assert out == ""
        assert err.startswith("error:") and "terms_used 92682" in err and increment in err

    def test_unsettled_markov_limit_exit_5(self, capsys):
        code, out, err = run_cli(
            capsys, "transform", "--family", "stieltjes-dn", "--k2", "0.5", "--x", "0,1",
            "--mode", "markov", "--max-iter", "8",
        )
        assert code == 5
        assert out == ""
        assert err.startswith("error:") and "terms_used 8" in err and "last_increment" in err

    def test_default_budget_settles_past_16384_terms(self, capsys, qspec):
        # The default --max-iter of 100000 lets 1e9i settle, at 23173 terms.
        code, out, _ = run_cli(capsys, "transform", *Q0, "--x=0,1e9", "--mode", "nevanlinna:0")
        assert code == 0
        rep = json.loads(out)
        assert rep["diagnostics"]["terms_used"] == 23173
        value = complex(rep["outputs"]["value"]["re"], rep["outputs"]["value"]["im"])
        kr = krein_transform(qspec, 1e9j)
        assert abs(value - kr) <= 1e-11 * abs(kr)


class TestSpectrumCommand:
    def test_dn_measure_json(self, capsys, tmp_path):
        out_path = str(tmp_path / "psi.json")
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--family", "stieltjes-dn", "--k2", "0.5",
            "--mode", "dn-measure", "--nmax", "30", "--out", out_path,
        )
        assert code == 0
        m = DiscreteMeasure.from_json(open(out_path).read())
        K = make_context(0.5).K
        assert np.allclose(m.support, (np.arange(31) * math.pi / K) ** 2)

    def test_dn_measure_readme_default_nmax(self, capsys, tmp_path):
        # At the default --nmax 4000 the mass q^n underflows to 0 from n = 238
        # for k^2 = 1/2: the lattice ends before it.
        out_path = str(tmp_path / "psi.json")
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--family", "stieltjes-dn", "--k2", "0.5",
            "--mode", "dn-measure", "--out", out_path,
        )
        assert code == 0
        m = DiscreteMeasure.from_json(open(out_path).read())
        assert np.all(m.mass > 0)
        assert m.meta["underflow_cut"] == m.support.size < 4001
        assert abs(m.total_mass - 1.0) <= m.meta["tail_bound"] + 1e-14
        assert json.loads(out)["outputs"]["atoms"] == m.support.size

    def test_border_csv_first_atom(self, capsys, tmp_path, qspec):
        out_path = str(tmp_path / "fr.csv")
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--family", "quartic", "--c", "0", "--mu", "0",
            "--mode", "border:friedrichs", "--out", out_path, "--nmax", "12",
        )
        assert code == 0
        m = DiscreteMeasure.from_csv(open(out_path).read())
        assert m.support[0] == pytest.approx((math.pi / qspec.qperiod) ** 4, rel=1e-12)

    def test_gauss_one(self, capsys, tmp_path):
        out_path = str(tmp_path / "g.json")
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--family", "stieltjes-dn", "--k2", "0.5",
            "--mode", "gauss:1", "--out", out_path,
        )
        assert code == 0
        m = DiscreteMeasure.from_json(open(out_path).read())
        assert m.support == pytest.approx([0.5])
        assert m.mass == pytest.approx([1.0])

    def test_determinism_byte_identical(self, capsys, tmp_path):
        args = [
            "spectrum", "--family", "stieltjes-dn", "--k2", "0.37",
            "--mode", "dn-measure", "--nmax", "25",
        ]
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        code1, out1, _ = run_cli(capsys, *args, "--out", p1)
        code2, out2, _ = run_cli(capsys, *args, "--out", p2)
        assert code1 == code2 == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert out1.replace(p1, "X") == out2.replace(p2, "X")

    def test_nextremal_mode(self, capsys, tmp_path, qspec):
        out_path = str(tmp_path / "nx.json")
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--family", "quartic", "--c", "0", "--mu", "0",
            "--mode", "nextremal:0", "--window=-0.5,200", "--out", out_path,
        )
        assert code == 0
        m = DiscreteMeasure.from_json(open(out_path).read())
        assert m.support[0] == pytest.approx(0.0, abs=1e-10)
        assert m.mass[0] == pytest.approx(math.pi / qspec.qperiod**2, rel=1e-8)
        assert not m.normalized  # window-limited slice

    def test_nextremal_empty_window_exit_2(self, capsys, tmp_path):
        # no Krein atom lies in (0.5, 1): the first positive one is near 131.9
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys,
            "spectrum", "--family", "quartic", "--c", "0", "--mu", "0",
            "--mode", "nextremal:0", "--window=0.5,1", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "window" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "stieltjes-cn", "--k2", "0.5", "--mode", "dn-measure"],
        ["--family", "quartic", "--c", "0.25", "--mode", "border:friedrichs"],
    ], ids=["dn-measure", "border"])
    def test_family_conflict_exit_3(self, capsys, tmp_path, argv):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "spectrum", *argv, "--out", str(out_path))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("window", ["0,inf", "-inf,10"])
    def test_nextremal_nonfinite_window_exit_2(self, capsys, tmp_path, window):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys,
            "spectrum", "--family", "quartic", "--c", "0", "--mu", "0",
            "--mode", "nextremal:0", f"--window={window}", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("convention", ["lambda", "mu"])
    def test_nan_parameter_exit_2(self, capsys, tmp_path, convention):
        q0 = ["--family", "quartic", "--c", "0", "--mu", "0", "--convention", convention]
        out_path = tmp_path / "x.json"
        for argv in (
            ["transform", *q0, "--x", "4,3", "--mode", "nevanlinna:nan"],
            ["spectrum", *q0, "--mode", "nextremal:nan", "--window=-0.5,200",
             "--out", str(out_path)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"parameter {convention} is nan" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["transform", "spectrum"])
    def test_non_numeric_parameter_exit_2(self, capsys, tmp_path, command):
        out_path = tmp_path / "x.json"
        argv = (["transform", *Q0, "--x", "4,3", "--mode", "nevanlinna:abc"]
                if command == "transform"
                else ["spectrum", *Q0, "--mode", "nextremal:abc", "--out", str(out_path)])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: PARAM of --mode must be a number, inf or oo, got 'abc'\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("window", ["5", "1,2,3", "a,b"])
    def test_malformed_window_exit_2(self, capsys, tmp_path, window):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys,
            "spectrum", *Q0, "--mode", "nextremal:0", f"--window={window}", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --window must be 'lo,hi', got {window!r}\n"
        assert not out_path.exists()

    def test_io_error_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "spectrum", "--family", "stieltjes-dn", "--k2", "0.5",
            "--mode", "gauss:2", "--out", str(tmp_path / "no" / "dir" / "x.json"),
        )
        assert code == 4

    def test_numerical_failure_exit_5(self, capsys, tmp_path):
        # 1e-15 is below what the series behind the masses reach
        out_path = tmp_path / "x.json"
        code, _, err = run_cli(
            capsys,
            "spectrum", "--family", "quartic", "--c", "0", "--mu", "0",
            "--mode", "nextremal:0", "--window=-0.5,200", "--tol", "1e-15",
            "--out", str(out_path),
        )
        assert code == 5
        assert err.startswith("error:") and "requested" in err
        assert not out_path.exists()


def test_gauss_overflow_is_one_error_line(tmp_path):
    # A fresh process, so that numpy's own warning display reaches stderr.
    src = Path(cli.__file__).resolve().parents[1]
    out_path = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bdspec.cli", "spectrum", *Q0, "--mode", "gauss:120",
         "--out", str(out_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out_path.exists()


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bdspec 0.1.0" in out
