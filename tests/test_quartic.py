import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from bdspec import (
    ConvergenceError,
    PoleError,
    QuadratureError,
    Tolerance,
    alpha_limit,
    asymptotic_checks,
    border_measure,
    delta4,
    dual_rates,
    friedrichs_transform,
    krein_transform,
    markov_like_limit,
    measure_stieltjes,
    nevanlinna_eval,
    nextremal_measure,
    quartic_rates,
)
from bdspec.quartic import _cn_integral, _root4
from conftest import f_recurrence_mp


class TestRates:
    def test_lambda0(self, quartic0):
        assert quartic0.lam(0) == 12.0

    def test_mu1(self, quartic0):
        assert quartic0.mu(1) == 3 * 16 * 5

    def test_mu0_is_parameter(self):
        assert quartic_rates(0.5, 7.0).mu(0) == 7.0
        assert quartic_rates(0.5, 0.0).mu(0) == 0.0

    def test_dual_equals_half_shift(self, quartic0):
        d = dual_rates(quartic0)
        ref = quartic_rates(0.5, 12.0)
        for n in range(21):
            assert d.lam(n) == ref.lam(n)
            assert d.mu(n) == ref.mu(n)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            quartic_rates(-0.1, 0.0)
        with pytest.raises(ValueError):
            quartic_rates(0.0, -1.0)


class TestTransforms:
    def test_friedrichs_matches_series(self, quartic0, qspec):
        x = 10 + 10j
        ref = markov_like_limit(
            quartic0, x, "friedrichs", Tolerance(abs_tol=1e-9, rel_tol=1e-9, max_iter=20000)
        )
        val = friedrichs_transform(qspec, x)
        assert abs(val - ref.value) < 1e-6

    def test_krein_matches_series_and_cd(self, quartic0, qspec):
        x = 10 + 10j
        val = krein_transform(qspec, x)
        ref = markov_like_limit(
            quartic0, x, "krein", Tolerance(abs_tol=1e-9, rel_tol=1e-9, max_iter=20000)
        )
        assert abs(val - ref.value) < 1e-6
        nv = nevanlinna_eval(quartic0, x)
        assert abs(val - nv.C / nv.D) < 1e-6

    def test_herglotz_at_i(self, qspec):
        assert friedrichs_transform(qspec, 1j).imag < 0
        assert krein_transform(qspec, 1j).imag < 0

    def test_krein_pole_at_zero_and_residue(self, qspec):
        with pytest.raises(PoleError):
            krein_transform(qspec, 0.0)
        K = qspec.qperiod
        mass0 = math.pi / K**2
        for eps in (1e-3 + 1e-3j, 2e-4 + 3e-4j):
            val = krein_transform(qspec, eps)
            assert abs(eps * val - mass0) < 5e-3 * mass0

    def test_friedrichs_poles_are_delta0_zeros(self, qspec):
        # zeros of delta_0(x^(1/4) Kbar / sqrt2) in the transform variable
        K = qspec.qperiod
        f = lambda y: delta4(0, y * K / math.sqrt(2)).real
        ys = np.linspace(0.1, 12.0, 401)
        fs = [f(y) for y in ys]
        roots = [
            brentq(f, ys[i], ys[i + 1], xtol=1e-13, rtol=1e-13)
            for i in range(len(ys) - 1)
            if fs[i] * fs[i + 1] < 0
        ]
        expected = [(2 * n + 1) * math.pi / K for n in range(4)]
        assert np.allclose(roots, expected, rtol=1e-9)


    @pytest.mark.parametrize("x", [1e12 * cmath.exp(1j * a) for a in (0.05, 1.0, math.pi / 2)]
                             + [1e20j], ids=lambda x: f"{x:.3g}")
    @pytest.mark.parametrize("fn", [friedrichs_transform, krein_transform], ids=lambda f: f.__name__)
    def test_past_the_double_range_raises_named_error(self, qspec, fn, x):
        # delta_l overflows; the border limit, markov_like_limit, reaches x.
        with pytest.raises(ConvergenceError, match="double range.*markov_like_limit"):
            fn(qspec, x)

    @pytest.mark.parametrize("x", [1e11 * cmath.exp(1j * math.pi)]
                             + [3e11 * cmath.exp(1j * a) for a in (1.0, math.pi / 2, math.pi)],
                             ids=lambda x: f"{x:.3g}")
    def test_nonfinite_integrand_raises_quadrature_error(self, qspec, x):
        for fn in (friedrichs_transform, krein_transform):
            with pytest.raises(QuadratureError):
                fn(qspec, x)

    @pytest.mark.parametrize("r", [1e10, 1e11])
    @pytest.mark.parametrize("a", [0.05, 1.0, math.pi / 2])
    def test_below_the_range_returns_the_leading_term(self, qspec, quartic0, r, a):
        # x F(x) - 1 ~ m_1 / x, with m_1 = lambda_0 + mu_0 = 12 the first
        # moment of both border measures.
        x = r * cmath.exp(1j * a)
        lam0 = quartic0.lam(0)
        for fn in (friedrichs_transform, krein_transform):
            assert abs(x * fn(qspec, x) - 1 - lam0 / x) < 0.05 * lam0 / r


class TestBorderMeasure:
    def test_friedrichs_supports(self, qspec):
        m = border_measure(qspec, "friedrichs", 10)
        K = qspec.qperiod
        for n in range(5):
            assert m.support[n] == pytest.approx(((2 * n + 1) * math.pi / K) ** 4, rel=1e-14)

    def test_krein_zero_atom(self, qspec):
        m = border_measure(qspec, "krein", 10)
        assert m.support[0] == 0.0
        assert m.mass[0] == pytest.approx(math.pi / qspec.qperiod**2, rel=1e-14)

    def test_normalization(self, qspec):
        for mode in ("friedrichs", "krein"):
            m = border_measure(qspec, mode, 20)
            assert m.normalized
            assert m.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_k0_convention_metadata_doubles(self, qspec):
        m = border_measure(qspec, "friedrichs", 6)
        printed = np.asarray(m.meta["k0_convention_mass"])
        assert np.allclose(printed, 2.0 * m.mass, rtol=1e-14)
        psup = np.asarray(m.meta["k0_convention_support"])
        assert np.allclose(psup, 16.0 * m.support, rtol=1e-14)

    def test_mass_cross_check_against_series(self, quartic0, qspec):
        # Ne4 masses at the first atoms are proportional to the sinh-formula
        # masses with a single constant (1 after the quarter-period repair)
        alpha = alpha_limit(quartic0)
        series = nextremal_measure(quartic0, alpha, window=(0.5, 6000))
        closed = border_measure(qspec, "friedrichs", 8)
        k = series.support.size
        c_fit = float(np.sum(series.mass * closed.mass[:k]) / np.sum(closed.mass[:k] ** 2))
        resid = np.abs(series.mass - c_fit * closed.mass[:k]) / series.mass
        assert np.all(resid < 1e-6)
        assert c_fit == pytest.approx(1.0, rel=1e-7)


class TestTripleAgreement:
    @pytest.mark.parametrize(
        "x", [10 + 10j, 3 + 5j, -4 + 2j, 20 + 1j, 1 + 1j]
    )
    def test_friedrichs_and_krein(self, x, quartic0, qspec):
        tol = Tolerance(abs_tol=1e-8, rel_tol=1e-8, max_iter=20000)
        mfr = border_measure(qspec, "friedrichs", 25)
        mkr = border_measure(qspec, "krein", 25)
        for mode, closed_fn, meas in (
            ("friedrichs", friedrichs_transform, mfr),
            ("krein", krein_transform, mkr),
        ):
            closed = closed_fn(qspec, x)
            series = markov_like_limit(quartic0, x, mode, tol).value
            atoms = measure_stieltjes(meas, x)
            assert abs(closed - series) < 1e-5
            assert abs(closed - atoms) < 1e-5
            assert abs(series - atoms) < 1e-5


class TestAsymptoticChecks:
    def test_all_ratios_near_one(self, qspec):
        rep = asymptotic_checks(qspec, 1 + 1j, 2000)
        for name, dev in rep.deviations.items():
            assert dev < 0.01, name

    def test_dual_prefactor_three_pi(self, qspec):
        rep = asymptotic_checks(qspec, 1 + 1j, 2000)
        assert abs(rep.dual_prefactor - 3 * math.pi) < 0.01

    def test_monotone_drift(self, qspec):
        devs = [
            max(asymptotic_checks(qspec, 1 + 1j, n).deviations.values())
            for n in (500, 1000, 2000)
        ]
        assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("n", [600, 2000])
    @pytest.mark.parametrize("x", [0.6 + 0.8j, -6 + 8j, -60 - 80j, 600 - 800j])
    def test_matches_mp_reference(self, qspec, quartic0, x, n):
        # F_n, F^(1)_(n-1), F~_n, F^_n stepped in 40-digit arithmetic and
        # pi_n as a 40-digit product, over the same closed-form denominators.
        f_n = f_recurrence_mp(quartic0, n, x)[n]
        f1_nm1 = f_recurrence_mp(quartic0, n - 1, x, shift=1)[n - 1]
        ft_n = f_recurrence_mp(dual_rates(quartic0), n, x)[n]
        fh_n = f_recurrence_mp(dual_rates(quartic0, zero_related=True), n, x)[n]
        lam, mu = (v.tolist() for v in quartic0.tabulate(n + 1))
        with mp.workdps(40):
            pi_n = float(mp.fprod(mp.mpf(lam[k - 1]) / mu[k] for k in range(1, n + 1)))
        rho = _root4(x)
        sqx = rho * rho
        arg = rho * qspec.qperiod / math.sqrt(2.0)
        n2 = _cn_integral(qspec, 2, rho)
        n0 = _cn_integral(qspec, 0, rho)
        ref = {
            "base": f_n / (pi_n * delta4(0, arg)),
            "associated": f1_nm1 / (mu[1] * pi_n * n2 / sqx),
            "dual": ft_n * sqx / (3 * math.pi * pi_n * delta4(2, arg)),
            "zero_dual": fh_n / (3 * math.pi * pi_n * n0),
        }
        rep = asymptotic_checks(qspec, x, n)
        assert rep.ratios.keys() == ref.keys()
        for name, value in ref.items():
            assert abs(rep.ratios[name] - value) <= 1e-9 * abs(value), name
        prefactor = 3 * math.pi * ref["dual"]
        assert abs(rep.dual_prefactor - prefactor) <= 1e-9 * abs(prefactor)

    def test_needs_large_n(self, qspec):
        with pytest.raises(ValueError):
            asymptotic_checks(qspec, 1j, 100)


@pytest.mark.parametrize("mode", ["friedrichs", "krein"])
def test_border_measure_past_the_sinh_cut(qspec, mode):
    # nmax 200 runs past a = 700, through the asymptotic branch of 1/sinh,
    # to the first atom whose mass underflows to 0; the lattice before it is
    # the one a shorter call gives.
    m = border_measure(qspec, mode, 200)
    short = border_measure(qspec, mode, 60)
    assert m.support.size == 119
    assert abs(m.total_mass - 1.0) <= 1e-10
    assert np.array_equal(m.support[:60], short.support[:60])
    assert np.array_equal(m.mass[:60], short.mass[:60])
