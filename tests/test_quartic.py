import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bdspec import (
    PoleError,
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

    def test_requires_base_member(self):
        from bdspec import make_quartic_spec, QuarticSpec

        spec = QuarticSpec(c=0.5, mu=12.0, K0=make_quartic_spec().K0,
                           ctx_half=make_quartic_spec().ctx_half)
        with pytest.raises(ValueError):
            friedrichs_transform(spec, 1j)


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
        assert rep.extended
        for name, dev in rep.deviations.items():
            assert dev < 0.01, name

    def test_dual_prefactor_three_pi(self, qspec):
        rep = asymptotic_checks(qspec, 1 + 1j, 2000)
        assert abs(rep.dual_prefactor - 3 * math.pi) < 0.01

    def test_monotone_drift(self, qspec):
        devs = [
            max(asymptotic_checks(qspec, 1 + 1j, n, extended=False).deviations.values())
            for n in (500, 1000, 2000)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_extended_and_double_agree(self, qspec):
        a = asymptotic_checks(qspec, 2 + 1j, 600, extended=True)
        b = asymptotic_checks(qspec, 2 + 1j, 600, extended=False)
        for k in a.ratios:
            assert abs(a.ratios[k] - b.ratios[k]) < 1e-7

    def test_needs_large_n(self, qspec):
        with pytest.raises(ValueError):
            asymptotic_checks(qspec, 1j, 100)
