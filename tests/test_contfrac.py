import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bdspec import (
    DiscreteMeasure,
    PoleError,
    eval_pq,
    gauss_measure,
    j_fraction,
    jacobi_from_rates,
    measure_moment,
    measure_stieltjes,
    s_fraction,
    stieltjes_cn_rates,
    stieltjes_dn_rates,
)


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.6, 0.6]), normalized=True)

    def test_json_round_trip_bit_exact(self, ctx_half):
        from bdspec import dn_spectral_measure

        m = dn_spectral_measure(ctx_half, 25)
        m2 = DiscreteMeasure.from_json(m.to_json())
        assert np.array_equal(m.support, m2.support)
        assert np.array_equal(m.mass, m2.mass)
        assert m2.normalized == m.normalized

    def test_csv_round_trip_bit_exact(self, ctx_half):
        from bdspec import dn_spectral_measure

        m = dn_spectral_measure(ctx_half, 25)
        text = m.to_csv()
        assert text.splitlines()[0] == "support,mass"
        m2 = DiscreteMeasure.from_csv(text, normalized=m.normalized)
        assert np.array_equal(m.support, m2.support)
        assert np.array_equal(m.mass, m2.mass)


class TestJFraction:
    def test_depth_one(self, dn_half):
        jc = jacobi_from_rates(dn_half, 3)
        x = 1.7 + 0.4j
        assert j_fraction(jc, 1, x) == pytest.approx(1.0 / (x - jc.a[0]))

    def test_matches_pq_ratio(self, dn_half, quartic0, rng):
        for rates in (dn_half, quartic0):
            jc = jacobi_from_rates(rates, 60)
            for _ in range(4):
                x = complex(rng.normal(scale=2), rng.uniform(0.3, 2.0))
                for depth in (7, 23, 60):
                    P, Q = eval_pq(rates, depth, x)
                    ref = Q.value(depth) / P.value(depth)
                    assert abs(j_fraction(jc, depth, x) - ref) < 1e-12 * abs(ref)

    def test_large_x_leading_moment(self, dn_half):
        jc = jacobi_from_rates(dn_half, 40)
        x = 1e6 + 1e5j
        val = j_fraction(jc, 40, x)
        assert abs(val * x - 1.0) < 1e-4  # 1/x + O(1/x^2), s_0 = 1

    def test_pole_error_at_spectral_point(self, dn_half):
        jc = jacobi_from_rates(dn_half, 1)
        with pytest.raises(PoleError):
            j_fraction(jc, 1, jc.a[0])


class TestSFraction:
    def test_depth_one_algebra(self, dn_half):
        x = 2.3 + 0.9j
        lam0 = dn_half.lam(0)
        assert s_fraction(dn_half, 1, x) == pytest.approx(x / (x * x + lam0))

    def test_self_convergence(self, dn_half):
        v200 = s_fraction(dn_half, 200, 1.0)
        v400 = s_fraction(dn_half, 400, 1.0)
        assert abs(v200 - v400) < 1e-12

    def test_requires_mu0_zero(self):
        from bdspec import quartic_rates

        with pytest.raises(ValueError):
            s_fraction(quartic_rates(0.0, 1.0), 10, 1.0)

    def test_cn_dn_transformation_property(self):
        # dn(u; k) = cn(ku; 1/k) at the fraction level:
        # S_dn(x; m) = (1/k) S_cn(x/k; 1/m) exactly at matched depth
        m = 0.5
        k = math.sqrt(m)
        dn = stieltjes_dn_rates(m)
        cn = stieltjes_cn_rates(1.0 / m)
        for depth in (2, 3, 17, 120):
            for x in (1.0, 2.0 + 1.0j):
                lhs = s_fraction(dn, depth, x)
                rhs = s_fraction(cn, depth, x / k) / k
                assert abs(lhs - rhs) < 1e-13 * abs(lhs)

    def test_stieltjes_contraction(self, dn_half, rng):
        # s-fraction at odd depth 2n-1 equals -x * (J-fraction of depth n at -x^2)
        jc = jacobi_from_rates(dn_half, 30)
        for _ in range(4):
            x = complex(rng.uniform(0.5, 2.0), rng.normal(scale=0.7))
            for n in (1, 2, 9, 30):
                lhs = s_fraction(dn_half, 2 * n - 1, x)
                rhs = -x * j_fraction(jc, n, -x * x)
                assert abs(lhs - rhs) < 1e-10 * abs(lhs)


class TestGaussMeasure:
    def test_overflowing_christoffel_sum_raises_value_error(self, quartic0):
        # At order 120 the quartic sum of squares passes double range; with
        # RuntimeWarnings as errors that must still be the positivity check.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="masses must be strictly positive"):
                gauss_measure(quartic0, 120)

    def test_order_one(self, dn_half):
        m = gauss_measure(dn_half, 1)
        assert m.support == pytest.approx([dn_half.lam(0)])
        assert m.mass == pytest.approx([1.0])

    def test_mass_positivity_and_total(self, dn_half):
        m = gauss_measure(dn_half, 12)
        assert np.all(m.mass > 0)
        assert m.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_first_moment_is_k2(self, dn_half):
        m = gauss_measure(dn_half, 12)
        assert measure_moment(m, 1) == pytest.approx(0.5, abs=1e-9)

    def test_gauss_exactness(self, dn_half):
        # moments of order m <= 2n-1 are independent of the order n
        n = 12
        m1 = gauss_measure(dn_half, n)
        m2 = gauss_measure(dn_half, n + 5)
        for order in (0, 1, 5, 11, 2 * n - 1):
            a = measure_moment(m1, order)
            b = measure_moment(m2, order)
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_equals_j_fraction(self, dn_half):
        n = 15
        m = gauss_measure(dn_half, n)
        jc = jacobi_from_rates(dn_half, n)
        for x in (1j, 2.5 + 0.1j, -3.0 + 0.0j):
            assert abs(measure_stieltjes(m, x) - j_fraction(jc, n, x)) < 1e-10

    def test_weights_match_residue_form(self, dn_half, quartic0):
        # partial-fraction residues Q_n(x_k)/P_n'(x_k) agree with the
        # Christoffel-function weights wherever cancellation leaves them
        # meaningful
        for rates in (dn_half, quartic0):
            n = 10
            m = gauss_measure(rates, n)
            for xk, w in zip(m.support, m.mass):
                if w < 1e-6 * m.mass.max():
                    continue
                P, Q = eval_pq(rates, n, xk, with_deriv=True)
                res = (Q.values[n] / P.derivs[n]).real * np.exp(
                    Q.scaling_log[n] - P.scaling_log[n]
                )
                assert res == pytest.approx(w, rel=1e-8)


class TestMeasureOps:
    def test_single_atom_transform(self):
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]))
        x = 1.3 + 0.4j
        assert measure_stieltjes(m, x) == pytest.approx(1.0 / x)

    def test_two_atom_hand_value(self):
        m = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        x = 2j
        ref = 0.5 / (2j + 1.0) + 0.5 / (2j - 1.0)
        assert measure_stieltjes(m, x) == pytest.approx(ref)

    def test_pole_on_support(self):
        m = DiscreteMeasure(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        with pytest.raises(PoleError):
            measure_stieltjes(m, 2.0)

    def test_moment_order_zero(self, ctx_half):
        from bdspec import dn_spectral_measure

        m = dn_spectral_measure(ctx_half, 40)
        assert measure_moment(m, 0) == pytest.approx(1.0, abs=1e-12)

    def test_moment_validation(self):
        m = DiscreteMeasure(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            measure_moment(m, -1)

    def test_moment_is_exactly_rounded(self):
        vals = [-1e16, -2.71, 1e-8, 1.0, 3.14, 1e16]
        m = DiscreteMeasure(np.array(vals), np.ones(6))
        assert measure_moment(m, 1) == float(mp.fsum(vals))

    def test_moment_past_double_range_raises(self):
        m = DiscreteMeasure(np.array([1.0, 1e300]), np.array([0.5, 0.5]))
        assert measure_moment(m, 1) == 5e299
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="double range"):
                measure_moment(m, 2)

    def test_transform_sums_are_exactly_rounded(self):
        # Real parts +-5e15 around -0.275, which a plain sum loses.
        m = DiscreteMeasure(np.array([-1.0, 0.3, 1.0]), np.array([1e16, 1.0, 1e16]))
        terms = m.mass / (1j - m.support)
        with mp.workdps(50):
            ref = complex(float(mp.fsum(mp.mpf(t) for t in terms.real)),
                          float(mp.fsum(mp.mpf(t) for t in terms.imag)))
        assert measure_stieltjes(m, 1j) == ref
        assert ref.real != sum(terms.real.tolist())

    def test_transform_past_double_range_raises(self):
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.5e308, 1.5e308]))
        for x in (-1.0, 1e-300j):  # the sum overflows; a term overflows
            with pytest.raises(ValueError, match="double range"):
                measure_stieltjes(m, x)
        with pytest.raises(ValueError, match="finite"):
            measure_stieltjes(m, complex(math.nan, 1.0))
