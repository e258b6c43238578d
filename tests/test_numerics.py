import math

import mpmath as mp
import numpy as np
import pytest

from bdspec import (
    ConvergedLimit,
    QuadratureError,
    Tolerance,
    bracket_roots,
    gamma_pos,
    integrate,
    quartic_rates,
    sum_until,
    tridiag_eigen,
)
from bdspec.numerics import compensated_sum, neville, richardson_sum

from conftest import GAMMA_1P6_REF, K0_REF, SUM_INV_MUPI_REF


class TestTolerance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1e-9)
        with pytest.raises(ValueError):
            Tolerance(max_iter=4)

    def test_bound(self):
        t = Tolerance(abs_tol=1e-10, rel_tol=1e-6)
        assert t.bound(1.0) == 1e-6
        assert t.bound(1e-8) == 1e-10


class TestIntegrate:
    def test_constant(self):
        assert abs(integrate(lambda u: 1.0, 0.0, 1.0) - 1.0) < 1e-13

    def test_sin(self):
        assert abs(integrate(math.sin, 0.0, math.pi) - 2.0) < 1e-12

    def test_lemniscate_integrand_vs_tanh_sinh_oracle(self):
        # oracle frozen from mpmath tanh-sinh at 50 digits
        def near_one(d):
            u = 1.0 - d
            return 1.0 / math.sqrt(d * (2.0 - d) * (1.0 + u * u))

        val = integrate(
            lambda u: 1.0 / math.sqrt(1.0 - u**4),
            0.0,
            1.0,
            Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=4000),
            sing_b=-0.5,
            f_dist_b=near_one,
        )
        assert abs(val - K0_REF) < 1e-12

    def test_complex_integrand(self):
        val = integrate(lambda u: complex(math.cos(u), math.sin(u)), 0.0, 1.0)
        ref = complex(math.sin(1.0), 1.0 - math.cos(1.0))
        assert abs(val - ref) < 1e-12

    def test_additivity_random_smooth(self, rng):
        for _ in range(5):
            coeff = rng.normal(size=4)

            def f(u, c=coeff):
                return c[0] * math.sin(c[1] * u) + c[2] * math.exp(c[3] * math.sin(u))

            a, b, c_pt = -1.0, 0.7, 2.3
            lhs = integrate(f, a, b) + integrate(f, b, c_pt)
            rhs = integrate(f, a, c_pt)
            assert abs(lhs - rhs) < 5e-12

    def test_budget_exhaustion_carries_estimate(self):
        # Oscillatory integrand far beyond an 8-subdivision budget.
        with pytest.raises(QuadratureError) as ei:
            integrate(
                lambda u: math.cos(500.0 * u * u),
                0.0,
                10.0,
                Tolerance(abs_tol=1e-14, rel_tol=1e-14, max_iter=8),
            )
        assert ei.value.bound > 0
        assert abs(ei.value.estimate) < 10.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda u: u, 1.0, 0.0)


class TestTridiagEigen:
    def test_one_by_one(self):
        assert tridiag_eigen([0.0], []) == pytest.approx([0.0])

    def test_two_by_two(self):
        ev = tridiag_eigen([0.0, 0.0], [1.0])
        assert ev == pytest.approx([-1.0, 1.0])

    def test_three_by_three_hand_characteristic(self):
        # det(J - t) for diag 2, offdiag 1 gives roots 2, 2 +- sqrt(2)
        ev = tridiag_eigen([2.0, 2.0, 2.0], [1.0, 1.0])
        assert ev == pytest.approx([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])

    def test_rejects_nonpositive_offdiag(self):
        with pytest.raises(ValueError):
            tridiag_eigen([1.0, 2.0], [0.0])
        with pytest.raises(ValueError):
            tridiag_eigen([1.0, 2.0], [-0.5])

    def test_interlacing_deleted_row(self, rng):
        for _ in range(4):
            d = rng.normal(size=8)
            e = rng.uniform(0.2, 2.0, size=7)
            full = tridiag_eigen(d, e)
            sub = tridiag_eigen(d[:7], e[:6])
            for i in range(7):
                assert full[i] <= sub[i] + 1e-12
                assert sub[i] <= full[i + 1] + 1e-12


class TestBracketRoots:
    def test_linear(self):
        roots = bracket_roots(lambda x: x, -1.0, 1.0, 10)
        assert len(roots) == 1
        assert abs(roots[0]) < 1e-12

    def test_cosine(self):
        roots = bracket_roots(math.cos, 0.0, 10.0, 100)
        expect = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert len(roots) == 3
        assert roots == pytest.approx(expect, abs=1e-11)

    def test_quartic_profile_zeros(self):
        # cos(t/sqrt2) cosh(t/sqrt2) vanishes at (2n+1) pi / sqrt2
        f = lambda t: math.cos(t / math.sqrt(2)) * math.cosh(t / math.sqrt(2))
        roots = bracket_roots(f, 0.0, 10.0, 200)
        expect = [math.pi / math.sqrt(2), 3 * math.pi / math.sqrt(2)]
        assert roots == pytest.approx(expect, abs=1e-10)

    def test_no_sign_change(self):
        assert bracket_roots(lambda x: 1.0 + x * x, -1.0, 1.0, 50) == []

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            bracket_roots(lambda x: x, 0.0, 1.0, 1)


class TestSumUntil:
    def test_zero_terms(self):
        res = sum_until(lambda n: 0.0, Tolerance(abs_tol=1e-12, rel_tol=0.0), guard=3)
        assert res.converged
        assert res.value == 0
        assert res.terms_used == 3

    def test_geometric(self):
        res = sum_until(lambda n: 2.0**-n, Tolerance(abs_tol=1e-13, rel_tol=0.0))
        assert res.converged
        assert abs(res.value - 2.0) < 1e-12

    def test_quartic_inverse_mupi_reaches_oracle_loosely(self, quartic0):
        lam, mu = quartic0.tabulate(4000)
        pis = np.ones(4000)
        for k in range(1, 4000):
            pis[k] = pis[k - 1] * lam[k - 1] / mu[k]

        def term(n):
            k = n + 1
            return 1.0 / (mu[k] * pis[k])

        res = sum_until(term, Tolerance(abs_tol=0.0, rel_tol=1e-6, max_iter=3000))
        assert res.converged
        # guarded plain summation stops on term size; tail is O(1/N)
        assert abs(res.value - SUM_INV_MUPI_REF) < 2e-3

    def test_non_convergence_flag(self):
        res = sum_until(lambda n: 1.0, Tolerance(abs_tol=1e-3, rel_tol=0.0, max_iter=16))
        assert not res.converged
        assert res.terms_used == 16

    def test_guard_validation(self):
        with pytest.raises(ValueError):
            sum_until(lambda n: 0.0, guard=1)


class TestRichardsonSum:
    def test_inverse_square_series(self):
        res = richardson_sum(
            lambda n: 1.0 / (n + 1) ** 2,
            Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=300_000),
        )
        assert res.converged
        assert abs(res.value - math.pi**2 / 6) < 1e-11

    def test_quartic_alpha_series(self, quartic0):
        state = {"pi": 1.0, "k": 0}
        lam, mu = quartic0.tabulate(200_000)

        def term(_n):
            state["k"] += 1
            k = state["k"]
            state["pi"] *= lam[k - 1] / mu[k]
            return 1.0 / (mu[k] * state["pi"])

        res = richardson_sum(
            term, Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=150_000), n0=256
        )
        assert res.converged
        assert abs(res.value - SUM_INV_MUPI_REF) < 1e-11


class TestGamma:
    def test_one(self):
        assert gamma_pos(1.0) == 1.0

    def test_half(self):
        assert abs(gamma_pos(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_c_point_vs_mpmath_oracle(self):
        assert abs(gamma_pos(2 * 0.3 + 1.0) - GAMMA_1P6_REF) < 1e-13

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 7.3])
    def test_functional_equation(self, x):
        assert abs(gamma_pos(x + 1.0) / (x * gamma_pos(x)) - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_pos(0.0)
        with pytest.raises(ValueError):
            gamma_pos(-1.3)


def test_neville_recovers_polynomial_limit():
    hs = [1.0 / n for n in (8, 16, 32, 64, 128)]
    ys = [3.0 - 2.0 * h + 5.0 * h**2 - h**3 for h in hs]
    assert abs(neville(hs, ys) - 3.0) < 1e-12
    assert isinstance(neville(hs, ys), complex)
    # array samples are extrapolated elementwise
    arrays = [np.array([y, 2.0 * y, 1j * y]) for y in ys]
    assert np.allclose(neville(hs, arrays), [3.0, 6.0, 3j], rtol=0, atol=1e-11)


def test_compensated_sum_vs_mpmath():
    vals = [1e16, 1.0, -1e16, 1e-8, 3.14, -2.71]
    assert compensated_sum(vals) == pytest.approx(
        float(mp.fsum(vals)), abs=1e-12
    )
