import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdspec import (
    INDET_S_INDET_H,
    ConvergenceError,
    DeterminacyError,
    QuadratureError,
    Tolerance,
    custom_rates,
    dn_spectral_measure,
    eval_f,
    generalized_c_rates,
    generalized_ratio,
    laplace_dn,
    make_context,
    markov_iterates,
    markov_limit,
    measure_moment,
    measure_stieltjes,
    pi_sequence,
    quartic_rates,
    s_fraction,
    stieltjes_cn_rates,
    stieltjes_dn_rates,
)
from bdspec import det_markov
from bdspec.recurrence import eval_pq_mp


def _chebyshev_like_oracle(x: complex) -> complex:
    # Constant rates lambda_n = mu_(n+1) = 1: the tail fraction satisfies
    # t = 1/(x - 2 - t); picking the root with |t| < 1 gives the transform
    # 1/(x - 1 - t).
    z = x - 2.0
    r = cmath.sqrt(z * z - 4.0)
    t1, t2 = (z - r) / 2.0, (z + r) / 2.0
    t = t1 if abs(t1) < abs(t2) else t2
    return 1.0 / (x - 1.0 - t)


class TestMarkovLimit:
    def test_dn_matches_spectral_measure(self, dn_half, ctx_half):
        oracle = measure_stieltjes(dn_spectral_measure(ctx_half, 60), 1j)
        res = markov_limit(dn_half, 1j, Tolerance(abs_tol=1e-11, rel_tol=1e-11))
        assert res.converged
        assert abs(res.value - oracle) < 1e-8

    def test_herglotz_sign(self, dn_half):
        res = markov_limit(dn_half, 0.5 + 2j)
        assert res.value.imag < 0

    def test_constant_rates_fixed_point(self):
        # On the continuous spectrum [0, 4] the iterates do not converge, so
        # the check runs off the axis where the periodic-fraction fixed point
        # is the limit.
        rates = custom_rates(lambda n: 1.0, lambda n: 0.0 if n == 0 else 1.0)
        for x in (3 + 1j, 2 + 0.5j, 5 + 0.2j):
            res = markov_limit(rates, x, Tolerance(abs_tol=1e-10, rel_tol=1e-10))
            assert res.converged
            assert abs(res.value - _chebyshev_like_oracle(x)) < 1e-9

    def test_requires_off_axis(self, dn_half):
        with pytest.raises(ValueError):
            markov_limit(dn_half, 3.0)

    @pytest.mark.parametrize("family, x", [("quartic", 1j), ("cubic", 10 + 10j)])
    def test_refuses_indeterminate(self, cubic, family, x):
        # On these the ratios creep to the Friedrichs limit algebraically, and
        # the two-increment rule used to stop on them and report convergence.
        rates = cubic if family == "cubic" else quartic_rates(0.0, 0.0)
        with pytest.raises(DeterminacyError, match=f"classification is {INDET_S_INDET_H}"):
            markov_limit(rates, x)

    def test_non_convergence_flag(self, dn_half):
        res = markov_limit(dn_half, 1j, Tolerance(abs_tol=1e-30, rel_tol=0.0, max_iter=50))
        assert not res.converged

    def test_monotone_error_in_extended_precision(self, dn_half, ctx_half):
        # truncation error is far below double rounding beyond n = 50, so the
        # monotonicity check runs at 60 digits
        errs = _mp_markov_errors(dn_half, ns=(10, 20, 40, 80), dps=60)
        assert all(a > b for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("dps", [None, 30], ids=["double", "dps30"])
class TestMarkovIteratesIndices:
    def test_one_value_per_index_in_order(self, dn_half, dps):
        r50, r200 = markov_iterates(dn_half, 1j, [50, 200], dps=dps)
        assert r50 != r200
        assert markov_iterates(dn_half, 1j, [200, 50], dps=dps) == [r200, r50]
        assert markov_iterates(dn_half, 1j, [50, 50], dps=dps) == [r50, r50]
        assert markov_iterates(dn_half, 1j, [200, 50, 200], dps=dps) == [r200, r50, r200]

    @pytest.mark.parametrize("ns", [[], [0], [5, -1]], ids=["empty", "zero", "negative"])
    def test_rejects_bad_indices(self, dn_half, dps, ns):
        with pytest.raises(ValueError):
            markov_iterates(dn_half, 1j, ns, dps=dps)


@pytest.mark.parametrize("dps", [0, -3])
def test_extended_precision_rejects_dps_below_one(dn_half, dps):
    with pytest.raises(ValueError):
        markov_iterates(dn_half, 1j, [5], dps=dps)
    with pytest.raises(ValueError):
        eval_pq_mp(dn_half, 5, 1j, dps)


def test_eval_pq_mp_rejects_bad_input(dn_half):
    with pytest.raises(ValueError):
        eval_pq_mp(dn_half, 0, 1j, 30)
    for x in (complex(math.inf, 1), complex(1, math.nan), mp.mpc(mp.inf, 1), mp.mpf(mp.nan)):
        with pytest.raises(ValueError):
            eval_pq_mp(dn_half, 5, x, 30)


@pytest.mark.parametrize("family", [stieltjes_dn_rates, stieltjes_cn_rates], ids=["dn", "cn"])
@pytest.mark.parametrize("k2", [0.1, 0.5, 0.9])
def test_markov_limit_stops_at_first_index_meeting_rule(family, k2):
    # The rule, applied to 30-digit iterates: the returned index is the first
    # n >= 8 with |r_n - r_(n-1)| and |r_n - r_(n-2)| both within the bound.
    # With a budget one short of it, the search runs out at the budget.
    rates = family(k2)
    tol = Tolerance()
    for x in (1.3 + 0.7j, -2 + 1.5j, -0.4 - 2.2j, 2.5 - 0.3j):
        res = markov_limit(rates, x, tol)
        assert res.converged
        n = res.terms_used
        table = eval_pq_mp(rates, n, x, dps=30)
        r = {k: complex(table[k][1] / table[k][0]) for k in range(6, n + 1)}

        def meets(k):
            return max(abs(r[k] - r[k - 1]), abs(r[k] - r[k - 2])) <= tol.bound(r[k])

        assert meets(n) and not any(meets(k) for k in range(8, n))
        assert abs(res.value - r[n]) <= 1e-12 * abs(r[n])
        if n > 8:
            short = markov_limit(rates, x, Tolerance(max_iter=n - 1))
            assert not short.converged
            assert short.terms_used == n - 1
            assert abs(short.value - r[n - 1]) <= 1e-12 * abs(r[n - 1])


def _mp_markov_errors(rates, ns, dps):
    vals = markov_iterates(rates, 1j, list(ns), dps=dps)
    with mp.workdps(dps):
        k2 = mp.mpf(1) / 2
        K = mp.ellipk(k2)
        q = mp.exp(-mp.pi * mp.ellipk(1 - k2) / K)
        x = mp.mpc(0, 1)
        oracle = (mp.pi / (2 * K)) / x
        n = 1
        while True:
            psi = (2 * mp.pi / K) * q**n / (1 + q ** (2 * n))
            if psi < mp.mpf(10) ** (-dps - 10):
                break
            oracle += psi / (x - (n * mp.pi / K) ** 2)
            n += 1
        return [float(abs(v - oracle)) for v in vals]


class TestDnSpectralMeasure:
    def test_mass_at_zero(self, ctx_half):
        m = dn_spectral_measure(ctx_half, 30)
        assert m.mass[0] == pytest.approx(math.pi / (2 * ctx_half.K), rel=1e-14)

    def test_support_spacing(self, ctx_half):
        m = dn_spectral_measure(ctx_half, 30)
        n = np.arange(31)
        assert np.allclose(m.support, (n * math.pi / ctx_half.K) ** 2, rtol=1e-14)

    def test_second_moment(self, ctx_half):
        m = dn_spectral_measure(ctx_half, 60)
        assert measure_moment(m, 2) == pytest.approx(0.5 * 4.5, rel=1e-10)

    @pytest.mark.parametrize("nmax", [236, 237, 238, 4000])
    def test_lattice_ends_before_underflow(self, ctx_half, nmax):
        m = dn_spectral_measure(ctx_half, nmax)
        end = min(nmax + 1, 238)
        assert m.support.size == end and np.all(m.mass > 0)
        assert ("underflow_cut" in m.meta) == (end <= nmax)
        assert m.meta["tail_bound"] == (2 * math.pi / ctx_half.K) * ctx_half.q**end / (1 - ctx_half.q)
        assert abs(m.total_mass - 1.0) <= m.meta["tail_bound"] + 1e-14

    def test_normalized_flag_tracks_tail(self, ctx_half):
        assert dn_spectral_measure(ctx_half, 40).normalized
        assert not dn_spectral_measure(ctx_half, 2).normalized


class TestThreeWayAgreement:
    @pytest.mark.parametrize("k2", [0.3, 0.5, 0.8])
    def test_pairwise(self, k2):
        ctx = make_context(k2)
        rates = stieltjes_dn_rates(k2)
        m = dn_spectral_measure(ctx, 80)
        for x in (1.0, 2 + 1j):
            x = complex(x)
            a = s_fraction(rates, 400, x)
            b = laplace_dn(ctx, x)
            c = -x * measure_stieltjes(m, -x * x)
            assert abs(a - b) < 1e-8
            assert abs(a - c) < 1e-8
            assert abs(b - c) < 1e-8


class TestGeneralizedRatio:
    # k^2 = 1/2 and two moduli of the c > 0 grid 0.1 + (i + 1/2) 0.8/7, where
    # c_n of the Landen ladder sticks an ulp above its exit threshold; the
    # k^2 = 1/2 cases keep their ids.
    @pytest.mark.parametrize(
        "k2, c",
        [
            pytest.param(k2, c, id=f"{c}" if k2 == 0.5 else f"{c}-k2={k2:.4f}")
            for k2 in (0.5, 0.1 + 1.5 * 0.8 / 7, 0.1 + 6.5 * 0.8 / 7)
            for c in (0.25, 0.75, 1.5)
        ],
    )
    @pytest.mark.parametrize("x", [1.0, 1.5])
    def test_matches_s_fraction(self, k2, c, x):
        rates = generalized_c_rates(k2, c)
        ref = s_fraction(rates, 400, x)
        val = generalized_ratio(make_context(k2), c, x, Tolerance(abs_tol=1e-10, rel_tol=1e-10))
        assert abs(val - ref) < 1e-8

    def test_small_c_recovers_laplace(self, ctx_half):
        val = generalized_ratio(ctx_half, 1e-4, 1.0)
        ref = laplace_dn(ctx_half, 1.0)
        assert abs(val - ref) < 1e-3

    def test_herglotz_in_mapped_variable(self, ctx_half):
        # value = -x G(-x^2) with G the transform of a positive measure:
        # sign(Im G(z)) = -sign(Im z)
        x = 1 + 1j
        val = generalized_ratio(ctx_half, 0.75, x)
        z = -x * x
        g = -val / x
        assert g.imag * z.imag < 0

    def test_domain(self, ctx_half):
        with pytest.raises(ValueError):
            generalized_ratio(ctx_half, -0.1, 1.0)
        with pytest.raises(ValueError):
            generalized_ratio(ctx_half, 0.5, -1.0)

    @pytest.mark.parametrize("c", [85.5, 200.0, 5000.0, 1e4])
    def test_large_c_matches_s_fraction(self, ctx_half, c):
        # The normalizations cancel to K/(4c); each on its own, (2c)! among
        # them, overflows from c = 85.5. Unscaled, m(u)^(2c) would pass the
        # double range from c near 4550; the node factors are scaled by
        # (2/K)^(2c), and 2/K is multiplied back once.
        x = 1.3 + 0.4j
        ref = s_fraction(generalized_c_rates(0.5, c), 800, x)
        assert s_fraction(generalized_c_rates(0.5, c), 400, x) == pytest.approx(ref, rel=1e-15)
        assert abs(generalized_ratio(ctx_half, c, x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("k2", [0.85, 0.9])
    def test_large_c_past_k_of_two_matches_s_fraction(self, k2):
        # K > 2 here, so m(K) = 2/K < 1 and m(u)^(2c) alone underflows at
        # the nodes near K from c near 1400 (at k^2 = 0.9), which would
        # leave the denominator 0.
        x = 1.3 + 0.4j
        ref = s_fraction(generalized_c_rates(k2, 4600.0), 800, x)
        assert abs(generalized_ratio(make_context(k2), 4600.0, x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("c", [1.5e4, 1e5])
    def test_rule_past_double_range_names_c_and_nodes(self, ctx_half, c):
        # scipy's 96-node Gauss-Jacobi rule turns nan from c near 14825 at
        # k^2 = 1/2; the error names c and the node count, and numpy's
        # warnings stay silent (they are errors under pytest's settings).
        with pytest.raises(ConvergenceError, match=f"rule of 96 nodes leaves the double range at c = {c:g} "):
            generalized_ratio(ctx_half, c, 1.3 + 0.4j)

    def test_underflow_raises_at_once(self, ctx_half):
        # e^(-xu) underflows at every node: the first pair of rules leaves
        # 0/0, reported without building the larger rules.
        det_markov._jacobi_rule.cache_clear()
        with pytest.raises(QuadratureError, match="underflow"):
            generalized_ratio(ctx_half, 0.75, 1e7)
        assert det_markov._jacobi_rule.cache_info().misses == 2


class TestGaussJacobiRuleCache:
    def test_cold_value_equals_warm(self, ctx_half):
        warm = generalized_ratio(ctx_half, 0.8, 1.3 + 0.4j)
        det_markov._jacobi_rule.cache_clear()
        cold = generalized_ratio(ctx_half, 0.8, 1.3 + 0.4j)
        assert det_markov._jacobi_rule.cache_info().misses > 0
        assert cold == warm

    def test_warm_call_builds_nothing(self, ctx_half, monkeypatch):
        generalized_ratio(ctx_half, 0.8, 1.3 + 0.4j)
        counts = {"roots_jacobi": 0, "jacobi_scd": 0}

        def counting(name):
            inner = getattr(det_markov, name)

            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(det_markov, name, counting(name))
        generalized_ratio(ctx_half, 0.8, 2.1 - 0.7j)
        assert counts == {"roots_jacobi": 0, "jacobi_scd": 0}

    def test_interleaved_keys_match_s_fraction(self):
        # c = 1/4 and c = 3/4 share the exponent 1/2 (dn column for one, cn
        # column for the other), so the key must hold the modulus, the
        # exponent and the column.
        det_markov._jacobi_rule.cache_clear()
        cases = [(k2, c) for k2 in (0.3, 0.7) for c in (0.25, 0.75)]
        for x in (1.2 + 0.5j, 0.8 - 1.1j):
            for k2, c in cases + cases[::-1]:
                ref = s_fraction(generalized_c_rates(k2, c), 400, x)
                assert abs(generalized_ratio(make_context(k2), c, x) - ref) < 1e-8


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    k2=st.floats(0.1, 0.9),
    c=st.floats(0.1, 1.5),
    re=st.floats(0.5, 3.0),
    im=st.floats(0.1, 2.0),
    lower=st.booleans(),
)
def test_generalized_ratio_matches_s_fraction_sweep(k2, c, re, im, lower):
    # criterion 5 of the acceptance suite, abs 1e-7, over the right-half-plane
    # box Re x in (0.5, 3), 0.1 <= |Im x| <= 2
    x = complex(re, -im if lower else im)
    ref = s_fraction(generalized_c_rates(k2, c), 400, x)
    assert abs(generalized_ratio(make_context(k2), c, x) - ref) < 1e-7


class TestLargeIndexAsymptotics:
    def test_scaled_f_approaches_kernel(self, dn_half, ctx_half):
        # F_n(x) * k^(2n) * n / pi_n at x = -1 approaches sinh(K)/(2 k'^2)
        # (principal branch: sqrt(-1) = i).
        n = 2000
        F = eval_f(dn_half, n, -1.0)
        pis = pi_sequence(dn_half, n)
        log_scaled = (
            F.log_abs(n) + n * math.log(0.5) + math.log(n) - pis.log_abs(n)
        )
        target = math.sinh(ctx_half.K) / (2.0 * 0.5)
        assert math.exp(log_scaled) == pytest.approx(target, rel=5e-3)
        assert F.values[n].real > 0  # sign matches the positive target
