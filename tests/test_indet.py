import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest

from bdspec import (
    DET_H,
    DET_S_INDET_H,
    INDET_S_INDET_H,
    BirthDeathRates,
    ConvergenceError,
    DeterminacyError,
    PoleError,
    Tolerance,
    alpha_limit,
    asymptotic_checks,
    border_measure,
    classify,
    custom_rates,
    dual_rates,
    eval_f,
    eval_pq,
    friedrichs_transform,
    generalized_ratio,
    j_fraction,
    jacobi_from_rates,
    krein_transform,
    laplace_dn,
    make_context,
    markov_iterates,
    markov_like_limit,
    markov_limit,
    modified_entries_dual,
    nevanlinna_batch,
    nevanlinna_eval,
    nextremal_measure,
    nextremal_transform,
    pi_alpha,
    pi_sequence,
    quartic_rates,
    s_fraction,
    stieltjes_cn_rates,
    stieltjes_dn_rates,
)

from bdspec import indet, recurrence
from bdspec.numerics import neville_extend, richardson_sum
from bdspec.recurrence import (
    _advance,
    _coefficients,
    _qp_ratios,
    _start,
    _stieltjes_band,
    eval_pq_mp,
)
from conftest import ALPHA_QUARTIC_REF, f_recurrence_mp


class TestClassify:
    def test_quartic_indet(self, quartic0):
        det = classify(quartic0, 4000)
        assert det.verdict == INDET_S_INDET_H
        assert det.confident

    def test_dn_det(self, dn_half):
        det = classify(dn_half, 2000)
        assert det.verdict == DET_H
        assert det.confident

    def test_bounded_rates_det(self):
        rates = custom_rates(lambda n: 1.0, lambda n: 0.0 if n == 0 else 1.0)
        det = classify(rates, 1000)
        assert det.verdict == DET_H

    def test_requires_mu0_zero(self):
        with pytest.raises(ValueError):
            classify(quartic_rates(0.0, 2.0))

    @pytest.mark.parametrize("big_lambda", [True, False])
    @pytest.mark.filterwarnings("error")
    def test_rate_ratios_beyond_double_range(self, big_lambda):
        # lambda_n/mu_(n+1) = 1e600 or 1e-600: pi_n leaves double range from
        # n = 1, yet its log, the three series and the verdict stay defined.
        lam, mu = (1e300, 1e-300) if big_lambda else (1e-300, 1e300)
        det = classify(custom_rates(lambda n: lam, lambda n: 0.0 if n == 0 else mu), 100)
        assert det.verdict == DET_H and det.confident
        # sum 1/(mu_n pi_n) is 1e-300 (1 + 1e-600 + ...) in the first case,
        # and diverges in the second
        third = pytest.approx(1e-300, rel=1e-12) if big_lambda else math.inf
        assert det.series_values == (math.inf, math.inf, third)

    def test_series_values_shape(self, quartic0):
        det = classify(quartic0, 2000)
        assert len(det.series_values) == 3
        assert len(det.tail_estimates) == 3
        assert det.series_values[2] < 0.1207  # partial sum below the limit


class TestNevanlinna:
    def test_exact_values_at_zero(self, quartic0):
        nv = nevanlinna_eval(quartic0, 0.0)
        assert (nv.A, nv.B, nv.C, nv.D) == (0j, -1 + 0j, 1 + 0j, 0j)
        assert nv.det_defect == 0.0

    def test_det_identity_at_x5(self, quartic0):
        nv = nevanlinna_eval(quartic0, 5.0)
        assert nv.det_defect < 1e-9

    def test_refuses_determinate(self, dn_half):
        with pytest.raises(ValueError):
            nevanlinna_eval(dn_half, 1.0)

    def test_settles_from_early_checkpoints(self, quartic0):
        # The checkpoints start at 64, so 3+4i settles at 365 terms.
        assert nevanlinna_eval(quartic0, 3 + 4j).terms_used <= 2051

    def test_ladder_starts_at_64(self, quartic0, qspec):
        # On the ladder from 64, 3+4i settles at checkpoint 362 (365 terms);
        # on the one from 128 it ran to 727.
        nv = nevanlinna_eval(quartic0, 3 + 4j)
        assert nv.terms_used <= 365
        kr = krein_transform(qspec, 3 + 4j)
        assert abs(nv.C / nv.D - kr) <= 1e-11 * abs(kr)

    def test_truncation_det_identity_along_summation(self, quartic0):
        # A_n D_n - B_n C_n = 1 at every level of the partial sums
        x = 2.2 + 0.7j
        n = 150
        P, Q = eval_pq(quartic0, n, x)
        pis, ainv = pi_alpha(quartic0, n)
        A = 0.0j
        B = -1.0 + 0.0j
        C = 1.0 + 0.0j
        D = 0.0j
        for k in range(n):
            pk0 = (-1.0) ** k * math.sqrt(pis.value(k).real)
            qk0 = pk0 * ainv.value(k).real
            A += x * qk0 * Q.value(k)
            B += x * qk0 * P.value(k)
            C += x * pk0 * Q.value(k)
            D += x * pk0 * P.value(k)
            assert abs(A * D - B * C - 1.0) < 1e-10

    def test_mk3_ratio_identity(self, quartic0, rng):
        # Q_n/P_n = (A_n alpha_n - C_n)/(B_n alpha_n - D_n) at every n
        x = complex(rng.normal(), rng.uniform(0.5, 2))
        n = 60
        P, Q = eval_pq(quartic0, n, x)
        pis, ainv = pi_alpha(quartic0, n)
        A, B, C, D = 0.0j, -1.0 + 0.0j, 1.0 + 0.0j, 0.0j
        for k in range(n):
            if k >= 1:
                # before adding term k the sums are A_k, ..., D_k
                an = ainv.value(k).real
                lhs = Q.value(k) / P.value(k)
                rhs = (A / an - C) / (B / an - D)
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
            pk0 = (-1.0) ** k * math.sqrt(pis.value(k).real)
            qk0 = pk0 * ainv.value(k).real
            A += x * qk0 * Q.value(k)
            B += x * qk0 * P.value(k)
            C += x * pk0 * Q.value(k)
            D += x * pk0 * P.value(k)

    def test_mk8_proportionality(self, quartic0):
        # script-Q_n = rho_n C_n and script-P_n = rho_n D_n. The constant is
        # the Wronskian of (P, Q) at 0, rho_n = 1/b_(n-1); the historical
        # (-1)^(n+1)/(mu_n sqrt(pi_n)) value agrees only at n = 1.
        x = 1.3 + 0.8j
        n = 30
        P, Q = eval_pq(quartic0, n, x)
        pis, ainv = pi_alpha(quartic0, n)
        lam, mu = quartic0.tabulate(n)
        A, B, C, D = 0.0j, -1.0 + 0.0j, 1.0 + 0.0j, 0.0j
        for k in range(n):
            pk0 = (-1.0) ** k * math.sqrt(pis.value(k).real)
            if k >= 1:
                # before adding term k the sums are C_k, D_k
                rho = 1.0 / math.sqrt(lam[k - 1] * mu[k])
                pk0m = (-1.0) ** (k - 1) * math.sqrt(pis.value(k - 1).real)
                script_q = pk0m * Q.value(k) - pk0 * Q.value(k - 1)
                script_p = pk0m * P.value(k) - pk0 * P.value(k - 1)
                assert abs(script_q - rho * C) < 1e-10 * max(1.0, abs(script_q))
                assert abs(script_p - rho * D) < 1e-10 * max(1.0, abs(script_p))
            qk0 = pk0 * ainv.value(k).real
            A += x * qk0 * Q.value(k)
            B += x * qk0 * P.value(k)
            C += x * pk0 * Q.value(k)
            D += x * pk0 * P.value(k)


class TestAlpha:
    def test_value(self, quartic0):
        assert alpha_limit(quartic0) == pytest.approx(ALPHA_QUARTIC_REF, abs=5e-11)

    def test_partial_sums_match_pi_alpha(self, quartic0):
        pis, ainv = pi_alpha(quartic0, 200)
        lam, mu = quartic0.tabulate(200)
        total = 0.0
        pi = 1.0
        for k in range(1, 201):
            pi *= lam[k - 1] / mu[k]
            total -= 1.0 / (mu[k] * pi)
        assert ainv.value(200).real == pytest.approx(total, rel=1e-13)

    def test_partial_alpha_monotone(self, quartic0):
        _, ainv = pi_alpha(quartic0, 500)
        alpha = alpha_limit(quartic0)
        gaps = [abs(ainv.value(n).real - 1.0 / alpha) for n in (10, 50, 100, 500)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_rejects_determinate(self, dn_half):
        with pytest.raises(ValueError):
            alpha_limit(dn_half)

    def test_unsettled_sum_names_the_budget(self, cubic):
        # The cubic family's terms fall like n^(-5/3), so the sum's tail goes
        # like n^(-2/3), not 1/n; the error names the budget and does not
        # contradict classify.
        assert classify(cubic).verdict == INDET_S_INDET_H
        with pytest.raises(ConvergenceError, match="within its 300000-term budget") as info:
            alpha_limit(cubic)
        assert "det S" not in str(info.value)

    def test_memo_is_keyed_by_tolerance(self):
        # A loose first call must not fix what a later default call returns.
        rates = quartic_rates(0.0, 0.0)
        loose = alpha_limit(rates, Tolerance(abs_tol=1e-3, rel_tol=1e-3, max_iter=300_000))
        assert loose != alpha_limit(rates)
        assert alpha_limit(rates) == alpha_limit(quartic_rates(0.0, 0.0)) == -8.288766326879689


class TestNextremalTransform:
    def test_lambda_zero_is_krein_ratio(self, quartic0):
        nv = nevanlinna_eval(quartic0, 4 + 3j)
        assert nextremal_transform(nv, 0.0) == pytest.approx(nv.C / nv.D)

    def test_alpha_and_mu_infinity_agree(self, quartic0, rng):
        alpha = alpha_limit(quartic0)
        for _ in range(3):
            x = complex(rng.normal(scale=3), rng.uniform(0.5, 3))
            nv = nevanlinna_eval(quartic0, x)
            a = nextremal_transform(nv, alpha)
            b = nextremal_transform(nv, math.inf, convention="mu", alpha=alpha)
            assert abs(a - b) < 1e-10 * abs(a)

    def test_moebius_difference_factorization(self, quartic0):
        # with det = 1: T(mu1) - T(mu2) = (mu1 - mu2)/((Bt mu1 + D)(Bt mu2 + D))
        alpha = alpha_limit(quartic0)
        nv = nevanlinna_eval(quartic0, 2 + 2j)
        bt = nv.B - nv.D / alpha
        m1, m2 = 0.7, 2.9
        t1 = nextremal_transform(nv, m1, convention="mu", alpha=alpha)
        t2 = nextremal_transform(nv, m2, convention="mu", alpha=alpha)
        ref = (m1 - m2) / ((bt * m1 + nv.D) * (bt * m2 + nv.D))
        assert abs((t1 - t2) - ref) < 1e-10 * abs(ref)

    def test_mu_parametrization_consistent_with_lambda(self, quartic0):
        # T_mu(mu) must equal T_lambda(alpha mu/(mu - alpha)) pointwise
        alpha = alpha_limit(quartic0)
        nv = nevanlinna_eval(quartic0, 1.5 + 2.5j)
        for mu in (0.0, 0.4, 3.0, 50.0):
            lam = alpha * mu / (mu - alpha)
            a = nextremal_transform(nv, mu, convention="mu", alpha=alpha)
            b = nextremal_transform(nv, lam)
            assert abs(a - b) < 1e-10 * abs(b)

    def test_mu_requires_alpha(self, quartic0):
        nv = nevanlinna_eval(quartic0, 1j)
        with pytest.raises(ValueError):
            nextremal_transform(nv, 1.0, convention="mu")


class TestMarkovLike:
    def test_friedrichs_matches_matrix_combination(self, quartic0):
        x = 10 + 10j
        alpha = alpha_limit(quartic0)
        nv = nevanlinna_eval(quartic0, x)
        ref = (nv.A * alpha - nv.C) / (nv.B * alpha - nv.D)
        res = markov_like_limit(
            quartic0, x, "friedrichs", Tolerance(abs_tol=1e-7, rel_tol=1e-7, max_iter=5000)
        )
        assert res.converged
        assert abs(res.value - ref) < 1e-7

    def test_krein_matches_cd(self, quartic0, sweep):
        for rates, x in [(quartic0, 10 + 10j)] + sweep:
            nv = nevanlinna_eval(rates, x)
            res = markov_like_limit(
                rates, x, "krein", Tolerance(abs_tol=1e-7, rel_tol=1e-7, max_iter=5000)
            )
            assert res.converged
            assert abs(res.value - nv.C / nv.D) < 1e-7 * abs(nv.C / nv.D)

    def test_krein_ratios_match_mpmath(self):
        # Q/P on the even (Friedrichs) and odd (Krein) rows of the Stieltjes
        # band, averaged at each checkpoint, against the convergents -A_j/B_j
        # of the continued fraction stepped in 50-digit arithmetic.
        x = 10 + 10j
        cps = sorted({3000 // 2**j for j in range(5)})
        for c in (0.0, 0.5):
            rates = quartic_rates(c, 0.0)
            size = 2 * cps[-1] + 8
            lam, mu = (v.tolist() for v in rates.tabulate(size // 2))
            with mp.workdps(50):
                z = -mp.mpc(x.real, x.imag)
                pi, coef = mp.mpf(1), []
                for n in range(size // 2):
                    coef += [pi * z, 1 / (lam[n] * pi)]
                    pi *= mp.mpf(lam[n]) / mu[n + 1]
                a, b = [mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]  # j = -1, 0
                conv = [mp.mpf(0)]
                for d in coef[: size - 1]:
                    a, b = [a[1], d * a[1] + a[0]], [b[1], d * b[1] + b[0]]
                    conv.append(-a[1] / b[1])
            band = _stieltjes_band(rates, size)
            for parity in (0, 1):
                ks = 2 * np.add.outer(cps, np.arange(4)).ravel() + parity
                got = _qp_ratios(band, x, ks).reshape(-1, 4).mean(axis=1)
                for v, k in zip(got, ks[::4]):
                    ref = complex(sum(conv[k : k + 8 : 2]) / 4)
                    # measured worst 5.3e-15
                    assert abs(v - ref) <= 5e-14 * abs(ref)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0])
    def test_border_sweep(self, c, qspec):
        # Both border limits at the default tolerance against the closed forms
        # (c = 0) or the Nevanlinna combinations (c > 0), and the dual-series
        # entries against the latter, at one x per quadrant and |x| in
        # {1, 1e2, 1e4}.
        rates = quartic_rates(c, 0.0)
        alpha = alpha_limit(rates)
        for x in SWEEP_XS:
            nv = nevanlinna_eval(rates, x)
            if c == 0:
                refs = friedrichs_transform(qspec, x), krein_transform(qspec, x)
            else:
                refs = (nv.A * alpha - nv.C) / (nv.B * alpha - nv.D), nv.C / nv.D
            for mode, ref in zip(("friedrichs", "krein"), refs):
                res = markov_like_limit(rates, x, mode)
                assert res.converged
                assert abs(res.value - ref) <= 1e-12 * abs(ref)
            bt, at = modified_entries_dual(rates, x)
            for got, ref in ((bt, nv.B - nv.D / alpha), (at, nv.A - nv.C / alpha)):
                assert abs(got - ref) <= 1e-11 * abs(ref)

    def test_det_s_friedrichs(self):
        # lambda_n = (n+1)^8/(n+2)^4, mu_n = n^4: pi_n = 1/(n+1)^4, so the
        # Stieltjes problem is determinate and the Hamburger one is not. The
        # Friedrichs limit agrees with the J-form ratios Q_n/P_n through the
        # same extrapolation, which carry up to ~4e-9 of rounding here; the
        # Krein limit is refused.
        rates = BirthDeathRates(lambda n: (n + 1) ** 8 / (n + 2) ** 4, lambda n: n**4)
        assert classify(rates).verdict == DET_S_INDET_H
        cps = sorted({20000 // 2**j for j in range(5)})
        ks = np.add.outer(cps, np.arange(4)).ravel()
        hs = [1.0 / (cp + 1.5) for cp in cps]
        for x in (10 + 10j, -50 + 5j, 1e3 - 2e3j):
            ratios = _qp_ratios(_coefficients(rates, ks[-1] + 1), x, ks).reshape(-1, 4).mean(axis=1)
            row = []
            for r in ratios:
                row, _ = neville_extend(hs, row, r)
            ref = complex(row[-1])
            res = markov_like_limit(rates, x, "friedrichs")
            assert res.converged
            assert abs(res.value - ref) <= 1e-8 * abs(ref)
        with pytest.raises(ValueError):
            markov_like_limit(rates, 10 + 10j, "krein")

    def test_herglotz_both_modes(self, quartic0):
        for mode in ("friedrichs", "krein"):
            res = markov_like_limit(quartic0, 3 + 4j, mode)
            assert res.value.imag < 0

    def test_validation(self, quartic0, dn_half):
        with pytest.raises(ValueError):
            markov_like_limit(quartic0, 2.0, "friedrichs")
        with pytest.raises(ValueError, match="real x < 0"):
            markov_like_limit(quartic0, 0.0, "krein")
        with pytest.raises(ValueError):
            markov_like_limit(quartic0, 1j, "other")
        with pytest.raises(ValueError):
            markov_like_limit(dn_half, 1j, "krein")

    @pytest.mark.parametrize("c", [0.0, 0.25, 1.0])
    def test_negative_axis(self, c, qspec):
        # No border measure has support on x < 0, so both limits are real
        # there, and every N-extremal transform with lambda in (alpha, 0)
        # lies strictly between them; at c = 0 they are the closed forms.
        rates = quartic_rates(c, 0.0)
        alpha = alpha_limit(rates)
        for x in -np.logspace(-1.5, 3.5, 20):
            fr = markov_like_limit(rates, x, "friedrichs").value
            kr = markov_like_limit(rates, x, "krein").value
            assert fr.imag == kr.imag == 0
            if c == 0:
                assert abs(fr - friedrichs_transform(qspec, x)) <= 1e-12 * abs(fr)
                assert abs(kr - krein_transform(qspec, x)) <= 1e-12 * abs(kr)
            nv = nevanlinna_eval(rates, x)
            for f in (0.75, 0.5, 0.1):
                v = nextremal_transform(nv, f * alpha).real
                assert min(fr.real, kr.real) < v < max(fr.real, kr.real)

    def test_border_calls_march_few_rows(self, quartic0, monkeypatch):
        # Each call marches the band only until what it returns settles (the
        # border limits' ratio, the dual series' rows), where the whole
        # ladder is 2 (16384 + 3) + 2 rows.
        rows = []

        def counting(tab, xs, carry, lo, hi):
            rows.append(hi - lo)
            return _advance(tab, xs, carry, lo, hi)

        monkeypatch.setattr(indet, "_advance", counting)
        monkeypatch.setattr(recurrence, "_advance", counting)
        calls = [lambda r, x, m=m: markov_like_limit(r, x, m) for m in ("friedrichs", "krein")]
        calls.append(modified_entries_dual)
        for rates in (quartic0, quartic_rates(0.5, 0.0), quartic_rates(1.0, 0.0)):
            for x in SWEEP_XS:
                for call in calls:
                    rows.clear()
                    call(rates, x)
                    assert sum(rows) <= 3000

    def test_far_rays_fall_back(self, quartic0, qspec):
        # At |x| = 1e10 the rows do not settle on the ladder, but the ratio of
        # their extrapolations does, at checkpoint 181, on the rays of the
        # reach study.
        for t in (0.05, 1.0, math.pi / 2, math.pi):
            x = 1e10 * cmath.exp(1j * t)
            for mode, closed in (("friedrichs", friedrichs_transform), ("krein", krein_transform)):
                ref = closed(qspec, x)
                assert abs(markov_like_limit(quartic0, x, mode).value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("modulus", [1e15, 1e100, 1e200])
    def test_far_field(self, quartic0, modulus):
        # Past |x| = 1e10 the rows pass 1e150 between checkpoints and carry
        # their own powers of two, and their ratio settles at checkpoint 181;
        # x F(x) tends to the mass 1 of the measure.
        for t in (0.05, 1.0, math.pi / 2, math.pi):
            x = modulus * cmath.exp(1j * t)
            for mode in ("friedrichs", "krein"):
                assert abs(x * markov_like_limit(quartic0, x, mode).value - 1) <= 1e-12

    def test_unsettled_calls_march_once(self, cubic, monkeypatch):
        # The cubic family's border limits and dual rows do not settle on the
        # ladder, nor do the averaged convergents of a det-S family at 10+10i
        # to 1e-12: each call marches once, at most the ladder's
        # 2 (16384 + 3) + 2 rows.
        rows = []

        def counting(tab, xs, carry, lo, hi):
            rows.append(hi - lo)
            return _advance(tab, xs, carry, lo, hi)

        monkeypatch.setattr(indet, "_advance", counting)
        monkeypatch.setattr(recurrence, "_advance", counting)
        det_s = BirthDeathRates(lambda n: (n + 1) ** 8 / (n + 2) ** 4, lambda n: n**4)
        for rates, mode in ((cubic, "friedrichs"), (cubic, "krein"), (det_s, "friedrichs")):
            rows.clear()
            markov_like_limit(rates, 10 + 10j, mode)
            assert sum(rows) <= 2 * (16384 + 3) + 2
        rows.clear()
        with pytest.raises(ConvergenceError, match="16384-term budget"):
            modified_entries_dual(cubic, 10 + 10j)
        assert sum(rows) <= 2 * (16384 + 3) + 2

    def test_far_field_calls_march_few_rows(self, quartic0, monkeypatch):
        # The ratio settles at checkpoint 181 on the four rays, where the rows
        # do not settle on the ladder (1e10) or leave [1e-150, 1e150] within a
        # step or two of each rescale (1e100).
        rows = []

        def counting(tab, xs, carry, lo, hi):
            rows.append(hi - lo)
            return _advance(tab, xs, carry, lo, hi)

        monkeypatch.setattr(indet, "_advance", counting)
        monkeypatch.setattr(recurrence, "_advance", counting)
        for modulus in (1e8, 1e10, 1e15, 1e100, 1e200):
            for t in (0.05, 1.0, math.pi / 2, math.pi):
                for mode in ("friedrichs", "krein"):
                    rows.clear()
                    markov_like_limit(quartic0, modulus * cmath.exp(1j * t), mode)
                    assert sum(rows) <= 2000

    @pytest.mark.parametrize("modulus, theta, mode, ref", [
        (30, 2.4, "friedrichs", -0.024224352312144794 - 0.02087757572994053j),
        (30, 3.1, "friedrichs", -0.031655332726630056 - 0.001260083605226525j),
        (300, 0.1, "krein", 0.0033403832519349804 - 0.0003380000080673576j),
        (100, 1.6, "krein", -0.0004762717212112492 - 0.00995841581495407j),
        (100, 0.8, "friedrichs", 0.006926011358793802 - 0.007377060118663647j),
    ])
    def test_cubic_claims_hold(self, cubic, modulus, theta, mode, ref):
        # The cubic family's limits do not settle on the ladder, and its
        # octave differences do not halve as the 1/n model has them, so a
        # call claims convergence only within its bound. References: the
        # march to checkpoint 2^23 plus the geometric remainder of its octave
        # differences, within 2.2e-10 of the march to 2^21.
        res = markov_like_limit(cubic, modulus * cmath.exp(1j * theta), mode)
        assert not res.converged or abs(res.value - ref) <= max(1e-8, 1e-8 * abs(ref))

    @pytest.mark.parametrize("x, ref", [
        (10 + 10j, 0.04997855795404913 - 0.05032327175500266j),
        (-50 + 5j, -0.019778186984701625 - 0.001975438291596043j),
        (1e3 - 2e3j, 0.0001999924941533048 + 0.0004000099989271539j),
    ])
    def test_det_s_friedrichs_matches_extended_references(self, x, ref):
        # test_det_s_friedrichs' family against 34-digit references: the
        # J-form convergents Q_k/P_k of recurrence._extended_rows, averaged
        # over four rows at the octave checkpoints 1024 ... 131072 and
        # Neville-extrapolated (spread 2.6e-13 at 10+10i).
        rates = BirthDeathRates(lambda n: (n + 1) ** 8 / (n + 2) ** 4, lambda n: n**4)
        res = markov_like_limit(rates, x, "friedrichs")
        assert res.converged
        assert abs(res.value - ref) <= 1e-10 * abs(ref)


class TestModifiedEntriesDual:
    def test_settles_at_1e6i(self, quartic0):
        # The march settles the rows here at checkpoint 2048, within the
        # default budget.
        alpha = alpha_limit(quartic0)
        nv = nevanlinna_eval(quartic0, 1e6j)
        bt, at = modified_entries_dual(quartic0, 1e6j)
        assert abs(bt - (nv.B - nv.D / alpha)) <= 1e-11 * abs(bt)
        assert abs(at - (nv.A - nv.C / alpha)) <= 1e-11 * abs(at)

    def test_at_zero(self, quartic0):
        bt, at = modified_entries_dual(quartic0, 0.0)
        assert bt == pytest.approx(-1.0)
        # A - C/alpha at 0 equals -1/alpha; the dual series gives it directly
        alpha = alpha_limit(quartic0)
        assert at == pytest.approx(-1.0 / alpha, rel=1e-9)

    def test_cross_path_agreement(self, quartic0, sweep):
        # |x| >= 3e3 needs the sixth checkpoint to settle at 1e-11.
        far = [m * 1j**q * cmath.exp(0.5j) for q in range(4) for m in (3e4, 1e5)]
        far.append(-21495.5 + 23680.5j)
        quarter = quartic_rates(0.25, 0.0)
        for rates, x in [(quartic0, 3 + 2j)] + sweep + [(quarter, x) for x in far]:
            alpha = alpha_limit(rates)
            bt, at = modified_entries_dual(rates, x)
            nv = nevanlinna_eval(rates, x)
            assert abs(bt - (nv.B - nv.D / alpha)) < 1e-11 * abs(bt)
            assert abs(at - (nv.A - nv.C / alpha)) < 1e-11 * abs(at)

    def test_real_on_real_axis(self, quartic0):
        bt, at = modified_entries_dual(quartic0, 0.75)
        assert abs(bt.imag) < 1e-12
        assert abs(at.imag) < 1e-12


class TestNextremalMeasure:
    def test_friedrichs_supports(self, quartic0, qspec):
        alpha = alpha_limit(quartic0)
        m = nextremal_measure(quartic0, alpha, window=(0.5, 21000))
        K = qspec.qperiod
        expected = [((2 * n + 1) * math.pi / K) ** 4 for n in range(4)]
        assert m.support.size == 4
        assert np.allclose(m.support, expected, rtol=1e-9)
        assert np.all(m.mass > 0)

    def test_krein_includes_zero(self, quartic0, qspec):
        m = nextremal_measure(quartic0, 0.0, window=(-0.5, 3000))
        K = qspec.qperiod
        assert m.support[0] == pytest.approx(0.0, abs=1e-12)
        assert m.support[1] == pytest.approx((2 * math.pi / K) ** 4, rel=1e-9)
        assert m.mass[0] == pytest.approx(math.pi / K**2, rel=1e-9)

    def test_krein_window_reaches_fifth_atom(self, quartic0, qspec):
        # (-0.5, 6e4) holds the Krein atoms 0, 131.9, ..., 3.38e4.
        m = nextremal_measure(quartic0, 0.0, window=(-0.5, 6e4))
        ref = border_measure(qspec, "krein", 30)
        inside = ref.support <= 6e4
        assert m.support.size == np.count_nonzero(inside) == 5
        assert m.support[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(m.support[1:], ref.support[inside][1:], rtol=1e-12, atol=0)
        assert np.allclose(m.mass, ref.mass[inside], rtol=1e-11, atol=0)

    def test_mu_convention_friedrichs_is_mu_infinity(self, quartic0):
        alpha = alpha_limit(quartic0)
        m_lam = nextremal_measure(quartic0, alpha, window=(0.5, 1000))
        m_mu = nextremal_measure(quartic0, math.inf, convention="mu", window=(0.5, 1000))
        assert np.allclose(m_lam.support, m_mu.support, rtol=1e-9)
        assert np.allclose(m_lam.mass, m_mu.mass, rtol=1e-8)

    def test_interlacing_between_parameters(self, quartic0):
        alpha = alpha_limit(quartic0)
        m0 = nextremal_measure(quartic0, 0.0, window=(-0.5, 6000))
        ma = nextremal_measure(quartic0, alpha, window=(-0.5, 6000))
        merged = np.sort(np.concatenate([m0.support, ma.support]))
        # strictly alternating supports
        labels = [s in set(m0.support) for s in merged]
        assert all(a != b for a, b in zip(labels, labels[1:]))

    def test_smallest_atom_monotone_in_mu(self, quartic0):
        firsts = []
        for mu in (0.0, 0.5, 4.0, math.inf):
            m = nextremal_measure(quartic0, mu, convention="mu", window=(-0.5, 200))
            firsts.append(m.support[0])
        assert all(a < b for a, b in zip(firsts, firsts[1:]))

    def test_refuses_determinate(self, dn_half):
        with pytest.raises(ValueError):
            nextremal_measure(dn_half, 0.0, window=(0, 10))

    def test_windows_below_zero_scan_the_lattice(self, quartic0):
        # Uniform in sign(s) |s|^(1/4): 34 points, not 513 uniform in s.
        assert indet._default_grid(quartic0, (-0.5, 11000)).size <= 40

    @pytest.mark.parametrize("window", [(0.0, 3000.0), (0.5, 21000.0), (2.0, 50.0)])
    def test_lattice_grid_for_nonnegative_windows(self, quartic0, window):
        lo, hi = window
        grid = indet._default_grid(quartic0, window)
        assert np.array_equal(grid, np.linspace(lo**0.25, hi**0.25, grid.size) ** 4)

    def test_negative_atom_on_the_lattice_scan(self, quartic0):
        # Frozen from a 513-point scan uniform in s.
        m = nextremal_measure(quartic0, 1.0, window=(-50, 3000))
        expected = [-0.8992827189139767, 121.50338897702083, 2089.7141854634324]
        assert m.support.size == 3
        for got, ref in zip(m.support, expected):
            assert got == pytest.approx(ref, rel=1e-10)

    def test_unconverged_masses_raise(self, quartic0):
        # 1e-15 is below what 16384 terms reach, so the pass that gives the
        # masses cannot settle.
        with pytest.raises(ConvergenceError, match="requested"):
            nextremal_measure(quartic0, 0.0, window=(-0.5, 200), tol=Tolerance(1e-15, 1e-15))

    def test_nonpositive_masses_raise(self, quartic0, monkeypatch):
        # Flipping the sign of every derivative turns each mass
        # 1/(B' D - B D') negative; that is a numerical failure, not bad input.
        assemble = indet._assemble

        def flipped(sums, xs):
            vals, dvals = assemble(sums, xs)
            return vals, None if dvals is None else -dvals

        monkeypatch.setattr(indet, "_assemble", flipped)
        with pytest.raises(ConvergenceError, match="nonpositive masses"):
            nextremal_measure(quartic0, 0.0, window=(-0.5, 200))

    def test_nonpositive_masses_name_their_brackets(self, quartic0, monkeypatch):
        # Only derivatives above 1000 are flipped, so of the Krein atoms 0,
        # 131.9 and 2110 only the last gets a negative mass.
        assemble = indet._assemble

        def flipped(sums, xs):
            vals, dvals = assemble(sums, xs)
            return vals, None if dvals is None else np.where(xs.real > 1000, -dvals, dvals)

        monkeypatch.setattr(indet, "_assemble", flipped)
        with pytest.raises(ConvergenceError, match="nonpositive masses") as info:
            nextremal_measure(quartic0, 0.0, window=(-0.5, 3000))
        named = str(info.value).split("offending brackets were")[1]
        brackets = [tuple(map(float, b.split(","))) for b in re.findall(r"\[([^\]]*)\]", named)]
        assert len(brackets) == 1
        assert brackets[0][0] < 2110.23 < brackets[0][1]

    @pytest.mark.parametrize("param, window", [("alpha", (0.5, 21000)), (0.0, (-0.5, 11000))])
    def test_bench_windows_take_seven_passes_at_most(self, quartic0, monkeypatch, param, window):
        # The scan, the Newton passes and the mass pass; fixed bisection took 19.
        param = alpha_limit(quartic0) if param == "alpha" else param
        sums = indet._nevanlinna_sums
        passes = []

        def counting(*args, **kwargs):
            passes.append(args[1].size)
            return sums(*args, **kwargs)

        monkeypatch.setattr(indet, "_nevanlinna_sums", counting)
        m = nextremal_measure(quartic0, param, window=window)
        assert m.support.size == 4
        assert len(passes) <= 7

    @pytest.mark.parametrize("window", [(-0.5, 3000), (-0.5, 11000), (0.5, 21000)])
    @pytest.mark.parametrize("mode", ["krein", "friedrichs"])
    def test_atoms_match_border_measure(self, quartic0, qspec, mode, window):
        # lambda = 0 gives the Krein measure, lambda = alpha the Friedrichs one.
        param = 0.0 if mode == "krein" else alpha_limit(quartic0)
        m = nextremal_measure(quartic0, param, window=window)
        ref = border_measure(qspec, mode, 30)
        inside = (window[0] <= ref.support) & (ref.support <= window[1])
        support, mass = ref.support[inside], ref.mass[inside]
        assert m.support.size == support.size
        assert np.all(np.abs(m.support - support) <= 1e-12 * np.where(support == 0, 1.0, support))
        assert np.allclose(m.mass, mass, rtol=1e-11, atol=0)

    def test_quarter_window_reaches_fifth_atom(self):
        # The mass pass stops on the mass, so whether the fifth root settles no
        # longer depends on the sum that vanishes there; under the per-sum rule
        # its last digits decided between 5 atoms and an error.
        m = nextremal_measure(quartic_rates(0.25, 0.0), 0.0, window=(-0.5, 6e4))
        assert m.support.size == 5
        assert m.support[4] == pytest.approx(43029.5004307636, rel=1e-12)
        assert np.all(m.mass > 0)

    def test_krein_window_reaches_sixth_atom(self, quartic0, qspec):
        # (-0.5, 1e5) adds the Krein atom 8.2e4; the per-sum rule stopped its
        # mass pass at the 16384-term cap.
        m = nextremal_measure(quartic0, 0.0, window=(-0.5, 1e5))
        ref = border_measure(qspec, "krein", 30)
        inside = ref.support <= 1e5
        assert m.support.size == np.count_nonzero(inside) == 6
        assert m.support[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(m.support[1:], ref.support[inside][1:], rtol=1e-12, atol=0)
        assert np.allclose(m.mass, ref.mass[inside], rtol=1e-11, atol=0)

    def test_friedrichs_window_keeps_its_ninth_atom(self, quartic0, qspec):
        # Next to the Friedrichs atoms past 4e5, B'D and BD' cancel, and the
        # increments carried into the mass stay above 1e-11 to the 16384-term
        # cap; the mass pass stops there once every sum has settled.
        m = nextremal_measure(quartic0, alpha_limit(quartic0), window=(-0.5, 1e6))
        ref = border_measure(qspec, "friedrichs", 30)
        inside = ref.support <= 1e6
        assert m.support.size == np.count_nonzero(inside) == 9
        assert np.allclose(m.support, ref.support[inside], rtol=1e-12, atol=0)
        assert np.allclose(m.mass, ref.mass[inside], rtol=1e-11, atol=0)

    @pytest.mark.parametrize(
        "param, window, most_terms",
        [
            ("alpha", (0.5, 21000), [184, 727, 727, 727, 727, 1027]),
            (0.0, (-0.5, 11000), [184, 515, 515, 515, 515, 727]),
        ],
    )
    def test_bench_windows_stop_each_pass_on_what_it_reads(
        self, quartic0, monkeypatch, param, window, most_terms
    ):
        # The scan stops a point on the sign of g, a Newton pass on the step
        # and the mass pass on the mass; when every pass waited for every sum
        # to settle, they ran to [1027] * 6 and [1027] + [1451] * 5 terms.
        param = alpha_limit(quartic0) if param == "alpha" else param
        sums = indet._nevanlinna_sums
        terms = []

        def counting(*args, **kwargs):
            out = sums(*args, **kwargs)
            terms.append(out[1].max())
            return out

        monkeypatch.setattr(indet, "_nevanlinna_sums", counting)
        m = nextremal_measure(quartic0, param, window=window)
        assert m.support.size == 4
        assert len(terms) <= len(most_terms)
        assert all(t <= cap for t, cap in zip(terms, most_terms))

    def test_krein_window_reaches_tenth_atom(self, quartic0, qspec):
        # (-0.5, 1e6) adds the Krein atoms 3.2e5 and 8.7e5, whose masses
        # settle on d = B'D - BD' at its last two extrapolations.
        m = nextremal_measure(quartic0, 0.0, window=(-0.5, 1e6))
        ref = border_measure(qspec, "krein", 30)
        inside = ref.support <= 1e6
        support = ref.support[inside]
        assert m.support.size == support.size == 10
        assert np.all(np.abs(m.support - support) <= 1e-12 * np.where(support == 0, 1.0, support))
        assert np.allclose(m.mass, ref.mass[inside], rtol=1e-11, atol=0)

    @pytest.mark.parametrize("param", [0.0, "alpha"])
    @pytest.mark.parametrize("c", [0.25, 1.0])
    def test_widest_window_moments(self, c, param):
        # lambda in {0, alpha} gives a positively supported measure, so
        # (-0.5, 1e6) holds all but a tail of its mass: s_0 = 1 and
        # s_1 = lambda_0, and at c = 1/4 s_2 = lambda_0^2 + lambda_0 mu_1 (at
        # c = 1 the window misses up to 3.6e-10 of s_2).
        rates = quartic_rates(c, 0.0)
        param = alpha_limit(rates) if param == "alpha" else param
        m = nextremal_measure(rates, param, window=(-0.5, 1e6))
        lam0, mu1 = rates.lam(0), rates.mu(1)
        assert abs(m.mass.sum() - 1.0) <= 1e-12
        assert abs(np.dot(m.mass, m.support) - lam0) <= 1e-11 * lam0
        if c == 0.25:
            s2 = lam0**2 + lam0 * mu1
            assert abs(np.dot(m.mass, m.support**2) - s2) <= 1e-12 * s2

    @pytest.mark.parametrize(
        "c, param, tol, atoms",
        [
            (0.0, 0.0, Tolerance(1e-13, 1e-13), 3),
            (1.0, math.inf, Tolerance(1e-11, 0), 2),
            # B'D and BD' cancel at these atoms, so the rounding of d stays
            # above 1e-13 to the cap; their masses settle on every sum.
            (0.0, "alpha", Tolerance(1e-13, 1e-13), 4),
        ],
    )
    def test_nondefault_tolerances(self, qspec, c, param, tol, atoms):
        rates = quartic_rates(c, 0.0)
        param = alpha_limit(rates) if param == "alpha" else param
        m = nextremal_measure(rates, param, window=(0.5, 21000), tol=tol)
        assert m.support.size == atoms
        assert np.all(m.mass > 0)
        if c == 0.0:
            ref = border_measure(qspec, "krein" if param == 0.0 else "friedrichs", 30)
            inside = (0.5 <= ref.support) & (ref.support <= 21000)
            assert np.allclose(m.support, ref.support[inside], rtol=1e-12, atol=0)
            assert np.allclose(m.mass, ref.mass[inside], rtol=1e-11, atol=0)

    def test_newton_cap_raises(self, quartic0, monkeypatch):
        monkeypatch.setattr(indet, "_NEWTON_CAP", 2)
        with pytest.raises(
            ConvergenceError, match=r"within 2 Newton passes in bracket \[.+\] \(last step "
        ):
            nextremal_measure(quartic0, 0.0, window=(-0.5, 3000))

    def test_newton_cap_names_the_relative_step(self, quartic0):
        # An abs_tol of 1e-11 at an atom near 5.1e3 asks for a few ulps: the
        # error shows the last step at rounding level relative to |s|.
        alpha = alpha_limit(quartic0)
        with pytest.raises(ConvergenceError, match=r"\(last step -3.02e-10, [0-9.e-]+ of \|s\|") as info:
            nextremal_measure(quartic0, alpha, window=(0.5, 21000), tol=Tolerance(1e-11, 0))
        assert float(re.search(r"e-10, ([0-9.e-]+) of", str(info.value)).group(1)) < 1e-13

    @pytest.mark.parametrize("param, window", [("alpha", (0.5, 21000)), (0.0, (-0.5, 11000))])
    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
    def test_masses_are_christoffel_numbers(self, c, param, window):
        # An N-extremal measure puts mass 1/sum_k P_k(s)^2 at each atom s
        # (the Christoffel function; Akhiezer 1965): an oracle where no
        # closed form exists, from the P rows alone. Over 16384 rows the
        # sums match to 3.5e-13 on these windows, and at c = 0 to 9.7e-14.
        rates = quartic_rates(c, 0.0)
        m = nextremal_measure(rates, alpha_limit(rates) if param == "alpha" else param, window=window)
        P, _ = eval_pq(rates, 16384, m.support)
        squares = (P.values.real * np.exp(P.scaling_log)) ** 2
        for k, mass in enumerate(m.mass):
            total = richardson_sum(squares[:, k], Tolerance(1e-13, 1e-13, 16385))
            assert total.converged
            assert abs(1.0 / total.value.real - mass) <= 1e-11 * mass

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="ROADMAP item 4: the scan accepts a sign that has not settled")
    def test_scan_reads_settled_signs(self, quartic0, qspec):
        # At its first admissible checkpoint (184 terms) the scan reads
        # g = +8.57e22 at 6675752.749, after 8.11e22; from 1027 terms on g
        # is -9.8065e20. So its bracket [6500096.3, 6675752.7] misses the
        # Krein atom 6676911.502, and Newton creeps to the bracket's end.
        m = nextremal_measure(quartic0, 0.0, window=(-0.5, 1e7))
        ref = border_measure(qspec, "krein", 40)
        inside = ref.support <= 1e7
        assert m.support.size == np.count_nonzero(inside) == 17
        assert m.support[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(m.support[1:], ref.support[inside][1:], rtol=1e-12, atol=0)


NONFINITE_XS = [complex(math.nan, 1.0), complex(math.inf, 0.0), complex(1.0, -math.inf)]


@pytest.mark.parametrize("x", NONFINITE_XS)
def test_nonfinite_points_raise_value_error(quartic0, x):
    # Bad input, not a series that failed to settle (or a nan value).
    with pytest.raises(ValueError, match="finite"):
        nevanlinna_eval(quartic0, x)
    with pytest.raises(ValueError, match="finite"):
        nevanlinna_batch(quartic0, [1j, x])
    for mode in ("friedrichs", "krein"):
        with pytest.raises(ValueError, match="finite"):
            markov_like_limit(quartic0, x, mode)
    with pytest.raises(ValueError, match="finite"):
        modified_entries_dual(quartic0, x)


@pytest.mark.parametrize("x", NONFINITE_XS)
def test_determinate_entry_points_refuse_nonfinite_points(dn_half, qspec, x):
    # Bad input, not nan values, a full budget of rows or a quadrature that
    # does not stabilize.
    ctx = make_context(0.5)
    calls = {
        "markov_limit": lambda: markov_limit(dn_half, x),
        "markov_iterates": lambda: markov_iterates(dn_half, x, [10]),
        "eval_pq": lambda: eval_pq(dn_half, 10, x),
        "eval_f": lambda: eval_f(dn_half, 10, x),
        "s_fraction": lambda: s_fraction(dn_half, 10, x),
        "j_fraction": lambda: j_fraction(jacobi_from_rates(dn_half, 10), 10, x),
        "laplace_dn": lambda: laplace_dn(ctx, x),
        "generalized_ratio": lambda: generalized_ratio(ctx, 0.5, x),
        "friedrichs_transform": lambda: friedrichs_transform(qspec, x),
        "krein_transform": lambda: krein_transform(qspec, x),
        "asymptotic_checks": lambda: asymptotic_checks(qspec, x, 600),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize(
    "window", [(0.0, math.inf), (-math.inf, 10.0), (math.nan, 10.0), (0.5, math.nan)]
)
def test_nonfinite_window_raises_value_error(quartic0, window):
    with pytest.raises(ValueError, match="finite"):
        nextremal_measure(quartic0, 0.0, window=window)


def _stalls(x: complex) -> bool:
    # Where the series is known to stall short of 1e-11: large |x| near the
    # positive axis.
    return abs(x) >= 5e3 and abs(cmath.phase(x)) <= math.radians(6)


# One x per quadrant and |x| in {1, 1e2, 1e4}, and the worst point of the c = 1/2
# Krein limit on a 200-point log-polar sweep when it read five checkpoints.
SWEEP_XS = [
    m * cmath.exp(1j * (q + 0.1) * math.pi / 2) for q in range(4) for m in (1.0, 1e2, 1e4)
] + [652.55 - 33.72j]


@pytest.fixture(scope="module")
def sweep(quartic0):
    """(rates, x) for c in {0, 0.5, 1} and x in SWEEP_XS."""
    families = (quartic0, quartic_rates(0.5, 0.0), quartic_rates(1.0, 0.0))
    return [(rates, x) for rates in families for x in SWEEP_XS if not _stalls(x)]


def test_nevanlinna_batch_matches_scalar(quartic0):
    # Each batch point stops on its own, so the batch reproduces single-point
    # evaluation: same values, same number of terms.
    rng = np.random.default_rng(11)
    for rates in (quartic0, quartic_rates(0.5, 0.0)):
        mags = 10.0 ** ((np.arange(6) + rng.uniform(size=(4, 6))) * 5 / 6)
        phases = (np.arange(4)[:, None] + rng.uniform(0.02, 0.98, size=(4, 6))) * math.pi / 2
        xs = [0.0] + [x for x in (mags * np.exp(1j * phases)).ravel() if not _stalls(x)]
        batch = nevanlinna_batch(rates, xs)
        for x, nv in zip(xs, batch):
            single = nevanlinna_eval(rates, x)
            assert nv.terms_used == single.terms_used
            for a, b in zip((nv.A, nv.B, nv.C, nv.D), (single.A, single.B, single.C, single.D)):
                assert abs(a - b) <= 1e-13 * abs(b)


# Log-polar points with |x| in [1, 1e5], two per quadrant at every half
# decade, and points within 0.02 rad of both halves of the real axis; the
# stall region is left out.
PLANE_XS = [
    x
    for x in [
        m * cmath.exp(1j * (q + f) * math.pi / 2)
        for m in 10.0 ** np.arange(0.0, 5.5, 0.5)
        for q in range(4)
        for f in (0.3, 0.8)
    ]
    + [
        m * cmath.exp(1j * t)
        for m in (1.0, 30.0, 1e3, 3e4, 1e5)
        for t in (0.01, -0.015, math.pi - 0.01, 0.02 - math.pi)
    ]
    if not _stalls(x)
]


@pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0])
def test_nevanlinna_schedule_over_the_plane(c, qspec):
    # One batch settles every point (it raises otherwise), the determinant
    # identity holds, and at c = 0 both border transforms match their closed
    # forms.
    rates = quartic_rates(c, 0.0)
    vals = nevanlinna_batch(rates, PLANE_XS)
    for nv in vals:
        ad = nv.A * nv.D
        assert abs(ad - nv.B * nv.C - 1.0) <= 1e-12 * max(1.0, abs(ad))
    if c == 0.0:
        alpha = alpha_limit(rates)
        for nv in vals:
            kr = krein_transform(qspec, nv.x)
            fr = friedrichs_transform(qspec, nv.x)
            assert abs(nv.C / nv.D - kr) <= 1e-12 * abs(kr)
            assert abs((nv.A * alpha - nv.C) / (nv.B * alpha - nv.D) - fr) <= 1e-12 * abs(fr)


# A 96 point-step chunk holds one point per chunk from the first segment on
# (65 rows), so points settle, and leave the series, across chunk boundaries.
SMALL_CHUNK = 96


def _at_both_chunks(monkeypatch, call):
    """``call()`` at the kernel's chunk size, then at SMALL_CHUNK."""
    wide = call()
    monkeypatch.setattr(indet, "_CHUNK", SMALL_CHUNK)
    return wide, call()


def test_batch_bits_do_not_depend_on_the_chunk(quartic0, monkeypatch):
    wide, narrow = _at_both_chunks(monkeypatch, lambda: nevanlinna_batch(quartic0, PLANE_XS))
    assert len({nv.terms_used for nv in wide}) > 1  # points leave at different checkpoints
    assert repr(wide) == repr(narrow)


@pytest.mark.parametrize("param, window", [("alpha", (0.5, 21000.0)), (0.0, (-0.5, 11000.0))])
def test_bench_window_bits_do_not_depend_on_the_chunk(quartic0, monkeypatch, param, window):
    param = alpha_limit(quartic0) if param == "alpha" else param
    wide, narrow = _at_both_chunks(
        monkeypatch, lambda: nextremal_measure(quartic0, param, window=window)
    )
    assert wide.support.tobytes() == narrow.support.tobytes()
    assert wide.mass.tobytes() == narrow.mass.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk", [recurrence._CHUNK, SMALL_CHUNK])
@pytest.mark.parametrize("big", [1e12j, 8e9j])
def test_growth_guard_names_its_point_in_a_batch(quartic0, monkeypatch, chunk, big):
    # 1e12i leaves the range in the first segment, with every point running;
    # 8e9i at 515 terms, after the other two settled at 365 and left.
    monkeypatch.setattr(indet, "_CHUNK", chunk)
    with pytest.raises(ConvergenceError, match=re.escape(f"at x = {big:.6g}: the series leaves")):
        nevanlinna_batch(quartic0, [4 + 3j, 10 + 1j, big])


# Low-discrepancy points of the wedge where `_stalls` puts the series'
# rounding floor: |x| in [5e3, 1e5] within 6 degrees of the positive axis.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
WEDGE_XS = [
    5e3 * 20.0 ** ((i * _GOLDEN) % 1.0)
    * cmath.exp(1j * math.radians(12.0 * ((i * math.sqrt(2.0)) % 1.0 - 0.5)))
    for i in range(500)
]


def _combination_error(num_terms, den_terms, ref):
    """|num - ref den| over the moduli of the terms of num and den: how far,
    relatively and to first order, the entries behind num/den are from
    giving ``ref``. Unlike the relative error of num/den it does not grow
    where den cancels, next to an atom."""
    num, den = sum(num_terms), sum(den_terms)
    scale = sum(map(abs, num_terms)) + abs(ref) * sum(map(abs, den_terms))
    return abs(num - ref * den) / scale


@pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0])
def test_stall_wedge_settles(c, qspec):
    # One batch settles every point (it raises otherwise). Measured worst
    # cases: |AD - BC - 1| 9.0e-12 of max(1, |AD|) (c = 1/2); at c = 0 the
    # Krein entries 3.7e-13 from the closed form (which is itself good to
    # about 2e-13) and the Friedrichs ones 9.8e-15. Relative to the
    # transforms those are 7.3e-13 and 7.2e-12: next to a Friedrichs atom
    # B alpha - D cancels.
    rates = quartic_rates(c, 0.0)
    vals = nevanlinna_batch(rates, WEDGE_XS)
    for nv in vals:
        ad = nv.A * nv.D
        assert abs(ad - nv.B * nv.C - 1.0) <= 1e-11 * max(1.0, abs(ad))
    if c == 0.0:
        alpha = alpha_limit(rates)
        for nv in vals:
            kr = krein_transform(qspec, nv.x)
            fr = friedrichs_transform(qspec, nv.x)
            assert _combination_error([nv.C], [nv.D], kr) <= 1e-12
            assert _combination_error([nv.A * alpha, -nv.C], [nv.B * alpha, -nv.D], fr) <= 5e-14


@pytest.mark.parametrize("x", [2.5e6j, 1e7])
def test_reach_in_modulus(quartic0, qspec, x):
    # Checkpoints every half octave settle these at 2051 and 4099 terms;
    # every octave, they did not settle within the 16384-term cap.
    nv = nevanlinna_eval(quartic0, x)
    kr = krein_transform(qspec, x)
    assert abs(nv.C / nv.D - kr) <= 1e-11 * abs(kr)


def test_former_stall_point_settles():
    nv = nevanlinna_eval(quartic_rates(0.25, 0.0), 1e5 + 1e3j)
    ad = nv.A * nv.D
    assert abs(ad - nv.B * nv.C - 1.0) <= 1e-10 * max(1.0, abs(ad))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e10j, 1e12j, 1e20 + 1j])
def test_series_beyond_double_range_says_so(quartic0, x):
    # The family is indeterminate; the error says so, and numpy never gets to
    # warn about the rows.
    with pytest.raises(ConvergenceError, match="double range"):
        nevanlinna_eval(quartic0, x)


def test_unsettled_series_names_the_cap(quartic0):
    # At 1e8i more terms would help; a looser tolerance would not.
    with pytest.raises(ConvergenceError, match="16384-term cap"):
        nevanlinna_eval(quartic0, 1e8j)


def test_series_budget_above_the_default(quartic0, qspec):
    # The default budget ends at checkpoint 16384; 1e8i settles at 23173
    # terms on a 92682-term one.
    nv = nevanlinna_eval(quartic0, 1e8j, Tolerance(1e-11, 1e-11, 92682))
    assert nv.terms_used == 23173
    kr = krein_transform(qspec, 1e8j)
    assert abs(nv.C / nv.D - kr) <= 1e-11 * abs(kr)


BUDGETED_CALLS = {
    "nevanlinna_eval": lambda rates, tol: nevanlinna_eval(rates, 4 + 3j, tol),
    "nevanlinna_batch": lambda rates, tol: nevanlinna_batch(rates, [4 + 3j, 1e4j], tol),
    "nextremal_measure": lambda rates, tol: nextremal_measure(rates, 0.0, window=(-0.5, 11000), tol=tol),
    "friedrichs": lambda rates, tol: markov_like_limit(rates, 1e4j, "friedrichs", tol),
    "krein": lambda rates, tol: markov_like_limit(rates, 1e4j, "krein", tol),
    "modified_entries_dual": lambda rates, tol: modified_entries_dual(rates, 1e4j, tol),
}


@pytest.mark.parametrize("call", ["nevanlinna_eval", "nevanlinna_batch", "nextremal_measure"])
@pytest.mark.parametrize("budget, cap", [(200, "181-term cap"), (100, "91-term cap")])
def test_series_budget_below_the_default(quartic0, call, budget, cap):
    # 4+3i settles at 365 terms, the window's masses at 727. A 200-term
    # budget ends the ladder at checkpoint 181; a 100-term one at 91, short
    # of the four checkpoints a point settles on. The error names the cap.
    with pytest.raises(ConvergenceError, match=cap):
        BUDGETED_CALLS[call](quartic0, Tolerance(1e-11, 1e-11, budget))


@pytest.mark.parametrize("call", list(BUDGETED_CALLS))
def test_every_series_keeps_to_its_budget(quartic0, monkeypatch, call):
    # max_iter 256 ends the ladder at checkpoint 256: a series reads rows
    # below 256 + 3 of the coefficient table, a march rows below
    # 2 (256 + 3) + 2 of the Stieltjes band. A call that has not settled
    # by then may raise.
    reached = []

    def spying(tab, xs, carry, lo, hi):
        reached.append(hi <= (259 if isinstance(tab, recurrence._Coefficients) else 520))
        return _advance(tab, xs, carry, lo, hi)

    monkeypatch.setattr(indet, "_advance", spying)
    monkeypatch.setattr(recurrence, "_advance", spying)
    try:
        BUDGETED_CALLS[call](quartic0, Tolerance(1e-11, 1e-11, 256))
    except ConvergenceError:
        pass
    assert reached and all(reached)


# Every row leaves [1e-150, 1e150] at 1e300i, so the solve there rescales row
# by row; a 256-term budget keeps it short and reaches the same verdict.
@pytest.mark.parametrize(
    "x, budget", [(1e12j, 16388), (1e20 + 1j, 16388), (-1e11, 16388), (1e300j, 256)]
)
def test_dual_series_beyond_double_range_says_so(quartic0, x, budget):
    with pytest.raises(ConvergenceError, match="double range"):
        modified_entries_dual(quartic0, x, Tolerance(1e-11, 1e-11, budget))


def test_rescaled_solve_grows_its_segments_back(quartic0, monkeypatch):
    # At 1e160 every row leaves [1e-150, 1e150], so each segment is cut after
    # one row; the next one tries twice the cut, not a full _CHUNK span.
    advance = recurrence._advance
    rows = []

    def counting(tab, xs, carry, lo, hi):
        rows.append(hi - lo)
        return advance(tab, xs, carry, lo, hi)

    monkeypatch.setattr(recurrence, "_advance", counting)
    with pytest.raises(ConvergenceError, match="double range"):
        modified_entries_dual(quartic0, 1e160)
    assert sum(rows) <= 200_000


def test_unsettled_dual_series_names_the_budget(quartic0):
    # At 1e6i the rows settle within the default budget, not within 1024
    # terms, so the march ends unsettled and the error names that budget.
    with pytest.raises(ConvergenceError, match=r"1024-term budget \(achieved [0-9.e+]+ at"):
        modified_entries_dual(quartic0, 1e6j, Tolerance(1e-11, 1e-11, 1024))


@pytest.mark.parametrize("convention", ["lambda", "mu"])
def test_nan_parameter_raises_value_error(quartic0, convention):
    nv = nevanlinna_eval(quartic0, 4 + 3j)
    alpha = alpha_limit(quartic0)
    with pytest.raises(ValueError, match=f"parameter {convention} is nan"):
        nextremal_transform(nv, math.nan, convention=convention, alpha=alpha)
    with pytest.raises(ValueError, match=f"parameter {convention} is nan"):
        nextremal_measure(quartic0, math.nan, convention=convention, window=(-0.5, 200))


@pytest.mark.parametrize("call", [
    lambda r: nevanlinna_eval(r, 1 + 1j),
    lambda r: nevanlinna_batch(r, [1 + 1j, 2j]),
    alpha_limit,
    lambda r: markov_like_limit(r, 1 + 1j, "krein"),
    lambda r: modified_entries_dual(r, 1 + 1j),
    lambda r: nextremal_measure(r, 0.0, window=(0, 10)),
], ids=["nevanlinna_eval", "nevanlinna_batch", "alpha_limit", "markov_like_limit",
        "modified_entries_dual", "nextremal_measure"])
def test_determinate_family_raises_determinacy_error(call):
    # The one gate of the indeterminate half names the verdict; a fresh rates
    # object keeps other tests' memoized verdicts out of it.
    with pytest.raises(DeterminacyError, match="classification is DET_H") as info:
        call(stieltjes_dn_rates(0.5))
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda r: nevanlinna_eval(r, 1 + 1j),
    alpha_limit,
    lambda r: markov_like_limit(r, 1 + 1j, "friedrichs"),
], ids=["nevanlinna_eval", "alpha_limit", "markov_like_limit"])
def test_inconclusive_classification_raises_determinacy_error(call):
    # lambda_n = (n+1)^3, mu_n = n (n+1)^2 has pi_n = 1/(n+1)^2, so it is
    # det S on the divide, where classify says INDET_S_INDET_H unconfidently.
    rates = BirthDeathRates(lambda n: (n + 1.0) ** 3, lambda n: n * (n + 1.0) ** 2)
    assert not classify(rates).confident
    with pytest.raises(DeterminacyError, match="inconclusive"):
        call(rates)


@pytest.mark.parametrize("family, call", [
    ("quartic", lambda r: nevanlinna_eval(r, 1 + 1j)),
    ("dn", lambda r: markov_limit(r, 1 + 1j)),
], ids=["indeterminate", "determinate"])
def test_classify_then_gate_classifies_once(monkeypatch, family, call):
    # The gate of either half reads the classification that classify
    # memoized on the rates object.
    log_columns = indet._log_columns
    calls = []

    def spy(*args):
        calls.append(args[2])
        return log_columns(*args)

    monkeypatch.setattr(indet, "_log_columns", spy)
    rates = quartic_rates(0.0, 0.0) if family == "quartic" else stieltjes_dn_rates(0.5)
    classify(rates)
    call(rates)
    assert calls == [4001]


class TestSeriesKernel:
    def test_coefficient_table(self, quartic0):
        # pi_k, 1/alpha_k, P_k(0) and Q_k(0) against 30-digit products and sums
        n = 2000
        tab = _coefficients(quartic0, n + 1)
        P, Q = eval_pq(quartic0, n, 0.0)
        lam, mu = (v.tolist() for v in quartic0.tabulate(n))
        with mp.workdps(30):
            pi, ainv = mp.mpf(1), mp.mpf(0)
            for k in range(n + 1):
                if k:
                    pi *= mp.mpf(lam[k - 1]) / mu[k]
                    ainv -= 1 / (mu[k] * pi)
                    assert abs(math.exp(tab.log_pi[k]) - pi) <= 1e-13 * pi
                    assert abs(-math.exp(tab.log_ainv[k]) - ainv) <= 1e-13 * abs(ainv)
                p0 = (-1) ** k * mp.sqrt(pi)
                q0 = p0 * ainv
                assert abs(tab.weights[k, 1] - p0) <= 1e-13 * abs(p0)
                assert abs(tab.weights[k, 0] - q0) <= 1e-13 * abs(q0)
                # the recurrence at 0 drifts by up to 2e-12 relative over 2000
                # steps, so this comparison is absolute; |P_k(0)| <= 1
                assert abs(tab.weights[k, 1] - P.value(k)) < 1e-13
                assert abs(tab.weights[k, 0] - Q.value(k)) < 1e-13

    @pytest.mark.parametrize(
        "rates", [stieltjes_dn_rates(0.5), stieltjes_cn_rates(0.3)], ids=["dn", "cn"]
    )
    def test_log_columns_of_determinate_families(self, rates):
        # pi_k under- or overflows a double long before k = 2000 for these
        # families; the log columns stay finite and match 30-digit logs.
        n = 2000
        tab = _coefficients(rates, n + 1)
        lam, mu = (v.tolist() for v in rates.tabulate(n))
        assert np.all(np.isfinite(tab.log_pi)) and np.all(np.isfinite(tab.log_ainv[1:]))
        with mp.workdps(30):
            pi, ainv = mp.mpf(1), mp.mpf(0)
            for k in range(1, n + 1):
                pi *= mp.mpf(lam[k - 1]) / mu[k]
                ainv += 1 / (mu[k] * pi)
                assert abs(tab.log_pi[k] - mp.log(pi)) <= 1e-13 * max(1.0, abs(tab.log_pi[k]))
                assert abs(tab.log_ainv[k] - mp.log(ainv)) <= 1e-13 * max(1.0, abs(tab.log_ainv[k]))

    def test_dual_rows(self):
        # The dual system's rows give both dual F sequences: Ftilde_k =
        # w_k Ptilde_k and Fhat_k = w_k (Ptilde_k + lambda_0 Qtilde_k), with
        # w_k = (-1)^k sqrt(pitilde_k).
        n = 20
        for c in (0.0, 0.5):
            rates = quartic_rates(c, 0.0)
            tilde, hat = dual_rates(rates), dual_rates(rates, zero_related=True)
            pis = pi_sequence(tilde, n)
            for x in (2.0 + 1.0j, -40 - 15j, 3e3 + 1e2j):
                P, Q = eval_pq(tilde, n, x)
                Ft, Fh = f_recurrence_mp(tilde, n, x), f_recurrence_mp(hat, n, x)
                for k in range(n + 1):
                    w = (-1.0) ** k * math.sqrt(pis.value(k).real)
                    for F, y in ((Ft, P.value(k)), (Fh, P.value(k) + rates.lam(0) * Q.value(k))):
                        assert abs(F[k] - w * y) <= 1e-12 * abs(F[k])

    def test_kernel_rows_match_recurrence(self, quartic0):
        # P and Q against the 40-digit recurrence; P' and Q' against its
        # central difference with step 1e-15.
        n = 300
        tab = _coefficients(quartic0, n + 1)
        for x in (2.2 + 0.7j, -30 + 5j, 1e3 - 2e3j, 7.5):
            xs = np.array([complex(x)])
            rows = _advance(tab, xs, _start(tab, xs, 4), 2, n + 1)[:, 0, 2:]
            with mp.workdps(40):
                h = mp.mpf(10) ** -15
                xm = mp.mpmathify(x)
                ref = eval_pq_mp(quartic0, n, xm, 40)
                up, down = (eval_pq_mp(quartic0, n, xm + s * h, 40) for s in (1, -1))
                for k in range(2, n + 1):
                    refs = (ref[k][1], ref[k][0], (up[k][1] - down[k][1]) / (2 * h),
                            (up[k][0] - down[k][0]) / (2 * h))
                    for got, r in zip(rows[:, k - 2], map(complex, refs)):
                        assert abs(got - r) <= 1e-12 * abs(r)
