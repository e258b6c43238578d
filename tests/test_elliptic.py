import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from bdspec import (
    delta4,
    dn_spectral_measure,
    dn_taylor_moments,
    friedrichs_transform,
    jacobi_scd,
    krein_transform,
    laplace_dn,
    lemniscate_K0,
    make_context,
    moment_asymptote,
    make_quartic_spec,
    s_fraction,
    stieltjes_dn_rates,
)
from bdspec import elliptic

from conftest import K0_REF, K_HALF_REF

# mpmath 50-digit references for the order-4 trigonometric functions
DELTA_11_7J = {
    0: complex(-80154.875547428791573, -25956.542797975617339),
    1: complex(-38323.067083948413216, -75038.00393234138006),
    2: complex(25957.898738200388526, -80163.253979133737712),
    3: complex(75033.086253427208951, -38329.91579704222526),
}
DELTA1_29 = 259124621.81539298893
DELTA3_33 = -3604684176.9708505516


class TestContext:
    def test_small_k2_approaches_pi_half(self):
        ctx = make_context(1e-8)
        assert ctx.K == pytest.approx(math.pi / 2, rel=1e-8)

    def test_self_dual_point(self, ctx_half):
        assert ctx_half.K == pytest.approx(ctx_half.Kprime, rel=1e-15)
        assert ctx_half.K == pytest.approx(K_HALF_REF, rel=1e-13)

    def test_nome_identity(self):
        for k2 in (0.1, 0.5, 0.93):
            ctx = make_context(k2)
            assert ctx.q == pytest.approx(
                math.exp(-math.pi * ctx.Kprime / ctx.K), rel=1e-14
            )

    def test_monotone_in_k2(self):
        ks = [make_context(k2).K for k2 in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                make_context(bad)


class TestJacobiSCD:
    def test_origin(self, ctx_half):
        assert jacobi_scd(ctx_half, 0.0) == (0.0, 1.0, 1.0)

    def test_quarter_period(self, ctx_half):
        sn, cn, dn = jacobi_scd(ctx_half, ctx_half.K)
        assert sn == pytest.approx(1.0, abs=1e-14)
        assert cn == pytest.approx(0.0, abs=1e-14)
        assert dn == pytest.approx(math.sqrt(0.5), rel=1e-14)

    @pytest.mark.parametrize("k2", [0.1, 0.5, 0.9])
    def test_pythagorean_identities(self, k2, rng):
        ctx = make_context(k2)
        for u in rng.uniform(-4 * ctx.K, 4 * ctx.K, size=100):
            sn, cn, dn = jacobi_scd(ctx, float(u))
            assert abs(sn * sn + cn * cn - 1.0) < 1e-13
            assert abs(dn * dn + k2 * sn * sn - 1.0) < 1e-13
            assert math.sqrt(ctx.kprime2) <= dn <= 1.0

    @pytest.mark.parametrize("k2", [0.1, 0.5, 0.9, 0.999])
    def test_against_scipy(self, k2):
        ctx = make_context(k2)
        for u in np.linspace(-4 * ctx.K, 4 * ctx.K, 57):
            mine = jacobi_scd(ctx, float(u))
            ref = sp.ellipj(float(u), k2)[:3]
            for a, b in zip(mine, ref):
                assert abs(a - b) < 1e-12

    def test_periodicity(self, ctx_half):
        for u in (0.0, 0.37, 1.9, -2.2):
            d1 = jacobi_scd(ctx_half, u)[2]
            d2 = jacobi_scd(ctx_half, u + 2 * ctx_half.K)[2]
            assert abs(d1 - d2) < 1e-12

    def test_landen_ladder_is_short(self):
        # Where a_n and b_n settle an ulp apart, c_n sticks above the exit
        # threshold (243 of these 999 moduli, k^2 = 1/2 among them); the
        # ladder must end there instead of running on.
        levels = [len(make_context(i / 1000)._landen[1]) for i in range(1, 1000)]
        assert max(levels) <= 7

    # 1/2 and two moduli of the c > 0 grid 0.1 + (i + 1/2) 0.8/7 where c_n sticks.
    @pytest.mark.parametrize(
        "k2", [0.175, 0.5, 0.875, 0.1 + 1.5 * 0.8 / 7, 0.1 + 6.5 * 0.8 / 7]
    )
    def test_against_mpmath(self, k2):
        ctx = make_context(k2)
        us = [*np.linspace(-4 * ctx.K, 4 * ctx.K, 63), -ctx.K, ctx.K, 2 * ctx.K]
        with mp.workdps(30):
            for u in us:
                ref = [mp.ellipfun(f, mp.mpf(float(u)), m=k2) for f in ("sn", "cn", "dn")]
                for a, b in zip(jacobi_scd(ctx, float(u)), ref):
                    assert abs(a - float(b)) < 1e-14


class TestFourier:
    # The dn spectral masses are the cosine-series coefficients of dn.
    def test_psi0(self, ctx_half):
        assert dn_spectral_measure(ctx_half, 1).mass[0] == pytest.approx(
            math.pi / (2 * ctx_half.K)
        )

    def test_psi1(self, ctx_half):
        q = ctx_half.q
        ref = (2 * math.pi / ctx_half.K) * q / (1 + q * q)
        assert dn_spectral_measure(ctx_half, 1).mass[1] == pytest.approx(ref)

    def test_partial_sums_reach_dn0(self, ctx_half):
        total = dn_spectral_measure(ctx_half, 40).mass.sum()
        assert abs(total - 1.0) < 1e-12

    def test_series_reproduces_dn_pointwise(self, ctx_half):
        K = ctx_half.K
        mass = dn_spectral_measure(ctx_half, 40).mass
        for u in np.linspace(-1.5 * K, 2.5 * K, 20):
            series = mass[0] + sum(
                mass[n] * math.cos(n * math.pi * u / K) for n in range(1, 41)
            )
            assert abs(series - jacobi_scd(ctx_half, float(u))[2]) < 1e-10


class TestTaylorMoments:
    @pytest.mark.parametrize("k2", [0.3, 0.5, 0.999, 1.0])
    def test_printed_formulas(self, k2):
        s = dn_taylor_moments(k2, 3)
        assert s[0] == pytest.approx(1.0, rel=1e-12)
        assert s[1] == pytest.approx(k2, rel=1e-12)
        assert s[2] == pytest.approx(k2 * (4 + k2), rel=1e-12)
        assert s[3] == pytest.approx(k2 * (16 + 44 * k2 + k2 * k2), rel=1e-12)

    def test_k2_equal_one_order3_is_61(self):
        # the degenerate-parameter formula value; the discrete-measure route
        # does not exist at k2 = 1 (the period diverges)
        assert dn_taylor_moments(1.0, 3)[3] == pytest.approx(61.0, rel=1e-12)

    def test_extended_range_consistent(self):
        lo = dn_taylor_moments(0.5, 20)
        hi = dn_taylor_moments(0.5, 62)  # 102 working digits against 60
        for n in range(21):
            assert hi[n] == pytest.approx(lo[n], rel=1e-10)

    def test_asymptote_ratio(self, ctx_half):
        s = dn_taylor_moments(0.5, 25)
        log_est = moment_asymptote(ctx_half, 20)
        assert math.log(s[20]) == pytest.approx(log_est, abs=0.05)

    def test_asymptote_monotone_and_n0(self, ctx_half):
        # factorial growth dominates K'^(2n+1) from n = 1 onwards
        vals = [moment_asymptote(ctx_half, n) for n in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert moment_asymptote(ctx_half, 0) == pytest.approx(
            math.log(2.0 / ctx_half.Kprime)
        )


class TestDelta4:
    def test_values_at_zero(self):
        assert delta4(0, 0.0) == 1.0
        for l in (1, 2, 3):
            assert delta4(l, 0.0) == 0.0

    def test_closed_form_l2(self):
        ref = math.sin(math.sqrt(2)) * math.sinh(math.sqrt(2))
        assert delta4(2, 2.0).real == pytest.approx(ref, rel=1e-14)

    def test_complex_point_vs_mpmath(self):
        z = 11 + 7j
        for l in range(4):
            ref = DELTA_11_7J[l]
            assert abs(delta4(l, z) - ref) < 1e-12 * abs(ref)

    def test_large_argument_branch(self):
        assert delta4(1, 29.0).real == pytest.approx(DELTA1_29, rel=1e-12)
        assert delta4(3, 33.0).real == pytest.approx(DELTA3_33, rel=1e-12)

    def test_series_matches_exponential_form(self):
        # the two evaluation branches agree well inside the switch radius
        roots = [cmath.exp(1j * math.pi * (2 * j + 1) / 4) for j in range(4)]
        for l in (1, 3):
            for z in (12.0, 29.0, 18 + 9j):
                expo = 0.25 * sum(w ** (-l) * cmath.exp(w * z) for w in roots)
                assert abs(delta4(l, z) - expo) < 1e-11 * abs(expo)

    def test_derivative_chain(self):
        # delta0' = -delta3, delta1' = delta0, delta2' = delta1, delta3' = delta2
        x, h = 1.3, 1e-5
        pairs = {0: (3, -1.0), 1: (0, 1.0), 2: (1, 1.0), 3: (2, 1.0)}
        for l, (lp, sign) in pairs.items():
            fd = (delta4(l, x + h) - delta4(l, x - h)) / (2 * h)
            assert abs(fd - sign * delta4(lp, x)) < 1e-8

    def test_fourth_order_ode(self):
        # applying the derivative chain four times returns -delta_l; checked
        # against a fourth-difference stencil
        x, h = 1.7, 1e-2
        for l in range(4):
            d4 = (
                delta4(l, x + 2 * h)
                - 4 * delta4(l, x + h)
                + 6 * delta4(l, x)
                - 4 * delta4(l, x - h)
                + delta4(l, x - 2 * h)
            ) / h**4
            assert abs(d4 + delta4(l, x)) < 1e-3

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            delta4(4, 1.0)


class TestLemniscate:
    def test_value(self):
        assert lemniscate_K0() == pytest.approx(K0_REF, abs=1e-12)

    def test_cross_check_against_K_half(self, ctx_half):
        assert abs(math.sqrt(2.0) * lemniscate_K0() - ctx_half.K) < 1e-11

    def test_theta_at_zero(self):
        from bdspec import integrate

        # integral over an empty-length interval is not defined; theta(0) = 0
        # by convention, checked through a vanishingly small upper limit
        val = integrate(lambda u: 1.0 / math.sqrt(1 - u**4), 0.0, 1e-12)
        assert abs(val) < 1e-11


class TestLaplaceDN:
    def test_degenerate_small_k2(self):
        ctx = make_context(1e-9)
        for x in (1.0, 2.0 + 1.0j):
            assert abs(laplace_dn(ctx, x) - 1.0 / complex(x)) < 1e-6

    def test_matches_s_fraction(self, ctx_half, dn_half):
        v = laplace_dn(ctx_half, 1.0)
        s = s_fraction(dn_half, 400, 1.0)
        assert abs(v - s) < 1e-9

    def test_fourier_form(self, ctx_half):
        x = 2 + 1j
        K = ctx_half.K
        mass = dn_spectral_measure(ctx_half, 59).mass
        total = mass[0] / x
        for n in range(1, 60):
            tn = (n * math.pi / K) ** 2
            total += mass[n] * x / (x * x + tn)
        assert abs(laplace_dn(ctx_half, x) - total) < 1e-9

    def test_domain(self, ctx_half):
        with pytest.raises(ValueError):
            laplace_dn(ctx_half, -1.0 + 2j)

    @pytest.mark.parametrize("x", [1e-4, 1e-6, 1e-8, 1e-14, 1e-20, 1e-300, 1e-6 + 1e-6j])
    def test_small_x_vs_fourier_series(self, ctx_half, x):
        # dn u = pi/2K + (2 pi/K) sum q^n/(1 + q^2n) cos(n pi u/K), transformed
        # termwise in 30 digits (q = e^-pi at k^2 = 1/2). 1 - e^(-2xK)
        # cancels at small x, and rounds to 0 below x ~ 3e-17.
        with mp.workdps(30):
            z, K = mp.mpc(x), mp.ellipk(mp.mpf(0.5))
            ref = mp.pi / (2 * K * z)
            for n in range(1, 30):
                w = n * mp.pi / K
                ref += 2 * mp.pi / K * mp.exp(-n * mp.pi) / (1 + mp.exp(-2 * n * mp.pi)) * z / (z * z + w * w)
            ref = complex(ref)
        assert abs(laplace_dn(ctx_half, x) - ref) <= 1e-14 * abs(ref)


class TestNodeTable:
    """(sn, cn, dn) kept per context at the quadrature nodes it has seen."""

    XS = (0.7, 2.0 + 5.0j, 11.0 - 30.0j, 19.5 + 0.25j)
    QXS = (0.1, 3.0 - 2.0j, -40.0 + 7.0j, 900.0j, 1e4 * cmath.exp(0.3j))

    @staticmethod
    def _bits(v):
        return complex(v).real.hex(), complex(v).imag.hex()

    def test_warm_calls_equal_cold_calls(self):
        warm = make_context(0.8)
        warm_spec = make_quartic_spec()
        for x in self.XS + self.XS:
            assert self._bits(laplace_dn(warm, x)) == self._bits(laplace_dn(make_context(0.8), x))
        for x in self.QXS + self.QXS:
            for fn in (friedrichs_transform, krein_transform):
                cold = fn(make_quartic_spec(), x)
                assert self._bits(fn(warm_spec, x)) == self._bits(cold)
        assert warm._nodes and warm_spec.ctx_half._nodes

    def _count(self, monkeypatch):
        calls = []
        scd = elliptic.jacobi_scd
        monkeypatch.setattr(elliptic, "jacobi_scd", lambda ctx, u: calls.append(u) or scd(ctx, u))
        return calls

    def test_new_x_computes_only_new_nodes(self, monkeypatch):
        calls = self._count(monkeypatch)
        ctx, spec = make_context(0.3), make_quartic_spec()
        for table, call in (
            (ctx._nodes, lambda x: laplace_dn(ctx, x)),
            (spec.ctx_half._nodes, lambda x: friedrichs_transform(spec, x)),
            (spec.ctx_half._nodes, lambda x: krein_transform(spec, x)),
        ):
            for x in (1.0, 3.0 + 40.0j, 1.0 + 1e-3j):
                seen = set(table)
                calls.clear()
                call(x)
                # one jacobi_scd per node not in the table before, none at a repeat
                assert len(calls) == len(set(calls)) == len(table) - len(seen)
                assert not seen.intersection(calls)
            calls.clear()
            call(1.0)
            assert calls == []

    def test_table_stops_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_NODE_TABLE_MAX", 40)
        calls = self._count(monkeypatch)
        ctx = make_context(0.5)
        first = laplace_dn(ctx, 2.0 + 3.0j)
        assert len(ctx._nodes) == 40
        calls.clear()
        again = laplace_dn(ctx, 2.0 + 3.0j)
        assert len(ctx._nodes) == 40
        # nodes past the bound are computed at every call, to the same bits
        assert calls and not set(ctx._nodes).intersection(calls)
        cold = laplace_dn(make_context(0.5), 2.0 + 3.0j)
        assert self._bits(again) == self._bits(first) == self._bits(cold)


def test_quartic_spec_consistency(qspec):
    assert qspec.qperiod == pytest.approx(qspec.ctx_half.K, rel=1e-14)
