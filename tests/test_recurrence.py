import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdspec import (
    BirthDeathRates,
    ConvergenceError,
    custom_rates,
    dual_rates,
    eval_f,
    eval_pq,
    gauss_measure,
    generalized_c_rates,
    jacobi_from_rates,
    markov_iterates,
    pi_alpha,
    pi_sequence,
    quartic_rates,
    stieltjes_cn_rates,
    stieltjes_dn_rates,
)
from bdspec import recurrence
from bdspec.numerics import tridiag_eigen
from bdspec.recurrence import eval_pq_mp
from conftest import f_recurrence_mp


# The scalar rate formulas the families were tabulated from, one Python call
# per index: the reference for the array closed forms.
def _quartic_ref(c, mu0):
    def lam(n):
        s = 4 * n + 4 * c
        return (s + 1) * (s + 2) ** 2 * (s + 3)

    def mu(n):
        if n == 0:
            return mu0
        s = 4 * n + 4 * c
        return (s - 1) * s**2 * (s + 1)

    return lam, mu


def _dn_ref(k2):
    return (lambda n: k2 * (2 * n + 1) ** 2), (lambda n: 4.0 * n * n)


def _cn_ref(k2):
    return (lambda n: (2 * n + 1) ** 2), (lambda n: 4.0 * k2 * n * n)


def _generalized_c_ref(k2, c):
    return (
        lambda n: k2 * (2 * n + 2 * c + 1) ** 2,
        lambda n: 0.0 if n == 0 else 4.0 * (n + c) ** 2,
    )


def _dual_ref(ref, zero_related):
    lam, mu = ref
    return (lambda n: mu(n + 1)), (lambda n: 0.0 if zero_related and n == 0 else lam(n))


_TABULATED = (
    [(f"quartic-c{c:.3g}-mu{mu0:g}", lambda c=c, mu0=mu0: quartic_rates(c, mu0),
      _quartic_ref(c, mu0))
     for c in (0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0) for mu0 in (0.0, 7.0)]
    + [(f"dn-{k2}", lambda k2=k2: stieltjes_dn_rates(k2), _dn_ref(k2))
       for k2 in (0.1, 0.3, 0.5, 0.9)]
    + [(f"cn-{k2}", lambda k2=k2: stieltjes_cn_rates(k2), _cn_ref(k2))
       for k2 in (0.1, 0.3, 0.5, 0.9, 1.5)]
    + [(f"gc-{c}", lambda c=c: generalized_c_rates(0.5, c), _generalized_c_ref(0.5, c))
       for c in (0.3, 1.0, 1.5)]
    + [(f"{'zero-' if z else ''}dual-{name}", lambda f=f, z=z: dual_rates(f(), zero_related=z),
        _dual_ref(ref, z))
       for name, f, ref in (("quartic", lambda: quartic_rates(0.0, 0.0), _quartic_ref(0.0, 0.0)),
                            ("dn", lambda: stieltjes_dn_rates(0.5), _dn_ref(0.5)))
       for z in (False, True)]
)


class TestRates:
    def test_positivity_probe(self):
        with pytest.raises(ValueError):
            custom_rates(lambda n: 1.0 - 0.1 * n, lambda n: 1.0)
        with pytest.raises(ValueError):
            custom_rates(lambda n: 1.0, lambda n: -1.0)

    @pytest.mark.parametrize(
        "lam, mu, index",
        [
            (lambda n: 1.0 / n, lambda n: n, 0),  # lambda_0 = inf
            (lambda n: 1.0, lambda n: n - 1.0, 0),  # mu_0 < 0
            (lambda n: 1.0, lambda n: n * (n != 7), 7),
            (lambda n: np.sqrt(1500.0 - n) + 1.0, lambda n: n, 1501),  # nan beyond the probe
            (lambda n: 1.0, lambda n: n * (n < 1800.0), 1800),
            (lambda n: np.exp(n / 2.0), lambda n: n, 1420),  # overflow
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_first_bad_index_raises(self, lam, mu, index):
        with pytest.raises(ValueError, match=f"index {index}$"):
            BirthDeathRates(lam, mu).tabulate(2000)

    @pytest.mark.parametrize("name, make, ref", _TABULATED, ids=[t[0] for t in _TABULATED])
    def test_tabulate_matches_scalar_formulas(self, name, make, ref):
        n = 100_000
        lam, mu = make().tabulate(n)
        for got, f in ((lam, ref[0]), (mu, ref[1])):
            want = np.fromiter((float(f(k)) for k in range(n + 1)), dtype=float, count=n + 1)
            assert np.array_equal(got, want)

    def test_one_callback_per_growth(self):
        seen = []

        def counted(scale):
            def f(n):
                seen.append((scale, n.dtype, n[0], n[-1]))
                return scale * (n + 1.0)
            return f

        r = BirthDeathRates(counted(1.0), counted(2.0))
        assert seen == [(1.0, np.float64, 0.0, 1000.0), (2.0, np.float64, 0.0, 1000.0)]
        r.tabulate(700)
        r.tabulate(5000)
        r.tabulate(5000)
        assert seen[2:] == [(1.0, np.float64, 1001.0, 5000.0), (2.0, np.float64, 1001.0, 5000.0)]

    def test_scalar_callables_through_custom_rates(self):
        def mu(n):
            assert type(n) is int
            return 0.0 if n == 0 else 1.0

        lam, mu_tab = custom_rates(lambda n: 1.0, mu).tabulate(3000)
        assert np.array_equal(lam, np.ones(3001))
        assert np.array_equal(mu_tab, np.r_[0.0, np.ones(3000)])

    def test_scalar_and_array_access(self, quartic0):
        assert type(quartic0.lam(3)) is float and type(quartic0.mu(3)) is float
        lam, mu = quartic0.tabulate(10)
        assert np.array_equal(quartic0.lam(np.arange(11.0)), lam)
        assert np.array_equal(quartic0.mu(np.arange(11.0)), mu)
        assert quartic0.lam(10) == lam[10]

    def test_stieltjes_dn_values(self):
        r = stieltjes_dn_rates(0.5)
        assert r.lam(0) == 0.5
        assert r.mu(0) == 0.0
        assert r.mu(1) == 4.0
        with pytest.raises(ValueError):
            stieltjes_dn_rates(1.5)

    def test_tabulate_caches(self, dn_half):
        lam1, _ = dn_half.tabulate(10)
        lam2, _ = dn_half.tabulate(5)
        assert lam2.size == 6
        assert np.array_equal(lam1[:6], lam2)


class TestJacobiFromRates:
    def test_dn_first_coefficients(self, dn_half):
        jc = jacobi_from_rates(dn_half, 4)
        assert jc.a[0] == pytest.approx(0.5)
        assert jc.b[0] == pytest.approx(math.sqrt(2.0))

    def test_quartic_first_diagonal(self, quartic0):
        jc = jacobi_from_rates(quartic0, 2)
        assert jc.a[0] == pytest.approx(12.0)

    def test_constant_rates(self):
        r = custom_rates(lambda n: 1.0, lambda n: 0.0 if n == 0 else 1.0)
        jc = jacobi_from_rates(r, 5)
        assert jc.a[0] == pytest.approx(1.0)
        assert np.allclose(jc.a[1:], 2.0)
        assert np.allclose(jc.b, 1.0)


class TestPiAlpha:
    def test_pi0_is_one(self, dn_half):
        pis, _ = pi_alpha(dn_half, 5)
        assert pis.value(0) == 1.0

    def test_dn_pi1(self, dn_half):
        pis, _ = pi_alpha(dn_half, 3)
        assert pis.value(1).real == pytest.approx(0.125)

    def test_alpha_inv_partial_sums(self, quartic0):
        pis, ainv = pi_alpha(quartic0, 50)
        assert ainv.value(0) == 0.0
        total = 0.0
        lam, mu = quartic0.tabulate(50)
        pi = 1.0
        for k in range(1, 51):
            pi *= lam[k - 1] / mu[k]
            total -= 1.0 / (mu[k] * pi)
            assert ainv.value(k).real == pytest.approx(total, rel=1e-13)

    def test_requires_mu0_zero(self):
        r = quartic_rates(0.0, 5.0)
        with pytest.raises(ValueError):
            pi_alpha(r, 10)
        # pi alone stays available
        assert pi_sequence(r, 3).value(0) == 1.0

    def test_log_scaling_handles_decay(self, dn_half):
        pis, ainv = pi_alpha(dn_half, 2000)
        # pi_n ~ k^(2n)/(pi n): far below double underflow at n = 2000
        log_pi = pis.log_abs(2000)
        assert log_pi < -1300
        assert math.isfinite(log_pi)
        # 1/alpha_n grows geometrically, representable only through logs
        assert ainv.log_abs(2000) > 600


class TestEvalPQ:
    def test_initial_values(self, dn_half):
        P, Q = eval_pq(dn_half, 3, 0.37 + 0.2j)
        assert P.value(0) == 1.0
        assert Q.value(0) == 0.0
        jc = jacobi_from_rates(dn_half, 3)
        assert P.value(1) == pytest.approx((0.37 + 0.2j - jc.a[0]) / jc.b[0])
        assert Q.value(1) == pytest.approx(1.0 / jc.b[0])

    def test_value_at_zero_matches_pi(self, dn_half):
        P, Q = eval_pq(dn_half, 12, 0.0)
        pis, ainv = pi_alpha(dn_half, 12)
        for n in (3, 7, 12):
            assert P.value(n).real == pytest.approx(
                (-1.0) ** n * math.sqrt(pis.value(n).real), rel=1e-12
            )
            assert (Q.value(n) / P.value(n)).real == pytest.approx(
                ainv.value(n).real, rel=1e-12
            )

    @pytest.mark.parametrize("family", ["dn", "quartic"])
    def test_casorati_identity_double(self, family, dn_half, quartic0, rng):
        # In double precision the identity holds relative to the size of the
        # cancelling cross products (which grow ~2^n for the determinate
        # family); the strict 1e-10 check runs in extended precision below.
        rates = dn_half if family == "dn" else quartic0
        n = 50
        jc = jacobi_from_rates(rates, n + 1)
        for _ in range(3):
            x = complex(rng.normal(), rng.normal() + 0.5)
            P, Q = eval_pq(rates, n + 1, x)
            for k in (0, 5, 25, n):
                # P and Q carry independent scaling logs; combine per term
                t1 = P.values[k] * Q.values[k + 1] * np.exp(
                    P.scaling_log[k] + Q.scaling_log[k + 1]
                )
                t2 = P.values[k + 1] * Q.values[k] * np.exp(
                    P.scaling_log[k + 1] + Q.scaling_log[k]
                )
                w = jc.b[k] * (t1 - t2)
                scale = 1.0 + (k + 1) * jc.b[k] * (abs(t1) + abs(t2))
                assert abs(w - 1.0) < 1e-12 * scale

    @pytest.mark.parametrize("family", ["dn", "quartic"])
    def test_casorati_identity_extended(self, family, dn_half, quartic0, rng):
        import mpmath as mp

        from bdspec.recurrence import eval_pq_mp

        rates = dn_half if family == "dn" else quartic0
        n = 50
        jc = jacobi_from_rates(rates, n + 1)
        for _ in range(2):
            x = complex(rng.normal(), rng.normal() + 0.5)
            table = eval_pq_mp(rates, n + 1, x, dps=40)
            with mp.workdps(40):
                for k in (5, 25, n):
                    pk, qk = table[k]
                    pk1, qk1 = table[k + 1]
                    w = jc.b[k] * (pk * qk1 - pk1 * qk)
                    assert abs(complex(w) - 1.0) < 1e-10

    def test_derivative_sequences(self, dn_half, quartic0):
        # The Nevanlinna series' derivative rows: with four right-hand sides
        # _start and _advance carry (Q', P'), the recurrence differentiated
        # exactly, which a central difference of (Q, P) confirms.
        def rows_0_to_10(tab, xs, nrhs):
            return recurrence._advance(tab, xs, recurrence._start(tab, xs, nrhs), 2, 11)

        h = 1e-6
        for rates, xs in ((dn_half, [0.8 + 0.3j, -2.0 + 1j]), (quartic0, [3.0 + 4j])):
            tab = recurrence._coefficients(rates, 12)
            xs = np.array(xs)
            primed = rows_0_to_10(tab, xs, 4)[2:]
            fd = (rows_0_to_10(tab, xs + h, 2) - rows_0_to_10(tab, xs - h, 2)) / (2 * h)
            assert primed.shape == fd.shape == (2, xs.size, 11)
            assert np.all(np.abs(primed - fd) < 1e-6 * np.maximum(1.0, np.abs(fd)))

    def test_rescaling_keeps_values_finite(self, dn_half):
        P, Q = eval_pq(dn_half, 2000, 1j)
        assert np.all(np.isfinite(P.values))
        assert np.all(np.abs(P.values) < 1e151)
        # true magnitude reconstructed through the log channel
        assert P.log_abs(2000) > 500

    def test_mp_reference_returns_true_values(self, dn_half):
        # |P_2000(i)| = e^681.85: past any double, but not past mpmath
        table = eval_pq_mp(dn_half, 2000, 1j, dps=20)
        P, Q = eval_pq(dn_half, 2000, 1j)
        for seq, j in ((P, 0), (Q, 1)):
            log_abs = float(mp.log(abs(table[2000][j])))
            assert log_abs > 680
            assert abs(log_abs - seq.log_abs(2000)) < 1e-12 * log_abs

    def test_array_matches_points_exactly(self, dn_half, quartic0):
        # Each point of a batch gets bit for bit what it gets alone, also when
        # the solver rescales some points (growth at 1j, -1e5 + 1e3j and 3e4;
        # decay at 0) and not others, and past one segment (n = 9000).
        cases = [
            (dn_half, 2000, [1j, 0.3 - 2j, -1e5 + 1e3j, 0.0, 3e4, 7.0 + 1e-3j]),
            (dn_half, 9000, [1j, 0.0, 2.5 - 0.5j]),
            (quartic0, 300, [2.2 + 0.7j, -30 + 5j, 1e3 - 2e3j, 7.5]),
        ]
        for rates, n, xs in cases:
            P, Q = eval_pq(rates, n, np.array(xs))
            assert P.values.shape == (n + 1, len(xs))
            for i, x in enumerate(xs):
                P1, Q1 = eval_pq(rates, n, x)
                for got, one in ((P, P1), (Q, Q1)):
                    assert np.array_equal(got.values[:, i], one.values)
                    assert np.array_equal(got.scaling_log[:, i], one.scaling_log)


@pytest.mark.filterwarnings("error")
def test_rows_beyond_double_range_say_so(quartic0):
    # From |x| ~ 1e157, P_2 overflows in one step from P_1 ~ |x|, before a
    # rescale can act; the error names the range, and numpy never warns.
    for f in (lambda x: eval_pq(quartic0, 3000, x)[0], lambda x: eval_f(quartic0, 3000, x)):
        assert np.isfinite(f(1e156).values).all()
        for x in (1e160, 1e200j):
            with pytest.raises(ConvergenceError, match="double range in one step at x = "):
                f(x)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    family=st.sampled_from(["dn", "cn", "quartic"]),
    param=st.floats(0.05, 0.95),
    n=st.integers(2, 200),
    log10_abs=st.floats(-3.0, 5.0),
    quadrant=st.integers(0, 3),
    angle=st.floats(0.001, 0.999),
)
def test_eval_pq_matches_mp_reference(family, param, n, log10_abs, quadrant, angle):
    # Each P_k and Q_k against the 30-digit recurrence, its error measured
    # relative to the larger of |y_k| and |y_(k-1)|, which stays honest where
    # y_k crosses zero; param is k^2 for DN and CN, c for the quartic family.
    # The worst case over 600 random draws was 2.8e-12, so 1e-10 leaves room.
    quartic = lambda c: quartic_rates(c, 0.0)  # noqa: E731
    rates = {"dn": stieltjes_dn_rates, "cn": stieltjes_cn_rates, "quartic": quartic}[family](param)
    x = 10.0**log10_abs * cmath.exp(1j * (quadrant + angle) * math.pi / 2)
    P, Q = eval_pq(rates, n, x)
    table = eval_pq_mp(rates, n, x, dps=30)
    for seq, j, first in ((P, 0, 1.0), (Q, 1, 0.0)):
        prev = first
        for k in range(1, n + 1):
            ref = complex(table[k][j])
            assert abs(seq.value(k) - ref) <= 1e-10 * max(abs(ref), prev)
            prev = abs(ref)



def _pq_recurrence_mp(rates, n, x, dps):
    """P_0..P_n and Q_0..Q_n at ``x`` from b_k y_(k+1) = (x - a_k) y_k -
    b_(k-1) y_(k-1), P_0 = 1, Q_0 = 0, Q_1 = 1/b_0, stepped in ``dps``-digit
    mpmath arithmetic: the reference for the decimal kernel."""
    lam, mu = (v.tolist() for v in rates.tabulate(n + 1))
    with mp.workdps(dps):
        xm = mp.mpmathify(x)
        p, q, b_prev = [mp.mpf(1)], [mp.mpf(0)], mp.mpf(0)
        for k in range(n):
            b = mp.sqrt(mp.mpf(lam[k]) * mu[k + 1])
            t = xm - lam[k] - mu[k]
            p.append((t * p[k] - b_prev * (p[k - 1] if k else 0)) / b)
            q.append((t * q[k] - b_prev * q[k - 1] if k else 1) / b)
            b_prev = b
        return p, q


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    family=st.sampled_from(["dn", "cn", "generalized-c", "quartic"]),
    k2=st.floats(0.05, 0.95),
    c=st.floats(0.0, 1.5),
    n=st.integers(2, 200),
    log10_abs=st.floats(-3.0, 5.0),
    quadrant=st.integers(0, 3),
    angle=st.floats(0.001, 0.999),
    dps=st.sampled_from([20, 40, 100]),
)
def test_eval_pq_mp_matches_mpmath_recurrence(family, k2, c, n, log10_abs, quadrant, angle, dps):
    # The decimal kernel (dps + 2 digits) against the mpmath recurrence at
    # dps + 20, each error relative to the larger of |y_k| and |y_(k-1)|.
    # Near x = 0 the forward recurrence amplifies rounding as it does in
    # double precision (P_k(0) is the decaying solution of DN and
    # generalized-c): over 1,200 random draws the worst error was
    # 2.2e3 * 10^-dps (generalized-c, dps 20, |x| = 1.2e-3), where mpmath
    # at dps digits gave 6.9e3 * 10^-dps, so the bound is 10^(4 - dps).
    rates = {
        "dn": lambda: stieltjes_dn_rates(k2),
        "cn": lambda: stieltjes_cn_rates(k2),
        "generalized-c": lambda: generalized_c_rates(k2, c),
        "quartic": lambda: quartic_rates(c, 0.0),
    }[family]()
    x = 10.0**log10_abs * cmath.exp(1j * (quadrant + angle) * math.pi / 2)
    table = eval_pq_mp(rates, n, x, dps)
    refs = _pq_recurrence_mp(rates, n, x, dps + 20)
    with mp.workdps(dps + 20):
        bound = mp.mpf(10) ** (4 - dps)
        for j, ref in enumerate(refs):
            for k in range(1, n + 1):
                assert abs(table[k][j] - ref[k]) <= bound * max(abs(ref[k]), abs(ref[k - 1]))


def test_markov_iterates_extended_at_bench_point():
    # The benchmark's 40-digit call, against the 80-digit recurrence: two
    # guard digits give 1.2e-40, none would give 1.3e-38.
    rates, x = stieltjes_dn_rates(0.8174), 1.051 + 1.824j
    p, q = _pq_recurrence_mp(rates, 200, x, 80)
    with mp.workdps(80):
        for k, r in zip((50, 200), markov_iterates(rates, x, [50, 200], dps=40)):
            assert abs(r - q[k] / p[k]) <= mp.mpf("1e-38") * abs(q[k] / p[k])


def test_extended_table_kept_per_precision():
    # One decimal table per (rates, dps): a second call at the same dps
    # tabulates nothing, another dps gets its own table, and a longer call
    # grows the table in place with the entries a fresh table has.
    rates = stieltjes_dn_rates(0.3)
    sizes = []
    tabulate = rates.tabulate
    rates.tabulate = lambda n: sizes.append(n) or tabulate(n)
    first = eval_pq_mp(rates, 80, 0.5 + 1j, 40)
    tab = rates._store[("extended", 40)]
    assert eval_pq_mp(rates, 80, 0.5 + 1j, 40) == first
    assert eval_pq_mp(rates, 60, -2.0 + 0.1j, 40)[60] != first[60]
    assert len(sizes) == 1 and rates._store[("extended", 40)] is tab
    eval_pq_mp(rates, 80, 0.5 + 1j, 20)
    other = rates._store[("extended", 20)]
    assert len(sizes) == 2 and other is not tab
    assert (other[0].prec, tab[0].prec) == (22, 42)
    assert all(len(col) == 80 for col in tab[1:] + other[1:])
    eval_pq_mp(rates, 200, 0.5 + 1j, 40)
    assert len(sizes) == 3 and rates._store[("extended", 40)] is tab
    fresh = stieltjes_dn_rates(0.3)
    eval_pq_mp(fresh, 200, 0.5 + 1j, 40)
    assert fresh._store[("extended", 40)][1:] == tab[1:]


class TestEvalF:
    def test_f0(self, dn_half):
        F = eval_f(dn_half, 4, 2.3 + 1j)
        assert F.value(0) == 1.0

    def test_f1_one_step(self, quartic0):
        x = 0.7 + 0.1j
        F = eval_f(quartic0, 1, x)
        lam0, mu0, mu1 = quartic0.lam(0), quartic0.mu(0), quartic0.mu(1)
        assert F.value(1) == pytest.approx((lam0 + mu0 - x) / mu1)

    def test_f_at_zero_equals_pi(self, quartic0):
        F = eval_f(quartic0, 20, 0.0)
        pis = pi_sequence(quartic0, 20)
        for n in (1, 7, 20):
            assert F.value(n).real == pytest.approx(pis.value(n).real, rel=1e-12)

    def test_mt_identities_cross_paths(self, dn_half):
        # P_n = (-1)^n F_n / sqrt(pi_n) and Q_n = (-1)^(n-1) F^(1)_(n-1)/(mu_1 sqrt(pi_n))
        x = -1.0
        n = 30
        P, Q = eval_pq(dn_half, n, x)
        F = f_recurrence_mp(dn_half, n, x)
        F1 = eval_f(dn_half, n - 1, x, shift=1)
        pis = pi_sequence(dn_half, n)
        mu1 = dn_half.mu(1)
        for k in (5, 18, 30):
            lhs = P.value(k)
            rhs = (-1.0) ** k * F[k] / math.sqrt(pis.value(k).real)
            assert abs(lhs / rhs - 1.0) < 1e-10
        for k in (5, 18, 30):
            lhs = Q.value(k)
            rhs = (-1.0) ** (k - 1) * F1.value(k - 1) / (mu1 * math.sqrt(pis.value(k).real))
            assert abs(lhs / rhs - 1.0) < 1e-10

    def test_shifted_rates_built_once(self, monkeypatch):
        # The order-one associated rates sit in the store of the rates they
        # shift, so a second call tabulates nothing again.
        rates = stieltjes_dn_rates(0.5)
        built = []

        class Counted(BirthDeathRates):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(recurrence, "BirthDeathRates", Counted)
        first = eval_f(rates, 600, 1.5 + 1j, shift=1)
        again = eval_f(rates, 600, 1.5 + 1j, shift=1)
        assert len(built) == 1
        assert np.array_equal(first.values, again.values)
        assert np.array_equal(first.scaling_log, again.scaling_log)

    def test_markov_ratio_identity(self, quartic0):
        # Q_n/P_n = -F^(1)_(n-1) / (mu_1 F_n) termwise
        x = 3.7 + 1.1j
        n = 40
        P, Q = eval_pq(quartic0, n, x)
        F = eval_f(quartic0, n, x)
        F1 = eval_f(quartic0, n - 1, x, shift=1)
        mu1 = quartic0.mu(1)
        lhs = Q.value(n) / P.value(n)
        rhs = -F1.value(n - 1) / (mu1 * F.value(n))
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


    @pytest.mark.parametrize("system", ["plain", "shift", "dual", "zero_dual"])
    def test_matches_40_digit_recurrence(self, system, quartic0, dn_half):
        # F_k read off the kernel rows, for every k <= n, against the F
        # recurrence stepped in 40 digits.
        shift = 1 if system == "shift" else 0
        cases = [(quartic0, 600, (2.0 + 1.0j, -40 - 15j, 3e3 + 1e2j, 0.5j))]
        if system == "plain":
            cases.append((dn_half, 200, (-1.0 + 0.3j, 7.0 - 2.0j)))
        for rates, n, xs in cases:
            if system in ("dual", "zero_dual"):
                rates = dual_rates(rates, zero_related=(system == "zero_dual"))
            for x in xs:
                F = eval_f(rates, n, x, shift=shift)
                ref = f_recurrence_mp(rates, n, x, shift=shift)
                for k in range(n + 1):
                    assert abs(F.value(k) - ref[k]) <= 5e-12 * abs(ref[k])


class TestDuals:
    def test_dn_dual_coefficients(self, dn_half):
        d = dual_rates(dn_half)
        for n in range(6):
            assert d.lam(n) == pytest.approx(4.0 * (n + 1) ** 2)
            assert d.mu(n) == pytest.approx(0.5 * (2 * n + 1) ** 2)

    def test_zero_related_shares_lambda(self, dn_half):
        d = dual_rates(dn_half)
        z = dual_rates(dn_half, zero_related=True)
        assert z.mu(0) == 0.0
        for n in range(8):
            assert z.lam(n) == d.lam(n)
            if n >= 1:
                assert z.mu(n) == d.mu(n)

    def test_quartic_dual_is_shifted_family(self, quartic0):
        d = dual_rates(quartic0)
        ref = quartic_rates(0.5, 12.0)
        for n in range(21):
            assert d.lam(n) == pytest.approx(ref.lam(n), rel=1e-15)
            assert d.mu(n) == pytest.approx(ref.mu(n), rel=1e-15)

    def test_requires_mu0_zero(self):
        with pytest.raises(ValueError):
            dual_rates(quartic_rates(0.0, 3.0))

    def test_fhat_initial_and_combination(self, quartic0):
        x = 2.0 + 1.0j
        Fh = eval_f(dual_rates(quartic0, zero_related=True), 15, x)
        assert Fh.value(0) == 1.0
        tilde = dual_rates(quartic0)
        mu_t0, mu_t1 = tilde.mu(0), tilde.mu(1)
        Ft = eval_f(tilde, 15, x)
        assert Fh.value(1) == pytest.approx(Ft.value(1) - mu_t0 / mu_t1)
        # combination path: Fhat_n = Ftilde_n - (mu~0/mu~1) Ftilde^(1)_(n-1)
        Ft1 = eval_f(tilde, 14, x, shift=1)
        for n in (2, 9, 15):
            combo = Ft.value(n) - (mu_t0 / mu_t1) * Ft1.value(n - 1)
            assert abs(Fh.value(n) - combo) < 1e-10 * abs(combo)

    def test_finite_dual_identity(self, quartic0, rng):
        # sum_(n<k) F_n(x) = (mu_k pi_k / mu~0) Ftilde_(k-1)(x)
        tilde = dual_rates(quartic0)
        mu_t0 = tilde.mu(0)
        lam, mu = quartic0.tabulate(21)
        for _ in range(5):
            x = complex(rng.normal(scale=2), rng.normal(scale=2))
            F = eval_f(quartic0, 20, x)
            Ft = eval_f(tilde, 20, x)
            partial = 0.0 + 0.0j
            pi = 1.0
            for k in range(1, 21):
                partial += F.value(k - 1)
                pi *= lam[k - 1] / mu[k]
                rhs = (mu[k] * pi / mu_t0) * Ft.value(k - 1)
                assert abs(partial - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_finite_zero_related_identity(self, quartic0, rng):
        # -(x/mu_1) sum_(1<=n<k) F^(1)_(n-1)(x) = -1 + (1/pi~_(k-1)) Fhat_(k-1)(x)
        mu1 = quartic0.mu(1)
        hat = dual_rates(quartic0, zero_related=True)
        tilde_pi = pi_sequence(dual_rates(quartic0), 20)
        for _ in range(5):
            x = complex(rng.normal(scale=2), rng.normal(scale=2))
            F1 = eval_f(quartic0, 19, x, shift=1)
            Fh = eval_f(hat, 20, x)
            partial = 0.0 + 0.0j
            for k in range(2, 21):
                partial += F1.value(k - 2)
                lhs = -(x / mu1) * partial
                rhs = -1.0 + Fh.value(k - 1) / tilde_pi.value(k - 1)
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_gauss_nodes_interlace(dn_half):
    m8 = gauss_measure(dn_half, 8)
    m9 = gauss_measure(dn_half, 9)
    z8, z9 = m8.support, m9.support
    for i in range(8):
        assert z9[i] < z8[i] < z9[i + 1]


def _gauss_nodes(rates, n):
    jc = jacobi_from_rates(rates, n)
    return tridiag_eigen(jc.a, jc.b[: n - 1])


@pytest.mark.parametrize("case", ["real nodes", "points across chunks", "rescaled real nodes", "rescaled point"])
def test_p_alone_is_the_p_half(case, dn_half, quartic0, monkeypatch):
    # _solve with p_only returns, bit for bit, the P half of the rows and
    # exponents it returns for (Q, P): each solution is cut and rescaled on
    # its own rows, wherever the other one is.
    if case == "real nodes":
        rates, n, xs = dn_half, 60, _gauss_nodes(dn_half, 60)
    elif case == "points across chunks":
        monkeypatch.setattr(recurrence, "_CHUNK", 100)  # 3 points a chunk at n = 40
        rates, n = quartic0, 40
        xs = np.array([2.2 + 0.7j, -30 + 5j, 1e3 - 2e3j, 7.5, 0.0, 1j, -4.0 - 0.5j])
    elif case == "rescaled real nodes":  # the Christoffel sum raises here
        rates, n, xs = dn_half, 120, _gauss_nodes(dn_half, 120)
    else:
        rates, n, xs = dn_half, 2000, np.array([1j])
    tab, ks = recurrence._coefficients(rates, n + 1), np.arange(n)
    rows, exps = recurrence._solve(tab, xs.astype(complex), ks)
    p_rows, p_exps = recurrence._solve(tab, xs.astype(complex), ks, p_only=True)
    assert p_rows.shape == p_exps.shape == (1, xs.size, n)
    assert np.array_equal(p_rows, rows[1:]) and np.array_equal(p_exps, exps[1:])
    assert p_exps.any() == case.startswith("rescaled")
