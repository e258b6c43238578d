import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bdspec import (
    ConvergedLimit,
    QuadratureError,
    Tolerance,
    generalized_c_rates,
    integrate,
    jacobi_from_rates,
    quartic_rates,
    stieltjes_cn_rates,
    stieltjes_dn_rates,
    tridiag_eigen,
)
from bdspec.numerics import (
    _GL_NODES,
    _GL_WEIGHTS,
    _gl15,
    neville_extend,
    richardson_sum,
)

from conftest import SUM_INV_MUPI_REF


class TestTolerance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1e-9)
        with pytest.raises(ValueError):
            Tolerance(max_iter=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite(self, bad):
        for kw in ({"abs_tol": bad}, {"rel_tol": bad}, {"abs_tol": bad, "rel_tol": bad}):
            with pytest.raises(ValueError, match="finite"):
                Tolerance(**kw)

    def test_bound(self):
        t = Tolerance(abs_tol=1e-10, rel_tol=1e-6)
        assert t.bound(1.0) == 1e-6
        assert t.bound(1e-8) == 1e-10


class TestIntegrate:
    def test_constant(self):
        assert abs(integrate(lambda u: 1.0, 0.0, 1.0) - 1.0) < 1e-13

    def test_sin(self):
        assert abs(integrate(math.sin, 0.0, math.pi) - 2.0) < 1e-12

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

    def test_rule_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert _GL_NODES == nodes.tolist() and _GL_WEIGHTS == weights.tolist()

    def test_integrand_receives_floats(self):
        seen = []
        _gl15(lambda u: seen.append(u) or 1.0, 0.25, 3.0)
        integrate(lambda u: seen.append(u) or math.exp(-u), 0.0, 40.0)
        assert len(seen) > 15 and all(type(u) is float for u in seen)

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

    def test_nonfinite_estimate_raises(self):
        # The first rule's middle node is 0.5, so the first estimate is nan,
        # which no error bound may accept.
        with pytest.raises(QuadratureError, match=r"not finite on \[0, 1\]"):
            integrate(lambda u: math.nan if abs(u - 0.5) < 1e-3 else 1.0, 0.0, 1.0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tridiag_eigen([1.0, bad, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            tridiag_eigen([1.0, 2.0, 3.0], [1.0, bad])

    @pytest.mark.parametrize("n", [20, 60, 80])
    @pytest.mark.parametrize("rates", [
        stieltjes_dn_rates(0.5), stieltjes_cn_rates(0.5), generalized_c_rates(0.5, 0.75),
        quartic_rates(0.0, 0.0),
    ], ids=["dn", "cn", "generalized-c", "quartic"])
    def test_bits_of_scipy_sterf_driver(self, rates, n):
        # LAPACK dsterf called directly gives what scipy's wrapper gives.
        jc = jacobi_from_rates(rates, n)
        d, e = jc.a, jc.b[: n - 1]
        ev = tridiag_eigen(d, e)
        assert ev.tobytes() == eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf").tobytes()

    def test_bits_of_scipy_sterf_driver_on_random_matrices(self, rng):
        for n in rng.integers(2, 150, size=40):
            d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            e = rng.uniform(1e-3, 5.0, size=n - 1)
            ref = eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf")
            assert tridiag_eigen(d, e).tobytes() == ref.tobytes()

    def test_interlacing_deleted_row(self, rng):
        for _ in range(4):
            d = rng.normal(size=8)
            e = rng.uniform(0.2, 2.0, size=7)
            full = tridiag_eigen(d, e)
            sub = tridiag_eigen(d[:7], e[:6])
            for i in range(7):
                assert full[i] <= sub[i] + 1e-12
                assert sub[i] <= full[i + 1] + 1e-12


def _neville(hs, ys):
    # The scalar Neville scheme, the reference for neville_extend, in numpy scalars:
    # numpy divides a complex by a real through its reciprocal, Python does not.
    vals = list(np.asarray(ys, dtype=complex))
    for j in range(1, len(vals)):
        for i in range(len(vals) - 1, j - 1, -1):
            vals[i] = vals[i] + (vals[i] - vals[i - 1]) * hs[i] / (hs[i - j] - hs[i])
    return complex(vals[-1])


def _streaming_richardson(term, tol, n0):
    """The term-by-term loop that richardson_sum replaced, as its reference."""
    total = 0.0 + 0.0j
    hs, ys = [], []
    prev_extrap = None
    last_inc = math.inf
    n = 0
    next_cp = max(8, n0)
    while n < tol.max_iter:
        total += complex(term(n))
        n += 1
        if n == next_cp:
            buf = [total]
            while len(buf) < 4 and n < tol.max_iter:
                total += complex(term(n))
                n += 1
                buf.append(total)
            hs.append(1.0 / (n - 0.5 * (len(buf) - 1)))
            ys.append(sum(buf) / len(buf))
            if len(ys) >= 3:
                extrap = _neville(hs, ys)
                if prev_extrap is not None:
                    last_inc = abs(extrap - prev_extrap)
                    if last_inc <= tol.bound(extrap):
                        return ConvergedLimit(extrap, n, last_inc, True)
                prev_extrap = extrap
            next_cp *= 2
    value = prev_extrap if prev_extrap is not None else total
    return ConvergedLimit(value, n, last_inc, False)


def _quartic_inverse_mupi(rates, n):
    # 1/(mu_k pi_k) for k = 1..n, pi_k by running product
    lam, mu = rates.tabulate(n)
    return 1.0 / (mu[1:] * np.cumprod(lam[:-1] / mu[1:]))


class TestRichardsonSum:
    def test_inverse_square_series(self):
        res = richardson_sum(
            1.0 / np.arange(1.0, 300_001.0) ** 2,
            Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=300_000),
        )
        assert res.converged
        assert abs(res.value - math.pi**2 / 6) < 1e-11

    def test_quartic_alpha_series(self, quartic0):
        res = richardson_sum(
            _quartic_inverse_mupi(quartic0, 200_000),
            Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=150_000),
            n0=256,
        )
        assert res.converged
        assert abs(res.value - SUM_INV_MUPI_REF) < 1e-11

    @pytest.mark.parametrize("series", ["inverse_square", "alternating", "quartic"])
    @pytest.mark.parametrize("n0", [64, 256])
    @pytest.mark.parametrize("budget", [8, 200, 1000, 5000, 40_000])
    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-13])
    def test_matches_streaming_reference(self, series, n0, budget, rel_tol, quartic0):
        # Every budget here ends at least 4 terms past its last checkpoint.
        terms = {
            "inverse_square": lambda: 1.0 / np.arange(1.0, budget + 1.0) ** 2,
            "alternating": lambda: (-1.0) ** np.arange(budget) / np.arange(1.0, budget + 1.0),
            "quartic": lambda: _quartic_inverse_mupi(quartic0, budget),
        }[series]()
        tol = Tolerance(abs_tol=rel_tol, rel_tol=rel_tol, max_iter=budget)
        ref = _streaming_richardson(terms.item, tol, n0)
        got = richardson_sum(terms, tol, n0=n0)
        assert (got.value, got.terms_used, got.last_increment, got.converged) == (
            ref.value, ref.terms_used, ref.last_increment, ref.converged
        )

    def test_budget_just_past_a_checkpoint_drops_it(self, quartic0):
        # A budget ending 1 to 3 terms past checkpoint 1024 leaves no room for
        # its four partial sums: the streaming loop averaged fewer of them,
        # richardson_sum drops the checkpoint. It then extrapolates exactly
        # what the reference does on a budget that stops short of it.
        terms = _quartic_inverse_mupi(quartic0, 1030)
        short = _streaming_richardson(terms.item, Tolerance(1e-15, 1e-15, max_iter=1023), 64)
        for budget in (1024, 1025, 1026):
            got = richardson_sum(terms, Tolerance(1e-15, 1e-15, max_iter=budget))
            assert not got.converged and got.terms_used == budget
            assert (got.value, got.last_increment) == (short.value, short.last_increment)


def _extended(hs, ys):
    """The row and increment of neville_extend after every sample of ``ys``."""
    row = []
    for y in ys:
        row, inc = neville_extend(hs, row, y)
    return row, inc


def test_neville_recovers_polynomial_limit():
    hs = [1.0 / n for n in (8, 16, 32, 64, 128)]
    ys = [3.0 - 2.0 * h + 5.0 * h**2 - h**3 for h in hs]
    row, inc = _extended(hs, ys)
    assert abs(complex(row[-1]) - 3.0) < 1e-12 and inc < 1e-12
    assert isinstance(inc, float)
    # array samples are extrapolated elementwise
    row, inc = _extended(hs, [np.array([y, 2.0 * y, 1j * y]) for y in ys])
    assert np.allclose(row[-1], [3.0, 6.0, 3j], rtol=0, atol=1e-11)
    assert inc.shape == (3,) and (inc < 1e-11).all()


def test_neville_extend_reads_prefix_extrapolations(rng):
    # the increment is bit for bit |e_k - e_(k-1)|, e_(k-1) the extrapolation
    # of the first k - 1 samples
    hs = [1.0 / (cp + 1.5) for cp in (64, 128, 256, 512, 1024, 2048)]
    ys = [complex(*rng.normal(size=2)) for _ in hs]
    for k in range(4, len(hs) + 1):
        row, inc = _extended(hs, ys[:k])
        assert complex(row[-1]) == _neville(hs[:k], ys[:k])
        assert inc == abs(_neville(hs[:k], ys[:k]) - _neville(hs[: k - 1], ys[: k - 1]))
    # below four samples there is no increment
    for k in (1, 2, 3):
        row, inc = _extended(hs, [3.0] * k)
        assert complex(row[-1]) == 3.0 and inc == math.inf
    _, inc = _extended(hs, [np.ones(2)] * 3)
    assert np.all(inc == math.inf)


def _rebuilt_tableau(hs, ys):
    # The whole tableau over every sample, as each checkpoint rebuilt it before
    # rows were extended one sample at a time: (e_k, e_(k-1)).
    vals = list(np.asarray(ys, dtype=complex))
    for j in range(1, len(vals)):
        for i in range(len(vals) - 1, j - 1, -1):
            vals[i] = vals[i] + (vals[i] - vals[i - 1]) * hs[i] / (hs[i - j] - hs[i])
    return vals[-1], vals[-2] if len(vals) > 1 else None


def test_neville_rows_match_the_rebuilt_tableau(rng):
    # One row extended per sample, as the Nevanlinna series and
    # richardson_sum keep it, gives the rebuilt tableau's value and
    # increment bit for bit at every prefix, and the scalar scheme's value.
    hs = [1.0 / (round(64 * 2 ** (j / 2)) + 1.5) for j in range(17)]
    ys = rng.normal(size=(17, 4, 3, 2)) + 1j * rng.normal(size=(17, 4, 3, 2))
    row, scalar_row = [], []
    for k in range(1, len(hs) + 1):
        row, inc = neville_extend(hs, row, ys[k - 1])
        ref, ref_prev = _rebuilt_tableau(hs[:k], ys[:k])
        assert np.array_equal(row[-1], ref)
        scalar_row, scalar_inc = neville_extend(hs, scalar_row, ys[k - 1, 0, 0, 0])
        assert complex(scalar_row[-1]) == _neville(hs[:k], ys[:k, 0, 0, 0])
        assert isinstance(scalar_inc, float)
        if k >= 4:
            assert np.array_equal(inc, np.abs(ref - ref_prev))
            assert scalar_inc == abs(ref[0, 0, 0] - ref_prev[0, 0, 0])
        else:
            assert np.all(inc == math.inf) and scalar_inc == math.inf
