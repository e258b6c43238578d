import mpmath as mp
import numpy as np
import pytest

from bdspec import (
    BirthDeathRates,
    make_context,
    make_quartic_spec,
    quartic_rates,
    stieltjes_dn_rates,
)

# Frozen reference values (50-digit mpmath computations, see decision notes).
K0_REF = 1.31102877714605990523242
K_HALF_REF = 1.85407467730137191843385
ALPHA_QUARTIC_REF = -8.2887663268797183585
SUM_INV_MUPI_REF = 0.12064521553190498147


@pytest.fixture(scope="session")
def dn_half():
    return stieltjes_dn_rates(0.5)


@pytest.fixture(scope="session")
def ctx_half():
    return make_context(0.5)


@pytest.fixture(scope="session")
def quartic0():
    return quartic_rates(0.0, 0.0)


@pytest.fixture(scope="session")
def qspec():
    return make_quartic_spec()


@pytest.fixture()
def rng():
    return np.random.default_rng(20250810)


def f_recurrence_mp(rates, n, x, shift=0, dps=40):
    """F_0..F_n at ``x`` (rates shifted by ``shift``) from mu_{k+1} F_{k+1} =
    (lambda_k + mu_k - x) F_k - lambda_{k-1} F_{k-1}, F_0 = 1, stepped in
    ``dps``-digit mpmath arithmetic: the reference for the double kernel."""
    if shift:
        base = rates
        rates = BirthDeathRates(lambda k: base.lam(k + shift), lambda k: base.mu(k + shift))
    lam, mu = (v.tolist() for v in rates.tabulate(n))
    with mp.workdps(dps):
        xm = mp.mpmathify(x)
        f = [mp.mpf(0), mp.mpf(1)]  # F_{-1}, F_0
        for k in range(n):
            lam_prev = mp.mpf(lam[k - 1]) if k else 0
            f.append(((mp.mpf(lam[k]) + mu[k] - xm) * f[-1] - lam_prev * f[-2]) / mu[k + 1])
        return [complex(v) for v in f[1:]]
