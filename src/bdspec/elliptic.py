"""Jacobi elliptic functions and the special-function kit for the elliptic families.

AGM-based complete integrals and sn/cn/dn (descending Landen transformation,
real arguments), the Taylor data of dn (in mpmath), the order-4
trigonometric functions delta_l, the lemniscate constant (also from the
AGM), and the Laplace transform of dn over one period. The Landen
ladder is data of the modulus, built once per context; it stops where c_n
stops decreasing (4-7 levels for every k^2). So is a table of (sn, cn, dn)
at the quadrature nodes the context has seen, up to _NODE_TABLE_MAX of
them: the integrands of ``laplace_dn`` and of the quartic cn integrals read
it, so a call at a new x computes only its exponential or delta_l factor
at nodes already seen, with the values a fresh context gives.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .numerics import Tolerance, integrate

_SQRT2 = math.sqrt(2.0)

# Quadrature nodes whose (sn, cn, dn) a context keeps, about 0.8 MB: 300
# laplace_dn calls with Re x, |Im x| <= 100 fill 1905 at k^2 <= 0.9 and 3825
# at k^2 = 0.99.
_NODE_TABLE_MAX = 4096


@dataclass(frozen=True)
class EllipticContext:
    """Modulus data: k^2, complementary k'^2, quarter periods K, K', nome q."""

    k2: float
    kprime2: float
    K: float
    Kprime: float
    q: float

    @functools.cached_property
    def _landen(self) -> tuple[float, tuple[float, ...]]:
        # Descending Landen ladder (Abramowitz-Stegun 16.4) as the amplitude
        # scale 2^n a_n and the ratios c_i/a_i for i = n..1. Where a_n and b_n
        # settle an ulp apart c_n sticks above the exit threshold, so the
        # ladder also ends at the first level that fails to shrink it.
        a, b, c = 1.0, math.sqrt(self.kprime2), math.sqrt(self.k2)
        ratios = []
        while abs(c) > 4e-17 * a:
            c_next = 0.5 * (a - b)
            if abs(c_next) >= abs(c):
                break
            a, b, c = 0.5 * (a + b), math.sqrt(a * b), c_next
            ratios.append(c / a)
        return 2.0 ** len(ratios) * a, tuple(reversed(ratios))

    @functools.cached_property
    def _nodes(self) -> dict[float, tuple[float, float, float]]:
        # (sn, cn, dn) by quadrature node, filled by _node_scd.
        return {}


def _agm(a: float, b: float) -> float:
    # Quadratic convergence: the gap squares each step, so a few-ulp exit
    # threshold is reached with the last step landing at full precision.
    for _ in range(40):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def make_context(k2: float) -> EllipticContext:
    """Complete the modulus: K, K' by the arithmetic-geometric mean, q from them."""
    if not 0.0 < k2 < 1.0:
        raise ValueError("k2 must lie strictly inside (0, 1)")
    kp2 = 1.0 - k2
    K = math.pi / (2.0 * _agm(1.0, math.sqrt(kp2)))
    Kp = math.pi / (2.0 * _agm(1.0, math.sqrt(k2)))
    q = math.exp(-math.pi * Kp / K)
    return EllipticContext(k2=k2, kprime2=kp2, K=K, Kprime=Kp, q=q)


def jacobi_scd(ctx: EllipticContext, u: float) -> tuple[float, float, float]:
    """(sn, cn, dn) at real u by the descending Landen transformation.

    The argument is first reduced to [0, K] through the exact quarter-period
    symmetries (where the amplitude ladder's arcsine branch is safe); signs
    are restored afterwards. The ladder is read from the context, which
    builds it once and ends it where c_n stops decreasing. dn is recovered
    from 1 - k^2 sn^2, which is bounded below by k'^2 without any clamping.
    """
    if u == 0.0:
        return 0.0, 1.0, 1.0
    K = ctx.K
    s_sign = c_sign = 1.0
    w = u
    if w < 0.0:
        w = -w
        s_sign = -s_sign
    w = math.fmod(w, 4.0 * K)
    if w >= 2.0 * K:
        w -= 2.0 * K
        s_sign, c_sign = -s_sign, -c_sign
    if w > K:
        w = 2.0 * K - w
        c_sign = -c_sign

    scale, ratios = ctx._landen
    phi = scale * w
    for r in ratios:
        s = r * math.sin(phi)
        s = min(1.0, max(-1.0, s))
        phi = 0.5 * (phi + math.asin(s))
    sn, cn = math.sin(phi), math.cos(phi)
    dn = math.sqrt(1.0 - ctx.k2 * sn * sn)
    return s_sign * sn, c_sign * cn, dn


def _node_scd(ctx: EllipticContext, u: float) -> tuple[float, float, float]:
    """jacobi_scd(ctx, u) through the context's node table, which keeps the
    first _NODE_TABLE_MAX nodes asked for."""
    nodes = ctx._nodes
    scd = nodes.get(u)
    if scd is None:
        scd = jacobi_scd(ctx, u)
        if len(nodes) < _NODE_TABLE_MAX:
            nodes[u] = scd
    return scd


def dn_taylor_moments(k2: float, nmax: int):
    """Coefficients s_0..s_nmax of dn u = sum (-1)^n s_n u^(2n)/(2n)!.

    Extracted by power-series integration of sn' = cn dn, cn' = -sn dn,
    dn' = -k^2 sn cn from (0, 1, 1). The convolution runs in mpmath at
    40 + nmax digits, so the huge-factorial products stay representable.
    """
    if not k2 > 0:
        raise ValueError("k2 must be positive")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    import mpmath as mp

    with mp.workdps(40 + nmax):
        k2m = mp.mpf(k2)
        M = 2 * nmax
        s = [mp.mpf(0)] * (M + 1)
        c = [mp.mpf(0)] * (M + 1)
        d = [mp.mpf(0)] * (M + 1)
        c[0] = mp.mpf(1)
        d[0] = mp.mpf(1)
        for m in range(M):
            conv_cd = mp.fsum(c[i] * d[m - i] for i in range(m + 1))
            conv_sd = mp.fsum(s[i] * d[m - i] for i in range(m + 1))
            conv_sc = mp.fsum(s[i] * c[m - i] for i in range(m + 1))
            s[m + 1] = conv_cd / (m + 1)
            c[m + 1] = -conv_sd / (m + 1)
            d[m + 1] = -k2m * conv_sc / (m + 1)
        return [float((-1) ** n * d[2 * n] * mp.factorial(2 * n)) for n in range(nmax + 1)]


def moment_asymptote(ctx: EllipticContext, n: int) -> float:
    """log of the large-n moment estimate 2 (2n)! / K'^(2n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.log(2.0) + math.lgamma(2 * n + 1) - (2 * n + 1) * math.log(ctx.Kprime)


# Fourth roots of -1, the exponential frequencies of the delta_l family.
_OMEGAS = tuple(cmath.exp(1j * math.pi * (2 * j + 1) / 4) for j in range(4))


def delta4(l: int, x: complex) -> complex:
    """Order-4 trigonometric function delta_l(x) = sum (-1)^n x^(4n+l)/(4n+l)!.

    l in {0, 2} use the cos*cosh / sin*sinh closed forms; l in {1, 3} are
    summed termwise for |x| <= 30 and assembled from the four exponentials
    e^(w x), w^4 = -1, beyond.
    """
    if l not in (0, 1, 2, 3):
        raise ValueError("l must be one of 0, 1, 2, 3")
    z = complex(x)
    a = z / _SQRT2
    if l == 0:
        return cmath.cos(a) * cmath.cosh(a)
    if l == 2:
        return cmath.sin(a) * cmath.sinh(a)
    if abs(z) <= 30.0:
        total = 0.0 + 0.0j
        comp = 0.0 + 0.0j
        term = z**l / math.factorial(l)
        n = 0
        while True:
            t = total + term
            if abs(total) >= abs(term):
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
            term = -term * z**4 / (
                (4 * n + l + 1) * (4 * n + l + 2) * (4 * n + l + 3) * (4 * n + l + 4)
            )
            n += 1
            if abs(term) <= 1e-20 * (abs(total) + 1.0) or n > 200:
                break
        return total + comp
    acc = 0.0 + 0.0j
    for w in _OMEGAS:
        acc += w ** (-l) * cmath.exp(w * z)
    return 0.25 * acc


def lemniscate_K0() -> float:
    """The lemniscatic quarter period, the integral of (1-u^4)^(-1/2) over
    [0, 1], from Gauss's identity K0 = pi / (2 M(1, sqrt 2)) with M the
    arithmetic-geometric mean."""
    return math.pi / (2.0 * _agm(1.0, _SQRT2))


def laplace_dn(ctx: EllipticContext, x: complex) -> complex:
    """Laplace transform of dn over [0, oo) for Re x > 0.

    By 2K-periodicity this is the single-period integral divided by
    (1 - e^(-2xK)). dn is read from the context's node table.
    """
    x = complex(x)
    if not x.real > 0:
        raise ValueError("laplace_dn requires Re x > 0")
    twoK = 2.0 * ctx.K

    def f(u: float) -> complex:
        return _node_scd(ctx, u)[2] * cmath.exp(-x * u)

    num = integrate(f, 0.0, twoK, Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=4000))
    return num / (1.0 - cmath.exp(-x * twoK))
