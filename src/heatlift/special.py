"""The special functions of the analytic oracles, in numpy alone.

erfcx(x) = exp(x^2) erfc(x), x >= 0, is the one kernel.  It serves the
theta-route antiderivative of the covariance (covariance._antideriv) and
the normal log-CDF of the Schilder curve (log_ndtr).  On [0, 8) it is a
polynomial per interval, in t = (x - mid) / half on [-1, 1]: the
Chebyshev fit mpmath.chebyfit(lambda t: erfcx(mid + half*t), [-1, 1], N)
at 40 digits, with N the least count whose fit error is below 2e-16
times erfcx at the interval's right end, rounded to doubles.  From x = 8
on it is a fixed depth of the Laplace continued fraction

    sqrt(pi) erfcx(x) = 1 / (x + (1/2) / (x + (2/2) / (x + (3/2) / ...))),

evaluated from the bottom up; ten levels reach double precision at 8.
Each interval's elements are gathered once and take scalar-coefficient
Horner steps, so no coefficient is gathered per element.  Measured
against mpmath, the relative error is at most 2 ulp on [0, 40].

trigamma is the one scalar tail sampler.truncation_residual needs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# (lo, hi, polynomial coefficients in t, highest degree first).
_PIECES = (
    (0.0, 2.0, (
        -2.728419219080223e-10, 1.0574359155828916e-09, -2.5206765050252816e-09,
        9.178204704954706e-09, -3.621860601531351e-08, 1.2718019352793561e-07,
        -4.3120048001748984e-07, 1.4386905468373542e-06, -4.675630793273544e-06,
        1.475370532390242e-05, -4.5143873167616754e-05, 0.00013366279093356148,
        -0.00038195453785475254, 0.0010502694392967536, -0.0027690647746100028,
        0.0069701423700007, -0.016661869090493674, 0.03757229621560943,
        -0.07922696894132476, 0.15437156137190047, -0.27321201478389856,
        0.42758357615580705,
    )),
    (2.0, 4.0, (
        -8.051120497254521e-12, 3.9137796838294095e-11, -1.5112867821931618e-10,
        7.06625749190408e-10, -3.3156118219658106e-09, 1.4991288460919378e-08,
        -6.64652368598386e-08, 2.89258582856398e-07, -1.2333682907921785e-06,
        5.146439380237291e-06, -2.0989464350260905e-05, 8.355413907865924e-05,
        -0.0003241255445075948, 0.0012230390524305113, -0.004479431018372172,
        0.01588437115986932, -0.05437226000717287, 0.17900115118138996,
    )),
    (4.0, 8.0, (
        -1.1501677750239915e-11, 4.2513271764602485e-11, -9.843382052648367e-11,
        3.549923075289579e-10, -1.3917438808020514e-09, 4.952994376977823e-09,
        -1.7332857983760103e-08, 6.059672033554948e-08, -2.100505749443301e-07,
        7.210890915701219e-07, -2.452046066265137e-06, 8.25748410946763e-06,
        -2.7531014843954002e-05, 9.085053194025217e-05, -0.00029664123219870085,
        0.0009580615951723363, -0.0030595855557643613, 0.009657787464898886,
        -0.03012070697810464, 0.09277656780053835,
    )),
)
_CF_FROM = 8.0
_CF_DEPTH = 10

# Bernoulli numbers B_2 .. B_16, highest first: psi_1(x) ~ 1/x + 1/(2x^2)
# + sum_k B_2k / x^(2k+1).  At x >= 10 the first omitted term, B_18/x^19,
# is below 1e-16 of psi_1.
_BERNOULLI = (-3617 / 510, 7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6)
_TRIGAMMA_FROM = 10.0


def erfcx(x) -> np.ndarray:
    """exp(x^2) erfc(x) for x >= 0, elementwise; NaN where x < 0 or NaN.

    Its limit at +inf is 0 and erfcx(x) ~ 1 / (x sqrt(pi)) for large x,
    so it neither underflows nor overflows where erfc(x) underflows.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    for lo, hi, coeffs in _PIECES:
        sel = (x >= lo) & (x < hi)
        t = x[sel]
        t -= (lo + hi) / 2.0
        t *= 2.0 / (hi - lo)
        acc = np.full_like(t, coeffs[0])
        for c in coeffs[1:]:
            acc *= t
            acc += c
        out[sel] = acc
    sel = x >= _CF_FROM
    xs = x[sel]
    tail = xs.copy()
    for k in range(_CF_DEPTH, 0, -1):
        np.divide(k / 2.0, tail, out=tail)
        tail += xs
    out[sel] = _INV_SQRT_PI / tail
    return out


def log_ndtr(z) -> np.ndarray:
    """log Phi(z) for z <= 0, Phi the standard normal CDF; NaN for z > 0.

    Phi(z) = erfc(-z / sqrt(2)) / 2, written through erfcx so that it
    does not underflow at any z: log(erfcx(-z / sqrt(2)) / 2) - z^2 / 2.
    Both terms are nonpositive, so nothing cancels.  Below z = -1.3e154
    log Phi(z) is below -1.8e308 and rounds to -inf; that overflow is the
    right value and is not reported.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(erfcx(-z / math.sqrt(2.0)) / 2.0) - z * z / 2.0


def trigamma(x: float) -> float:
    """psi_1(x) = sum_{n >= 0} 1 / (x + n)^2 for x > 0.

    The recurrence psi_1(x) = psi_1(x + 1) + 1/x^2 shifts x up to
    _TRIGAMMA_FROM, where the Bernoulli asymptotic series is summed;
    the shifted-off terms are then added from the smallest up.
    """
    if not 0.0 < x < math.inf:
        raise ParameterError(f"0 < x < inf violated: x={x!r}")
    shift = max(0, math.ceil(_TRIGAMMA_FROM - x))
    y = x + shift
    w = 1.0 / (y * y)
    series = 0.0
    for b in _BERNOULLI:
        series = series * w + b
    total = (series * w / y + w / 2.0) + 1.0 / y
    for k in range(shift - 1, -1, -1):
        total += 1.0 / ((x + k) * (x + k))
    return total
