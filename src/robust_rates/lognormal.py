"""Driftless lognormal expectations used by the closed-form pricers.

A driftless lognormal forward X with mean x and total standard deviation v
(over the life of the option) has

    E[(k - X)^+] = k N(-d2) - x N(-d1),      put
    E[(X - k)^+] = x N(d1) - k N(d2),        call
    E[X^2]       = x^2 exp(v^2),             second moment

with d1 = (ln(x/k) + v^2/2) / v and d2 = d1 - v.  At v == 0 the option
values degenerate to their intrinsic values.

N is ``norm_cdf``, a scalar port of the Cephes ``ndtr`` (Moshier 1989, after
Cody 1969) that ``scipy.special.ndtr`` evaluates: the same rational
approximations of erf and erfc, the same coefficients, branch points and
Horner order, and the same underflow cut.  It returns the double that ufunc
returns for every input, so the package computes its closed forms without
loading scipy.
"""

from __future__ import annotations

from math import exp, log

from .errors import DomainError

_VOL_FLOOR = 1e-14


def norm_cdf(a: float) -> float:
    """Standard normal CDF, bit-identical to ``scipy.special.ndtr``.

    With x = a/sqrt(2) and z = |x|: 1/2 + erf(x)/2 for z < 1/sqrt(2), else
    erfc(z)/2, or 1 - erfc(z)/2 for x > 0.  On z < 1, erf(z) is
    z T(z^2)/U(z^2) and erfc(z) = 1 - erf(z); erfc(z) is e^{-z^2} P(z)/Q(z)
    on [1, 8), e^{-z^2} R(z)/S(z) beyond, and exactly 0 once z^2 exceeds
    MAXLOG = ln(DBL_MAX), as in Cephes.  The polynomials are written out in
    Cephes' polevl/p1evl order (Q, S and U are monic).  A NaN propagates
    through every branch.
    """
    x = a * 0.7071067811865476
    z = -x if x < 0.0 else x
    if z < 1.0:
        w = x * x
        t = ((((9.60497373987051638749e0 * w + 9.00260197203842689217e1) * w
               + 2.23200534594684319226e3) * w + 7.00332514112805075473e3) * w
             + 5.55923013010394962768e4)
        u = (((((w + 3.35617141647503099647e1) * w + 5.21357949780152679795e2) * w
               + 4.59432382970980127987e3) * w + 2.26290000613890934246e4) * w
             + 4.92673942608635921086e4)
        if z < 0.7071067811865476:
            return 0.5 + 0.5 * (x * t / u)
        y = 0.5 * (1.0 - z * t / u)
    elif z < 8.0:  # z^2 < 64: far from the underflow cut
        y = 0.5 * (
            exp(-z * z)
            * ((((((((2.46196981473530512524e-10 * z + 5.64189564831068821977e-1) * z
                     + 7.46321056442269912687e0) * z + 4.86371970985681366614e1) * z
                   + 1.96520832956077098242e2) * z + 5.26445194995477358631e2) * z
                 + 9.34528527171957607540e2) * z + 1.02755188689515710272e3) * z
               + 5.57535335369399327526e2)
            / ((((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1) * z
                    + 3.54937778887819891062e2) * z + 9.75708501743205489753e2) * z
                  + 1.82390916687909736289e3) * z + 2.24633760818710981792e3) * z
                + 1.65666309194161350182e3) * z + 5.57535340817727675546e2)
        )
    elif -z * z < -7.09782712893383996732e2:
        y = 0.0
    else:
        y = 0.5 * (
            exp(-z * z)
            * (((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0) * z
                  + 5.01905042251180477414e0) * z + 6.16021097993053585195e0) * z
                + 7.40974269950448939160e0) * z + 2.97886665372100240670e0)
            / ((((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0) * z
                  + 1.20489539808096656605e1) * z + 1.70814450747565897222e1) * z
                + 9.60896809063285878198e0) * z + 3.36907645100081516050e0)
        )
    return 1.0 - y if x > 0.0 else y


def lognormal_put(x: float, k: float, v: float) -> float:
    """E[(k - X)^+] for X lognormal with mean x > 0, stdev parameter v >= 0."""
    if x <= 0.0 or k <= 0.0:
        raise DomainError(f"lognormal_put needs positive forward and strike, got x={x}, k={k}")
    if v < 0.0:
        raise DomainError(f"negative total volatility {v}")
    if v <= _VOL_FLOOR:
        return max(k - x, 0.0)
    d1 = (log(x / k) + 0.5 * v * v) / v
    d2 = d1 - v
    return k * norm_cdf(-d2) - x * norm_cdf(-d1)


def lognormal_call(x: float, k: float, v: float) -> float:
    """E[(X - k)^+]; related to the put by call - put = x - k."""
    if x <= 0.0 or k <= 0.0:
        raise DomainError(f"lognormal_call needs positive forward and strike, got x={x}, k={k}")
    if v < 0.0:
        raise DomainError(f"negative total volatility {v}")
    if v <= _VOL_FLOOR:
        return max(x - k, 0.0)
    d1 = (log(x / k) + 0.5 * v * v) / v
    d2 = d1 - v
    return x * norm_cdf(d1) - k * norm_cdf(d2)


def lognormal_second_moment(x: float, v: float) -> float:
    """E[X^2] = x^2 exp(v^2) for a driftless lognormal with mean x."""
    if x <= 0.0:
        raise DomainError(f"lognormal_second_moment needs a positive forward, got {x}")
    return x * x * exp(v * v)


def lognormal_reciprocal_mean(x: float, v: float) -> float:
    """E[1/X] = exp(v^2) / x for a driftless lognormal with mean x."""
    if x <= 0.0:
        raise DomainError(f"lognormal_reciprocal_mean needs a positive forward, got {x}")
    return exp(v * v) / x
