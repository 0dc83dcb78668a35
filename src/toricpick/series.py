"""Genus power series and the e-to-m transition of symmetric functions.

A univariate series truncated at degree d is the tuple of its d + 1
exact coefficients c_0..c_d (Fraction).  The four genus series (Todd,
SignatureHalf, AHat, L) are produced by exact division of truncated
exponential and hyperbolic series, and log gives the logarithm that fixes
a multiplicative class.  A class in the facet classes is never expanded
here: localization restricts it to a vertex as a series in one variable.
The e-to-m transition of symmetric functions is an integer count,
elementary_to_monomial.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .errors import DimensionError, ShapeError

GENUS_KINDS = ("Todd", "SignatureHalf", "AHat", "L")


def mul(a, b):
    """Product of two coefficient tuples, truncated at the lower degree."""
    d = min(len(a), len(b))
    out = [Fraction(0)] * d
    for i, x in enumerate(a[:d]):
        if x:
            for j in range(d - i):
                out[i + j] += x * b[j]
    return tuple(out)


def reciprocal(s):
    """Exact series inverse; the constant term must be nonzero."""
    c0 = s[0]
    if c0 == 0:
        raise DimensionError("cannot invert a series with zero constant term")
    out = [Fraction(1) / c0]
    for k in range(1, len(s)):
        out.append(-sum(s[j] * out[k - j] for j in range(1, k + 1)) / c0)
    return tuple(out)


def log(s):
    """Exact series logarithm, zero constant term; the constant term of s
    must be 1.  From s' = s (log s)': k l_k = k s_k - sum_{0<j<k} j l_j s_{k-j}."""
    if s[0] != 1:
        raise DimensionError("cannot take the log of a series with constant term %s, not 1"
                             % s[0])
    out = [Fraction(0)]
    for k in range(1, len(s)):
        out.append(s[k] - Fraction(sum(j * out[j] * s[k - j] for j in range(1, k)), k))
    return tuple(out)


def hyperbolic(degree, shift, scale=1):
    """cosh(y) (shift 0) or sinh(y)/y (shift 1) at y = x/scale, truncated:
    the coefficient of x^k is 1/((k + shift)! scale^k) for even k, else 0."""
    return tuple(Fraction(0) if k % 2 else Fraction(1, factorial(k + shift) * scale ** k)
                 for k in range(degree + 1))


@lru_cache(maxsize=64)
def genus_series(kind, degree):
    """Exact genus series as the coefficient tuple c_0..c_degree.

    Todd          x/(1 - e^-x)        = 1 + x/2 + x^2/12 - ...
    SignatureHalf (x/2)/tanh(x/2)     = 1 + x^2/12 - x^4/720 + ...
    AHat          (x/2)/sinh(x/2)     = 1 - x^2/24 + 7x^4/5760 - ...
    L             x/tanh(x)           = 1 + x^2/3 - x^4/45 + ...
    """
    if degree < 0:
        raise DimensionError("degree must be nonnegative")
    if kind == "Todd":
        # (1 - e^-x)/x = sum (-1)^k x^k/(k+1)!
        return reciprocal(tuple(Fraction((-1) ** k, factorial(k + 1))
                                for k in range(degree + 1)))
    if kind == "L":
        return mul(hyperbolic(degree, 0), reciprocal(hyperbolic(degree, 1)))
    if kind == "SignatureHalf":
        return mul(hyperbolic(degree, 0, 2), reciprocal(hyperbolic(degree, 1, 2)))
    if kind == "AHat":
        return reciprocal(hyperbolic(degree, 1, 2))
    raise ShapeError("unknown genus kind %r; expected one of %s" % (kind, (GENUS_KINDS,)))


@lru_cache(maxsize=4096)
def elementary_to_monomial(omega, lam):
    """Coefficient of the monomial symmetric m_lam in e_omega = prod_k e_{omega_k}.

    It is the number of 0-1 matrices with row sums omega and column sums lam
    (Macdonald, Symmetric Functions and Hall Polynomials, I.6), the same in
    any number of variables at least the length of lam; both are tuples.
    The first row puts its 1s in some of the columns that still need one,
    and the other rows fill what those columns need then, sorted.
    """
    if not omega:
        return int(not any(lam))
    return sum(elementary_to_monomial(omega[1:], tuple(sorted(
        (x - (i in ones) for i, x in enumerate(lam)), reverse=True)))
        for ones in combinations([i for i, x in enumerate(lam) if x], omega[0]))
