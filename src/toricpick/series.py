"""Genus power series.

A univariate series truncated at degree d is the tuple of its d + 1 exact
coefficients c_0..c_d (Fraction).  A multiplicative class is fixed by the
logarithm of its power series g (Hirzebruch, Topological Methods in Algebraic
Geometry, 1.1): genus_log gives it for the four genera in closed form, and
genus_series is its exponential.  Localization restricts a class to a vertex as
a series in one variable, unexpanded in the facet classes.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import DimensionError, ShapeError

# log g = a x + sum_{k >= 1} c_k B_2k x^2k / (2k (2k)!) as (a, c_k in q = 4^k): log (y/sinh y)
# and log cosh y have terms -q and q (q - 1) times B_2k y^2k / (2k (2k)!); Todd = e^(x/2) AHat,
# AHat is y/sinh y at y = x/2, and SignatureHalf and L are (y/sinh y) cosh y at y = x/2 and x.
_LOG_FORMS = {
    "Todd": (Fraction(1, 2), lambda q: -1),
    "SignatureHalf": (0, lambda q: q - 2),
    "AHat": (0, lambda q: -1),
    "L": (0, lambda q: q * (q - 2)),
}
GENUS_KINDS = tuple(_LOG_FORMS)


@lru_cache(maxsize=None)
def _bernoulli(m):
    """B_m (B_1 = -1/2), from sum_{j <= m} C(m + 1, j) B_j = 0 for m >= 1."""
    if m == 0:
        return Fraction(1)
    return -Fraction(sum(comb(m + 1, j) * _bernoulli(j) for j in range(m)), m + 1)


def genus_log(kind, degree):
    """log g for the genus series g of kind, as the coefficient tuple
    b_0..b_degree (b_0 = 0), in the closed form of _LOG_FORMS."""
    if degree < 0:
        raise DimensionError("degree must be nonnegative")
    if kind not in _LOG_FORMS:
        raise ShapeError("unknown genus kind %r; expected one of %s" % (kind, (GENUS_KINDS,)))
    a, c = _LOG_FORMS[kind]
    out = [Fraction(0), Fraction(a)] + [Fraction(0)] * (degree - 1)
    for k in range(1, degree // 2 + 1):
        out[2 * k] = c(4 ** k) * _bernoulli(2 * k) / (2 * k * factorial(2 * k))
    return tuple(out[:degree + 1])


@lru_cache(maxsize=64)
def genus_series(kind, degree):
    """Exact genus series as the coefficient tuple c_0..c_degree, exp(genus_log):
    from g' = g (log g)', k c_k = sum_{0 < j <= k} j b_j c_{k-j}.

    Todd          x/(1 - e^-x)        = 1 + x/2 + x^2/12 - ...
    SignatureHalf (x/2)/tanh(x/2)     = 1 + x^2/12 - x^4/720 + ...
    AHat          (x/2)/sinh(x/2)     = 1 - x^2/24 + 7x^4/5760 - ...
    L             x/tanh(x)           = 1 + x^2/3 - x^4/45 + ...
    """
    b = genus_log(kind, degree)
    out = [Fraction(1)]
    for k in range(1, degree + 1):
        out.append(sum(j * b[j] * out[k - j] for j in range(1, k + 1)) / k)
    return tuple(out)
