"""Genus power series and the e-to-m transition of symmetric functions.

UniSeries holds a univariate series truncated at an explicit degree; the
four genus series (Todd, SignatureHalf, AHat, L) are produced by exact
division of truncated exponential and hyperbolic series.  A class in the
facet classes is never expanded here: localization restricts each factor
to a vertex as a series in one variable.  The e-to-m transition of
symmetric functions is an integer count, elementary_to_monomial.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .errors import DimensionError, ShapeError

GENUS_KINDS = ("Todd", "SignatureHalf", "AHat", "L")


class UniSeries:
    """Univariate series sum c_k x^k truncated at an explicit degree."""

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise DimensionError("UniSeries needs at least the constant term")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def c(self, k):
        return self.coeffs[k] if 0 <= k <= self.degree else Fraction(0)

    def mul(self, other):
        d = min(self.degree, other.degree)
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs[:d + 1]):
            if a == 0:
                continue
            for j in range(d + 1 - i):
                b = other.c(j)
                if b:
                    out[i + j] += a * b
        return UniSeries(out)

    def reciprocal(self):
        """Exact series inverse; the constant term must be nonzero."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise DimensionError("cannot invert a series with zero constant term")
        out = [Fraction(1) / c0]
        for k in range(1, self.degree + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.c(j) * out[k - j]
            out.append(-acc / c0)
        return UniSeries(out)

    def __eq__(self, other):
        return isinstance(other, UniSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "UniSeries(%r)" % (self.coeffs,)


def _sinh_over_y(degree, half=False):
    """sinh(y)/y at y = x (half False) or y = x/2 (half True), truncated."""
    out = []
    for k in range(degree + 1):
        if k % 2:
            out.append(Fraction(0))
        else:
            c = Fraction(1, factorial(k + 1))
            if half:
                c /= 2 ** k
            out.append(c)
    return UniSeries(out)


def _cosh(degree, half=False):
    out = []
    for k in range(degree + 1):
        if k % 2:
            out.append(Fraction(0))
        else:
            c = Fraction(1, factorial(k))
            if half:
                c /= 2 ** k
            out.append(c)
    return UniSeries(out)


@lru_cache(maxsize=64)
def genus_series(kind, degree):
    """Exact truncated genus series.

    Todd          x/(1 - e^-x)        = 1 + x/2 + x^2/12 - ...
    SignatureHalf (x/2)/tanh(x/2)     = 1 + x^2/12 - x^4/720 + ...
    AHat          (x/2)/sinh(x/2)     = 1 - x^2/24 + 7x^4/5760 - ...
    L             x/tanh(x)           = 1 + x^2/3 - x^4/45 + ...
    """
    if degree < 0:
        raise DimensionError("degree must be nonnegative")
    if kind == "Todd":
        # (1 - e^-x)/x = sum (-1)^k x^k/(k+1)!
        q = UniSeries([Fraction((-1) ** k, factorial(k + 1)) for k in range(degree + 1)])
        return q.reciprocal()
    if kind == "L":
        return _cosh(degree).mul(_sinh_over_y(degree).reciprocal())
    if kind == "SignatureHalf":
        return _cosh(degree, half=True).mul(_sinh_over_y(degree, half=True).reciprocal())
    if kind == "AHat":
        return _sinh_over_y(degree, half=True).reciprocal()
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
