"""Genus power series and truncated polynomials in the facet classes.

UniSeries holds a univariate series truncated at an explicit degree; the
four genus series (Todd, SignatureHalf, AHat, L) are produced by exact
division of truncated exponential and hyperbolic series.  MultiPoly is a
sparse truncated polynomial in the facet classes v_1..v_m.  The e-to-m
transition of symmetric functions is an integer count, elementary_to_monomial.
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

    def truncate(self, d):
        if d >= self.degree:
            return self
        return UniSeries(self.coeffs[:d + 1])

    def add(self, other):
        d = min(self.degree, other.degree)
        return UniSeries([self.c(k) + other.c(k) for k in range(d + 1)])

    def scale(self, s):
        return UniSeries([c * Fraction(s) for c in self.coeffs])

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


class MultiPoly:
    """Sparse polynomial in v_1..v_m over rationals, truncated by total degree.

    Terms map exponent tuples (length num_vars, total degree <= trunc) to
    nonzero rational coefficients.
    """

    def __init__(self, num_vars, trunc, terms=None):
        self.num_vars = num_vars
        self.trunc = trunc
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != num_vars:
                raise ShapeError("exponent %r has wrong length for %d variables" % (e, num_vars))
            if any(x < 0 for x in e):
                raise ShapeError("negative exponent in %r" % (e,))
            if sum(e) > trunc:
                raise ShapeError("exponent %r exceeds truncation %d" % (e, trunc))
            c = Fraction(c)
            if c:
                clean[e] = clean.get(e, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def zero(cls, num_vars, trunc):
        return cls(num_vars, trunc, {})

    @classmethod
    def constant(cls, num_vars, trunc, value):
        return cls(num_vars, trunc, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, i, num_vars, trunc):
        e = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, trunc, {e: 1})

    def _check_shape(self, other):
        if self.num_vars != other.num_vars or self.trunc != other.trunc:
            raise ShapeError("mismatched polynomials: %d vars/deg %d vs %d vars/deg %d" % (
                self.num_vars, self.trunc, other.num_vars, other.trunc))

    def add(self, other):
        self._check_shape(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.num_vars, self.trunc, out)

    def scale(self, s):
        s = Fraction(s)
        return MultiPoly(self.num_vars, self.trunc,
                         {e: c * s for e, c in self.terms.items()})

    def mul(self, other):
        self._check_shape(other)
        out = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > self.trunc:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.num_vars, self.trunc, out)

    def homogeneous_part(self, d):
        return MultiPoly(self.num_vars, self.trunc,
                         {e: c for e, c in self.terms.items() if sum(e) == d})

    def coefficient(self, e):
        return self.terms.get(tuple(e), Fraction(0))

    def items(self):
        """Terms in a deterministic (sorted exponent) order."""
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.num_vars == other.num_vars
                and self.trunc == other.trunc and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, self.trunc, tuple(self.items())))

    def __repr__(self):
        return "MultiPoly(%d, %d, %r)" % (self.num_vars, self.trunc, dict(self.items()))


def product_over_facets(g, num_vars, trunc):
    """prod_i g(v_i) truncated at total degree; g must have constant term 1."""
    if g.c(0) != 1:
        raise ShapeError("facet products need a series with constant term 1")
    result = MultiPoly.constant(num_vars, trunc, 1)
    for i in range(num_vars):
        factor_terms = {}
        for k in range(trunc + 1):
            c = g.c(k)
            if c:
                e = tuple(k if j == i else 0 for j in range(num_vars))
                factor_terms[e] = c
        result = result.mul(MultiPoly(num_vars, trunc, factor_terms))
    return result


def exp_linear(coeffs, trunc):
    """exp(sum c_i v_i) truncated at total degree."""
    num_vars = len(coeffs)
    lin_terms = {}
    for i, c in enumerate(coeffs):
        if c:
            e = tuple(1 if j == i else 0 for j in range(num_vars))
            lin_terms[e] = Fraction(c)
    lin = MultiPoly(num_vars, trunc, lin_terms)
    result = MultiPoly.constant(num_vars, trunc, 1)
    power = MultiPoly.constant(num_vars, trunc, 1)
    for k in range(1, trunc + 1):
        power = power.mul(lin).scale(Fraction(1, k))
        if not power.terms:
            break
        result = result.add(power)
    return result


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
