"""The 12-dimensional cancellation identity in Pontryagin classes.

Three genus products over six formal Chern roots x_1..x_6 are expanded
exactly: the L-genus, the A-hat genus, and the A-hat genus twisted by the
character sum_j (e^{x_j} + e^{-x_j}).  Their degree-12 parts are rewritten
in the basis p_k = e_k(x_1^2, ..., x_6^2) and compared coefficientwise in
{p_3, p_1 p_2, p_1^3}.  Degrees count cohomological grading, where each
root has degree 2.
"""

from fractions import Fraction
from math import factorial, prod

from .errors import ParityError, ShapeError, SingularSystemError
from .exact import det_adjugate, dot
from .localization import partitions_of
from .series import UniSeries, elementary_to_monomial, genus_series

NUM_ROOTS = 6
DEGREE = 12


class RootPoly:
    """Symmetric polynomial in the roots on the monomial symmetric basis.

    Keys are partitions (of the polynomial degree in the roots, so half the
    cohomological degree per unit); values are exact coefficients of m_lam.
    """

    def __init__(self, coeffs):
        self.coeffs = {}
        for lam, c in coeffs.items():
            lam = tuple(int(x) for x in lam)
            if tuple(sorted(lam, reverse=True)) != lam:
                raise ShapeError("partition key %s is not weakly decreasing" % (lam,))
            c = Fraction(c)
            if c:
                self.coeffs[lam] = c

    def homogeneous(self, d):
        """Part of root-degree d (cohomological degree 2d)."""
        return RootPoly({lam: c for lam, c in self.coeffs.items() if sum(lam) == d})

    def __eq__(self, other):
        return isinstance(other, RootPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return "RootPoly(%r)" % dict(sorted(self.coeffs.items()))


class PontryaginPoly:
    """Polynomial in p_1, p_2, p_3, ... keyed by partitions (p_nu products)."""

    def __init__(self, coeffs):
        self.coeffs = {}
        for nu, c in coeffs.items():
            nu = tuple(int(x) for x in nu)
            c = Fraction(c)
            if c:
                self.coeffs[nu] = c

    def homogeneous(self, weight):
        return PontryaginPoly(
            {nu: c for nu, c in self.coeffs.items() if sum(nu) == weight})

    def add(self, other):
        out = dict(self.coeffs)
        for nu, c in other.coeffs.items():
            out[nu] = out.get(nu, Fraction(0)) + c
        return PontryaginPoly(out)

    def scale(self, s):
        s = Fraction(s)
        return PontryaginPoly({nu: c * s for nu, c in self.coeffs.items()})

    def coefficient(self, nu):
        return self.coeffs.get(tuple(nu), Fraction(0))

    def evaluate(self, values):
        """Exact value after substituting p_k = values[k-1]."""
        total = Fraction(0)
        for nu, c in self.coeffs.items():
            term = c
            for part in nu:
                term *= Fraction(values[part - 1])
            total += term
        return total

    def __eq__(self, other):
        return isinstance(other, PontryaginPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return "PontryaginPoly(%r)" % dict(sorted(self.coeffs.items()))


def pontryagin_label(nu):
    """Readable name for a p-monomial key, e.g. (2, 1) -> p1*p2."""
    if not nu:
        return "1"
    return "*".join(
        "p%d" % part + ("^%d" % nu.count(part) if nu.count(part) > 1 else "")
        for part in sorted(set(nu)))


def _check_even(series, xdeg):
    for k in range(1, xdeg + 1, 2):
        if series.c(k):
            raise ParityError("series has a nonzero odd coefficient at degree %d" % k)


def _root_partitions(xdeg, max_len):
    out = [()]
    for total in range(1, xdeg + 1):
        out.extend(lam for lam in partitions_of(total) if len(lam) <= max_len)
    return out


def expand_genus_product(g, roots=NUM_ROOTS, degree=DEGREE):
    """prod_i g(x_i) truncated at the given cohomological degree.

    The product of one univariate series per root has coefficient
    prod_i c_{e_i} on x^e, so each monomial symmetric coefficient is a plain
    product over the padded partition.
    """
    xdeg = degree // 2
    _check_even(g, xdeg)
    coeffs = {}
    for lam in _root_partitions(xdeg, roots):
        padded = lam + (0,) * (roots - len(lam))
        c = Fraction(1)
        for e in padded:
            c *= g.c(e)
            if not c:
                break
        if c:
            coeffs[lam] = c
    return RootPoly(coeffs)


def twisted_ahat(roots=NUM_ROOTS, degree=DEGREE):
    """prod_j A(x_j) times sum_j (e^{x_j} + e^{-x_j}), truncated.

    Distributing the character sum leaves one distinguished root carrying
    A(x) (e^x + e^-x) = 2 A(x) cosh(x) while the others carry A(x).
    """
    xdeg = degree // 2
    a = genus_series("AHat", xdeg)
    two_cosh = UniSeries([
        Fraction(2, factorial(k)) if k % 2 == 0 else Fraction(0)
        for k in range(xdeg + 1)])
    d = a.mul(two_cosh)
    coeffs = {}
    for lam in _root_partitions(xdeg, roots):
        # a root of exponent 0 carries A's constant term 1, so only the
        # parts of lam multiply; the distinguished root is a part or not,
        # and with two parts where A vanishes every term vanishes
        f = [a.c(x) for x in lam]
        if f.count(0) > 1:
            continue
        total = (roots - len(lam)) * d.c(0) * prod(f)
        for j, x in enumerate(lam):
            total += d.c(x) * prod(f[:j] + f[j + 1:])
        if total:
            coeffs[lam] = total
    return RootPoly(coeffs)


def to_pontryagin(r, degree=DEGREE):
    """Rewrite an even symmetric RootPoly in the p_k = e_k(squares) basis.

    Works one root-degree at a time: the e-product-to-monomial transition
    matrix over partitions of the half degree (entries counted as 0-1
    matrices by elementary_to_monomial) is solved exactly over the
    integers, as adj(A) b / det(A).
    """
    xdeg = degree // 2
    out = {}
    for d in sorted({sum(lam) for lam in r.coeffs}):
        if d > xdeg:
            continue
        part = {lam: c for lam, c in r.coeffs.items() if sum(lam) == d}
        if any(x % 2 for lam in part for x in lam):
            raise ParityError("root-degree %d part has an odd exponent" % d)
        if d == 0:
            out[()] = out.get((), Fraction(0)) + part.get((), Fraction(0))
            continue
        ydeg = d // 2
        lams = [lam for lam in partitions_of(ydeg) if len(lam) <= NUM_ROOTS]
        nus = [nu for nu in partitions_of(ydeg) if max(nu) <= NUM_ROOTS]
        matrix = [[elementary_to_monomial(nu, lam) for nu in nus] for lam in lams]
        rhs = [part.get(tuple(2 * x for x in lam), Fraction(0)) for lam in lams]
        den, adj = det_adjugate(matrix)
        if den == 0:
            raise SingularSystemError("e-to-m transition in root-degree %d is singular" % d)
        for nu, row in zip(nus, adj):
            c = Fraction(dot(row, rhs)) / den
            if c:
                out[nu] = out.get(nu, Fraction(0)) + c
    return PontryaginPoly(out)


def verify_agw(ahat_coefficient=32):
    """Check L = 8 * twisted-A-hat - 32 * A-hat in degree 12, coefficientwise.

    The verdict is coefficientwise equality on {p_3, p_1 p_2, p_1^3}; the
    reported lhs/rhs are the evaluations at p_1 = p_2 = p_3 = 1, and the
    breakdown carries every coefficient pair plus the degree-4 parts of the
    three genera for reference.  Passing 31 as the coefficient is the
    negative control and must fail.
    """
    from .invariants import Report
    xdeg = DEGREE // 2
    l_poly = to_pontryagin(expand_genus_product(genus_series("L", xdeg)))
    a_poly = to_pontryagin(expand_genus_product(genus_series("AHat", xdeg)))
    t_poly = to_pontryagin(twisted_ahat())
    lhs = l_poly.homogeneous(3)
    rhs = t_poly.homogeneous(3).scale(8).add(
        a_poly.homogeneous(3).scale(-Fraction(ahat_coefficient)))
    keys = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    coefficients = {
        pontryagin_label(nu): {"lhs": lhs.coefficient(nu), "rhs": rhs.coefficient(nu)}
        for nu in keys}
    holds = lhs == rhs
    ones = (1, 1, 1)
    breakdown = {
        "coefficients": coefficients,
        "ahat_coefficient": Fraction(ahat_coefficient),
        "degree4": {
            "L": l_poly.coefficient((1,)),
            "twisted_ahat": t_poly.coefficient((1,)),
            "ahat": a_poly.coefficient((1,)),
        },
    }
    return Report("agw", "universal", lhs.evaluate(ones), rhs.evaluate(ones),
                  holds, breakdown, ())
