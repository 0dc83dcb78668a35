"""The 12-dimensional cancellation identity in Pontryagin classes.

Three genus products over six formal Chern roots x_1..x_6 are expanded
exactly: the L-genus, the A-hat genus, and the A-hat genus twisted by the
character sum_j (e^{x_j} + e^{-x_j}).  Their degree-12 parts are rewritten
in the basis p_k = e_k(x_1^2, ..., x_6^2) and compared coefficientwise in
{p_3, p_1 p_2, p_1^3}.  Degrees count cohomological grading, where each
root has degree 2.

A symmetric polynomial in the roots is a dict {lam: coefficient of the
monomial symmetric m_lam}, and one in the p_k a dict {nu: coefficient of
p_nu = prod_k p_{nu_k}} (weight sum(nu), cohomological degree 4 sum(nu));
keys are partitions, and zero coefficients are left out.
"""

from fractions import Fraction
from math import prod

from .errors import DimensionError, ParityError
from .invariants import Report
from .localization import check_partition, partitions_of
from .series import elementary_to_monomial, genus_series, hyperbolic, mul

NUM_ROOTS = 6
DEGREE = 12


def pontryagin_label(nu):
    """Readable name for a p-monomial key, e.g. (2, 1) -> p1*p2."""
    if not nu:
        return "1"
    return "*".join(
        "p%d" % part + ("^%d" % nu.count(part) if nu.count(part) > 1 else "")
        for part in sorted(set(nu)))


def _root_partitions(xdeg):
    out = [()]
    for total in range(1, xdeg + 1):
        out.extend(lam for lam in partitions_of(total) if len(lam) <= NUM_ROOTS)
    return out


def expand_genus_product(g):
    """prod_i g(x_i) over the NUM_ROOTS roots, truncated at DEGREE.

    g is an even coefficient tuple reaching root-degree DEGREE / 2.  The
    product of one univariate series per root has coefficient prod_i c_{e_i}
    on x^e, so each monomial symmetric coefficient is a plain product over
    the padded partition.
    """
    xdeg = DEGREE // 2
    if len(g) <= xdeg:
        raise DimensionError("the genus series must reach degree %d" % xdeg)
    for k in range(1, xdeg + 1, 2):
        if g[k]:
            raise ParityError("series has a nonzero odd coefficient at degree %d" % k)
    coeffs = {}
    for lam in _root_partitions(xdeg):
        padded = lam + (0,) * (NUM_ROOTS - len(lam))
        c = Fraction(1)
        for e in padded:
            c *= g[e]
            if not c:
                break
        if c:
            coeffs[lam] = c
    return coeffs


def twisted_ahat():
    """prod_j A(x_j) times sum_j (e^{x_j} + e^{-x_j}), truncated at DEGREE.

    Distributing the character sum leaves one distinguished root carrying
    A(x) (e^x + e^-x) = 2 A(x) cosh(x) while the others carry A(x).
    """
    xdeg = DEGREE // 2
    a = genus_series("AHat", xdeg)
    d = tuple(2 * c for c in mul(a, hyperbolic(xdeg, 0)))
    coeffs = {}
    for lam in _root_partitions(xdeg):
        # a root of exponent 0 carries A's constant term 1, so only the
        # parts of lam multiply; the distinguished root is a part or not,
        # and with two parts where A vanishes every term vanishes
        f = [a[x] for x in lam]
        if f.count(0) > 1:
            continue
        total = (NUM_ROOTS - len(lam)) * d[0] * prod(f)
        for j, x in enumerate(lam):
            total += d[x] * prod(f[:j] + f[j + 1:])
        if total:
            coeffs[lam] = total
    return coeffs


def to_pontryagin(r):
    """Rewrite an even symmetric polynomial {lam: c} in the p_k =
    e_k(squares) basis, up to root-degree DEGREE / 2.

    Works one root-degree at a time.  In the squares, e_{lam'} (lam' the
    conjugate partition) is m_lam plus monomials lower in dominance order
    (Macdonald I.6), hence later in the decreasing lexicographic order of
    partitions_of.  So the coefficient left on m_lam, in that order, is the
    one of p_{lam'}, and e_{lam'}'s share of the later coefficients, counted
    by elementary_to_monomial, is subtracted from them.  Keys other than ()
    must be partitions.
    """
    for lam in r:
        if lam:
            check_partition(lam)
    out = {}
    for d in sorted({sum(lam) for lam, c in r.items() if c and sum(lam) <= DEGREE // 2}):
        if any(x % 2 for lam, c in r.items() if c and sum(lam) == d for x in lam):
            raise ParityError("root-degree %d part has an odd exponent" % d)
        lams = [lam for lam in partitions_of(d // 2) if len(lam) <= NUM_ROOTS]
        left = {lam: Fraction(r.get(tuple(2 * x for x in lam), 0)) for lam in lams}
        for k, lam in enumerate(lams):
            c = left[lam]
            if c:
                nu = tuple(sum(x > i for x in lam) for i in range(max(lam, default=0)))
                out[nu] = c
                for mu in lams[k + 1:]:
                    left[mu] -= c * elementary_to_monomial(nu, mu)
    return out


def verify_agw(ahat_coefficient=32):
    """Check L = 8 * twisted-A-hat - 32 * A-hat in degree 12, coefficientwise.

    The verdict is coefficientwise equality on {p_3, p_1 p_2, p_1^3}; the
    reported lhs/rhs are the evaluations at p_1 = p_2 = p_3 = 1, and the
    breakdown carries every coefficient pair plus the degree-4 parts of the
    three genera for reference.  Passing 31 as the coefficient is the
    negative control and must fail.
    """
    xdeg = DEGREE // 2
    l_poly = to_pontryagin(expand_genus_product(genus_series("L", xdeg)))
    a_poly = to_pontryagin(expand_genus_product(genus_series("AHat", xdeg)))
    t_poly = to_pontryagin(twisted_ahat())
    zero = Fraction(0)
    keys = sorted(partitions_of(DEGREE // 4))
    lhs = {nu: l_poly.get(nu, zero) for nu in keys}
    rhs = {nu: 8 * t_poly.get(nu, zero) - ahat_coefficient * a_poly.get(nu, zero)
           for nu in keys}
    coefficients = {
        pontryagin_label(nu): {"lhs": lhs[nu], "rhs": rhs[nu]} for nu in keys}
    breakdown = {
        "coefficients": coefficients,
        "ahat_coefficient": Fraction(ahat_coefficient),
        "degree4": {
            "L": l_poly.get((1,), zero),
            "twisted_ahat": t_poly.get((1,), zero),
            "ahat": a_poly.get((1,), zero),
        },
    }
    # with every p_k = 1 a polynomial evaluates to the sum of its coefficients
    return Report("agw", "universal", sum(lhs.values(), zero), sum(rhs.values(), zero),
                  lhs == rhs, breakdown, ())
