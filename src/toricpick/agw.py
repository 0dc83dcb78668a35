"""The 12-dimensional cancellation identity in Pontryagin classes.

Three classes over six formal Chern roots x_1..x_6 are expanded exactly:
the L-genus, the A-hat genus, and the A-hat genus twisted by the character
sum_j (e^{x_j} + e^{-x_j}).  Each is a polynomial in p_k = e_k(x_1^2, ...,
x_6^2), and their degree-12 parts are compared coefficientwise in
{p_3, p_1 p_2, p_1^3}.  Degrees count cohomological grading, where each
root has degree 2, so p_k has degree 4k and weight k.

A polynomial in the p_k is a dict {nu: coefficient of p_nu =
prod_k p_{nu_k}}, keyed by partitions nu of weight sum(nu) <= WEIGHT, with
zero coefficients left out.
"""

from fractions import Fraction
from math import factorial

from .invariants import Report
from .localization import partitions_of
from .series import genus_log

NUM_ROOTS = 6
DEGREE = 12
WEIGHT = DEGREE // 4


def pontryagin_label(nu):
    """Readable name for a p-monomial key, e.g. (2, 1) -> p1*p2."""
    if not nu:
        return "1"
    return "*".join(
        "p%d" % part + ("^%d" % nu.count(part) if nu.count(part) > 1 else "")
        for part in sorted(set(nu)))


def _combine(*terms):
    """sum c * poly over the (c, poly) pairs."""
    out = {}
    for c, poly in terms:
        for nu, x in poly.items():
            out[nu] = out.get(nu, 0) + c * x
    return {nu: x for nu, x in out.items() if x}


def _mul(a, b):
    """Product of two polynomials in the p_k, truncated above WEIGHT."""
    out = {}
    for nu, c in a.items():
        for mu, d in b.items():
            if sum(nu) + sum(mu) <= WEIGHT:
                key = tuple(sorted(nu + mu, reverse=True))
                out[key] = out.get(key, 0) + c * d
    return {nu: x for nu, x in out.items() if x}


def _power_sums():
    """[P_0, ..., P_WEIGHT], P_k = sum_i x_i^{2k} as a polynomial in the p_j.

    Newton's identities in the squares (Macdonald, Symmetric Functions and
    Hall Polynomials, I.2): P_k = sum_{0<i<k} (-1)^{i-1} p_i P_{k-i}
    + (-1)^{k-1} k p_k, and P_0 = NUM_ROOTS.
    """
    sums = [{(): Fraction(NUM_ROOTS)}]
    for k in range(1, WEIGHT + 1):
        terms = [((-1) ** (i - 1), _mul({(i,): 1}, sums[k - i])) for i in range(1, k)]
        sums.append(_combine((Fraction((-1) ** (k - 1) * k), {(k,): 1}), *terms))
    return sums


POWER_SUMS = _power_sums()
# sum_j 2 cosh(x_j) = sum_k 2 P_k / (2k)!, whose constant term is 2 NUM_ROOTS
CHARACTER = _combine(*((Fraction(2, factorial(2 * k)), s) for k, s in enumerate(POWER_SUMS)))


def multiplicative_class(b):
    """prod_i g(x_i) over the NUM_ROOTS roots as a polynomial in the p_k.

    b is the coefficient tuple of log g = sum_k b_2k x^2k for an even g,
    b_0 = 0, reaching degree 2 WEIGHT.  The product is exp(A), A = sum_k b_2k P_k,
    and since A has no constant term exp(A) = sum_{j <= WEIGHT} A^j / j!.
    """
    a = _combine(*((b[2 * k], s) for k, s in enumerate(POWER_SUMS)))  # b_0 = 0
    out = term = {(): Fraction(1)}
    for j in range(1, WEIGHT + 1):
        term = _combine((Fraction(1, j), _mul(term, a)))
        out = _combine((1, out), (1, term))
    return out


def verify_agw(ahat_coefficient=32):
    """Check L = 8 * twisted-A-hat - 32 * A-hat in degree 12, coefficientwise.

    The verdict is coefficientwise equality on {p_3, p_1 p_2, p_1^3}; the
    reported lhs/rhs are the evaluations at p_1 = p_2 = p_3 = 1, and the
    breakdown carries every coefficient pair plus the degree-4 parts of the
    three genera for reference.  Passing 31 as the coefficient is the
    negative control and must fail.
    """
    l_poly = multiplicative_class(genus_log("L", 2 * WEIGHT))
    a_poly = multiplicative_class(genus_log("AHat", 2 * WEIGHT))
    t_poly = _mul(a_poly, CHARACTER)
    zero = Fraction(0)
    keys = sorted(partitions_of(WEIGHT))
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
