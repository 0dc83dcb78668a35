"""Degree-12 cancellation identity: the multiplicative classes in the p_k
against the monomial expansion and Pontryagin rewrite of tests/oracles.py,
Newton's identities, and frozen coefficient tables for all three genera.

Run as a script, the differential test sweeps FULL_SERIES random even
series against the oracle:

    PYTHONPATH=src python tests/test_agw.py
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from oracles import (ParityError, divided_genus_series, elementary_to_monomial,
                     expand_genus_product, frac_solve, series_log, to_pontryagin,
                     twisted_ahat)
from toricpick.agw import (CHARACTER, DEGREE, NUM_ROOTS, POWER_SUMS, WEIGHT,
                           _mul, multiplicative_class, pontryagin_label,
                           verify_agw)
from toricpick.errors import DimensionError
from toricpick.localization import partitions_of
from toricpick.series import genus_log, genus_series

F = Fraction
FULL_SERIES = 3000

# weight k below means cohomological degree 4k
L_TABLE = {
    1: {(1,): F(1, 3)},
    2: {(2,): F(7, 45), (1, 1): F(-1, 45)},
    3: {(3,): F(62, 945), (2, 1): F(-13, 945), (1, 1, 1): F(2, 945)},
}
AHAT_TABLE = {
    1: {(1,): F(-1, 24)},
    2: {(2,): F(-4, 5760), (1, 1): F(7, 5760)},
    3: {(3,): F(-16, 967680), (2, 1): F(44, 967680), (1, 1, 1): F(-31, 967680)},
}
TWISTED_TABLE = {
    0: {(): F(12)},
    1: {(1,): F(1, 2)},
    3: {(3,): F(41, 5040), (2, 1): F(-31, 20160), (1, 1, 1): F(11, 80640)},
}


def _weight_part(poly, weight):
    return {nu: c for nu, c in poly.items() if sum(nu) == weight}


def twisted_class():
    return _mul(multiplicative_class(genus_log("AHat", DEGREE // 2)), CHARACTER)


def random_even_series(rng):
    """1 + sum_k g_2k x^2k with random small rational g_2k, reaching DEGREE / 2."""
    g = [Fraction(1)] + [Fraction(0)] * (DEGREE // 2)
    for k in range(2, DEGREE // 2 + 1, 2):
        g[k] = Fraction(rng.randint(-20, 20), rng.randint(1, 30))
    return tuple(g)


def _nonzero(poly):
    return {nu: c for nu, c in poly.items() if c}


def assert_agrees_with_the_oracle(b, g):
    """multiplicative_class(b), b the coefficients of log g, equals the
    monomial route for g on every weight 0..WEIGHT, zero coefficients
    dropped on both sides."""
    assert (_nonzero(multiplicative_class(b))
            == _nonzero(to_pontryagin(expand_genus_product(g)))), g


def sweep(seed, count):
    """Compare count seeded random even series, each class built from the
    oracle's logarithm of the series; returns count."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_even_series(rng)
        assert_agrees_with_the_oracle(series_log(g), g)
    return count


def test_pontryagin_label():
    assert pontryagin_label(()) == "1"
    assert pontryagin_label((3,)) == "p3"
    assert pontryagin_label((2, 1)) == "p1*p2"
    assert pontryagin_label((1, 1, 1)) == "p1^3"


def test_to_pontryagin_validates_partitions():
    # the rule and the error class are localization.check_partition's
    with pytest.raises(DimensionError, match="weakly decreasing"):
        to_pontryagin({(1, 2): 1})
    for key in ((2, 0), (-2,)):
        with pytest.raises(DimensionError, match="parts must be positive"):
            to_pontryagin({key: 5})
    assert to_pontryagin({(): 3}) == {(): F(3)}
    with pytest.raises(ParityError, match="root-degree 2 part has an odd exponent"):
        to_pontryagin({(1, 1): 1})
    # m_(2,2)(x) = e_2(x^2) = p_2; a zero coefficient counts as absent, so
    # the odd exponent of its key is never read
    assert to_pontryagin({(2, 2): 1, (1,): 0}) == {(2,): F(1)}


def test_expand_genus_product_monomial_coefficients():
    a = expand_genus_product(genus_series("AHat", DEGREE // 2))
    series = genus_series("AHat", DEGREE // 2)
    assert a[()] == 1
    assert a[(2,)] == series[2]
    assert a[(2, 2)] == series[2] ** 2
    assert a[(4,)] == series[4]
    assert (1,) not in a


def test_expand_rejects_odd_series():
    with pytest.raises(ParityError):
        expand_genus_product(genus_series("Todd", DEGREE // 2))
    with pytest.raises(DimensionError, match="reach degree 6"):
        expand_genus_product(genus_series("L", DEGREE // 2 - 1))


def test_twisted_expansion_distinguished_root():
    t = twisted_ahat()
    assert t[()] == 12
    series = genus_series("AHat", DEGREE // 2)
    # one root carries 2*A(x)cosh(x), the rest plain A(x)
    d2 = 2 * (series[2] + F(1, 2))
    assert t[(2,)] == d2 + (NUM_ROOTS - 1) * 2 * series[2]


def test_l_genus_pontryagin_table():
    poly = multiplicative_class(genus_log("L", DEGREE // 2))
    for weight, table in L_TABLE.items():
        assert _weight_part(poly, weight) == table, weight


def test_ahat_genus_pontryagin_table():
    poly = multiplicative_class(genus_log("AHat", DEGREE // 2))
    for weight, table in AHAT_TABLE.items():
        assert _weight_part(poly, weight) == table, weight


def test_twisted_ahat_pontryagin_table():
    poly = twisted_class()
    for weight, table in TWISTED_TABLE.items():
        assert _weight_part(poly, weight) == table, weight


@pytest.mark.parametrize("kind", ["L", "AHat", "SignatureHalf"])
def test_multiplicative_class_matches_the_monomial_route(kind):
    assert_agrees_with_the_oracle(genus_log(kind, DEGREE // 2),
                                  divided_genus_series(kind, DEGREE // 2))


def test_multiplicative_class_matches_the_monomial_route_on_random_series():
    assert sweep(19, 50) == 50


def test_twisted_class_matches_the_distinguished_root_route():
    assert _nonzero(twisted_class()) == _nonzero(to_pontryagin(twisted_ahat()))


def test_newton_identities_at_integer_roots():
    """Each P_k, evaluated at p_j = e_j(x_1^2, ..., x_6^2) computed from the
    roots, is the power sum of the squares x_i^2k."""
    rng = random.Random(12)
    for _ in range(20):
        squares = [rng.randint(-9, 9) ** 2 for _ in range(NUM_ROOTS)]
        e = [sum(prod(c) for c in combinations(squares, j)) for j in range(WEIGHT + 1)]
        for k, poly in enumerate(POWER_SUMS):
            value = sum(c * prod(e[part] for part in nu) for nu, c in poly.items())
            assert value == sum(s ** k for s in squares), (k, squares)


def test_pontryagin_rewrite_matches_fraction_elimination():
    """The unitriangular peel against Gaussian elimination over Fractions of
    the whole e-to-m system, on the three genera and on random even
    symmetric polynomials."""
    rng = random.Random(31)
    polys = [expand_genus_product(genus_series(g, DEGREE // 2)) for g in ("L", "AHat")]
    polys.append(twisted_ahat())
    for _ in range(5):
        polys.append({tuple(2 * x for x in lam): F(rng.randint(-9, 9), rng.randint(1, 9))
                      for d in (1, 2, 3) for lam in partitions_of(d)})
    for r in polys:
        poly = to_pontryagin(r)
        for weight in (1, 2, 3):
            lams = [lam for lam in partitions_of(weight) if len(lam) <= NUM_ROOTS]
            nus = [nu for nu in partitions_of(weight) if max(nu) <= NUM_ROOTS]
            matrix = [[elementary_to_monomial(nu, lam) for nu in nus] for lam in lams]
            rhs = [r.get(tuple(2 * x for x in lam), 0) for lam in lams]
            assert tuple(poly.get(nu, 0) for nu in nus) == frac_solve(matrix, rhs)


def conjugate(lam):
    return tuple(sum(x > i for x in lam) for i in range(max(lam, default=0)))


def test_pontryagin_rewrite_peels_a_unitriangular_system():
    """e_{lam'} is m_lam plus monomials later in the decreasing
    lexicographic order of partitions_of, so the peel needs no solve, and
    m_lam in the squares is p_{lam'} less terms from later partitions."""
    for weight in range(DEGREE // 2 + 1):
        lams = partitions_of(weight)
        for k, lam in enumerate(lams):
            assert elementary_to_monomial(conjugate(lam), lam) == 1, lam
            assert all(elementary_to_monomial(conjugate(lam), mu) == 0
                       for mu in lams[:k]), lam
            if 2 * weight <= DEGREE // 2:
                poly = to_pontryagin({tuple(2 * x for x in lam): 1})
                assert poly[conjugate(lam)] == 1, lam
                assert set(poly) <= {conjugate(mu) for mu in lams[k:]}, lam


def test_top_weight_combination_by_hand():
    # 8 * twisted - 32 * ahat must land exactly on the L coefficients
    for nu in ((3,), (2, 1), (1, 1, 1)):
        combined = 8 * TWISTED_TABLE[3][nu] - 32 * AHAT_TABLE[3][nu]
        assert combined == L_TABLE[3][nu], nu


def test_verify_agw_holds():
    r = verify_agw()
    assert r.holds
    assert r.identity == "agw"
    assert r.lhs == r.rhs == F(17, 315)
    coeffs = r.breakdown["coefficients"]
    assert set(coeffs) == {"p3", "p1*p2", "p1^3"}
    for label, pair in coeffs.items():
        assert pair["lhs"] == pair["rhs"], label
    assert r.breakdown["degree4"]["L"] == F(1, 3)
    assert r.breakdown["degree4"]["ahat"] == F(-1, 24)
    assert r.breakdown["degree4"]["twisted_ahat"] == F(1, 2)


def test_verify_agw_negative_control():
    r = verify_agw(ahat_coefficient=31)
    assert not r.holds
    assert r.lhs != r.rhs


if __name__ == "__main__":
    start = time.perf_counter()
    print("%d random even series agree with the monomial route, %.1f s"
          % (sweep(1, FULL_SERIES), time.perf_counter() - start))
