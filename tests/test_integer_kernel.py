"""Integer-only fixed point sums against the Fraction-per-term code they replaced.

The oracles below are the earlier `localize` (one Fraction per degree and
vertex, restrictions given as rationals, one vertex at a time, by
oracles.genus_restriction) and the earlier literal
`fixed_point_partition_sum` (one Fraction per index tuple and permutation).
The program keeps every per-vertex sum in integers over one common
denominator and divides once.  Both must give the same values and the same
per-vertex contributions, exactly.
"""

import re
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from families import (CORPUS_NAMES, corner_cut_polygon, cube, get, simplex,
                      simplex2_squared)
from oracles import fixed_point_partition_sum, genus_restriction, localize_rows, weight_tables
from toricpick import localization
from toricpick.errors import ToricError
from toricpick.invariants import _genus_restriction
from toricpick.localization import (chart_weights, check_partition,
                                    choose_generic, gysin_power,
                                    integrate_monomial, localize, partitions_of)
from toricpick.polytope import enumerate_vertices
from toricpick.series import GENUS_KINDS


def oracle_localize(p, u, restrict):
    """restrict(chart, w) gives rational coefficients; a Fraction per term."""
    n = p.dim
    sums = [Fraction(0)] * (n + 1)
    contributions = []
    for c, w in zip(*chart_weights(p, u)):
        coeffs = restrict(c, w)
        euler = prod(w)
        for d, cd in enumerate(coeffs):
            if cd:
                sums[d] += Fraction(cd, euler)
        contributions.append((c.vertex, Fraction(sum(coeffs), euler)))
    for d in range(n):
        if sums[d] != 0:
            raise ToricError("localization of the degree-%d part is %s, expected 0 "
                             "(chart bug)" % (d, sums[d]))
    return sums[n], tuple(contributions)


def oracle_partition_sum(p, lam, u):
    """Every ordered index tuple and permutation, a Fraction per term."""
    n = p.dim
    lam = check_partition(lam, n)
    l = len(lam)
    total = Fraction(0)
    for w in chart_weights(p, u)[1]:
        for i1 in combinations(range(n), l):
            den = prod(w[j] for j in range(n) if j not in i1)
            for sigma in permutations(range(l)):
                num = 1
                for slot, j in enumerate(i1):
                    num *= w[j] ** (lam[sigma[slot]] - 1)
                total += Fraction(num, den)
    return total


POLYTOPES = ([get(name) for name in CORPUS_NAMES]
             + [cube(4), simplex(5), simplex2_squared()]
             + [corner_cut_polygon(k, 300) for k in (10, 14, 30)])


def two_vectors(p):
    charts = enumerate_vertices(p)
    u1 = choose_generic(charts)
    return u1, choose_generic(charts, exclude=(u1,))


def as_rationals(restrict, scale):
    return lambda chart, w: [Fraction(c, scale) for c in restrict(chart, w)]


def localized(p, u, restrict, scale=1):
    """The program's localize at the one vector u, as (value, per-vertex terms)."""
    (value,), contributions = localize(*weight_tables(p, (u,)), restrict, scale, terms=True)
    return value, contributions


@pytest.mark.parametrize("p", POLYTOPES, ids=lambda p: p.name)
def test_localize_matches_the_fraction_per_term_sum(p):
    for u in two_vectors(p):
        for kind in GENUS_KINDS + (None,):
            for twist in (True, False):
                expected = oracle_localize(p, u, as_rationals(*genus_restriction(p, kind, twist)))
                got = localized(p, u, *_genus_restriction(p, kind, twist))
                assert got == expected, (kind, twist, u)


@pytest.mark.parametrize("p", POLYTOPES, ids=lambda p: p.name)
def test_partition_sum_matches_the_fraction_per_term_sum(p):
    for u in two_vectors(p):
        for lam in partitions_of(p.dim):
            assert fixed_point_partition_sum(p, lam, u) == oracle_partition_sum(p, lam, u)


def test_sign_changing_euler_products():
    """The first vertex has a negative Euler product and later ones a
    positive one, so the common denominator meets both signs."""
    cases = [(get("square1"), (-1, 2)), (get("simplex3_1"), (-1, 2, 4)),
             (corner_cut_polygon(14, 300), (-1, 3))]
    for p, u in cases:
        eulers = [prod(w) for w in chart_weights(p, u)[1]]
        assert eulers[0] < 0 and max(eulers) > 0, (p.name, eulers)
        for kind in ("Todd", "SignatureHalf", None):
            got = localized(p, u, *_genus_restriction(p, kind))
            assert got == oracle_localize(p, u, as_rationals(*genus_restriction(p, kind)))
            assert got[0] == localized(p, two_vectors(p)[0], *_genus_restriction(p, kind))[0]
        for lam in partitions_of(p.dim):
            assert fixed_point_partition_sum(p, lam, u) == oracle_partition_sum(p, lam, u)
        m = len(p.facets)
        for i in range(m):
            e = tuple(p.dim if j == i else 0 for j in range(m))
            assert gysin_power(p, i, p.dim, u) == integrate_monomial(p, e, u)


def test_chart_bug_reports_the_rational_value():
    """Each of the 4 vertices gives 1/3 in degree 0."""
    p = get("square1")
    u = two_vectors(p)[0]
    with pytest.raises(ToricError) as err:
        localize_rows(p, u, lambda _c, w: [prod(w), 0, 0], scale=3)
    assert str(err.value) == "localization of the degree-0 part is 4/3, expected 0 (chart bug)"
    with pytest.raises(ToricError, match=re.escape(str(err.value))):
        oracle_localize(p, u, lambda _c, w: [Fraction(prod(w), 3), 0, 0])


class CountedFraction(Fraction):
    made = 0

    def __new__(cls, *args):
        CountedFraction.made += 1
        return Fraction(*args)


@pytest.mark.parametrize("p", [cube(4), simplex(5), corner_cut_polygon(30, 300)],
                         ids=lambda p: p.name)
def test_one_fraction_per_vertex_at_most(p, monkeypatch):
    """Each sum divides once: localize builds its per-vertex terms only
    when asked, so it makes no Fraction per vertex either, and one per
    vertex more when asked."""
    monkeypatch.setattr(localization, "Fraction", CountedFraction)
    u = two_vectors(p)[0]
    for kind in ("Todd", "AHat"):
        CountedFraction.made = 0
        localize(*weight_tables(p, (u,)), *_genus_restriction(p, kind))
        assert CountedFraction.made == 1, kind
        localize(*weight_tables(p, (u,)), *_genus_restriction(p, kind), terms=True)
        assert CountedFraction.made == 2 + len(enumerate_vertices(p)), kind
    for lam in partitions_of(p.dim):
        CountedFraction.made = 0
        fixed_point_partition_sum(p, lam, u)
        assert CountedFraction.made == 1, lam
        CountedFraction.made = 0
        localization._chern_fixed_point(lam, *chart_weights(p, u))
        assert CountedFraction.made == 1, lam
    CountedFraction.made = 0
    gysin_power(p, 0, p.dim, u)
    assert CountedFraction.made == 1
