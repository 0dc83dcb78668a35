"""Restriction-first localization against the m-variable class route.

The oracle builds the class exp(w_P) prod_i g(v_i) as a polynomial in all m
facet classes (exp_linear, product_over_facets) and evaluates every term at
every vertex chart; the program restricts each factor to the vertex as a
series in one variable.  Both must give the same integral and the same
per-vertex contributions, exactly.
"""

from fractions import Fraction

import pytest

from toricpick.corpus import get, names
from toricpick.errors import ToricError
from toricpick.exact import dot
from toricpick.invariants import (_genus_restriction, twisted_signature_breakdown,
                                  twisted_todd_breakdown, volume_breakdown)
from toricpick.localization import (chern_number, choose_generic,
                                    integrate_poly_breakdown, localize,
                                    partitions_of)
from toricpick.polytope import HPolytope, enumerate_vertices
from toricpick.series import (GENUS_KINDS, MultiPoly, elementary_symmetric,
                              exp_linear, genus_series, product_over_facets)


def cube(n):
    facets = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    facets += [(tuple(-int(j == i) for j in range(n)), -1) for i in range(n)]
    return HPolytope(n, facets, name="cube%d" % n)


def simplex(n):
    facets = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    return HPolytope(n, facets + [((-1,) * n, -1)], name="simplex%d" % n)


def simplex2_squared():
    facets = [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((-1, -1, 0, 0), -1),
              ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0), ((0, 0, -1, -1), -2)]
    return HPolytope(4, facets, name="simplex2xsimplex2")


def corner_cut_polygon(cuts):
    """A square of side 40 with 4 corners cut at depth 8, then `cuts` of the
    octagon's corners cut at depth 2.  Cutting the corner between cyclically
    adjacent facets (lam_j, a_j), (lam_k, a_k) by (lam_j + lam_k, a_j + a_k + c)
    is a blow-up, so the polygon stays Delzant."""
    ring = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -40), ((0, -1), -40)]

    def cut(ring, pos, depth):
        (lj, aj), (lk, ak) = ring[pos], ring[(pos + 1) % len(ring)]
        new = ((lj[0] + lk[0], lj[1] + lk[1]), aj + ak + depth)
        return ring[:pos + 1] + [new] + ring[pos + 1:]

    # descending positions, so each cut leaves the earlier corners in place
    for pos in (3, 2, 1, 0):
        ring = cut(ring, pos, 8)
    for pos in reversed(range(cuts)):
        ring = cut(ring, pos, 2)
    return HPolytope(2, ring, name="polygon%d" % len(ring))


POLYTOPES = ([get(name) for name in names()]
             + [cube(4), simplex(5), simplex2_squared()]
             + [corner_cut_polygon(k) for k in (2, 4, 6)])


def oracle(p, cls, u):
    """Integral and per-vertex contributions of an m-variable class by
    evaluating every term at every vertex chart."""
    n = p.dim
    by_degree = [Fraction(0)] * (n + 1)
    contributions = []
    for chart in enumerate_vertices(p):
        w = [dot(chart.mu_matrix.row(j), u) for j in range(n)]
        at = dict(zip(chart.facet_set, w))
        euler = 1
        for x in w:
            euler *= x
        contribution = Fraction(0)
        for e, coeff in cls.terms.items():
            if any(k and i not in at for i, k in enumerate(e)):
                continue
            value = coeff / euler
            for i, k in enumerate(e):
                value *= Fraction(at.get(i, 1)) ** k
            by_degree[sum(e)] += value
            contribution += value
        contributions.append((chart.vertex, contribution))
    assert by_degree[:n] == [0] * n
    return by_degree[n], tuple(contributions)


def m_variable_class(p, kind, twist):
    n, m = p.dim, len(p.facets)
    cls = MultiPoly.constant(m, n, 1)
    if twist:
        cls = exp_linear([-a for a in p.offsets], n)
    if kind is not None:
        cls = cls.mul(product_over_facets(genus_series(kind, n), m, n))
    return cls


def two_vectors(p):
    charts = enumerate_vertices(p)
    u1 = choose_generic(charts)
    return u1, choose_generic(charts, exclude=(tuple(u1),))


PUBLIC = {("Todd", True): twisted_todd_breakdown,
          ("SignatureHalf", True): twisted_signature_breakdown,
          (None, True): volume_breakdown}


@pytest.mark.parametrize("p", POLYTOPES, ids=lambda p: p.name)
def test_genus_restriction_matches_m_variable_class(p):
    vectors = two_vectors(p)
    for kind in GENUS_KINDS + (None,):
        for twist in (True, False) if kind is not None else (True,):
            cls = m_variable_class(p, kind, twist)
            for u in vectors:
                expected = oracle(p, cls, u)
                got = localize(p, u, *_genus_restriction(p, kind, twist))
                assert got == expected, (kind, twist, u)
                assert integrate_poly_breakdown(p, cls, u) == expected, (kind, twist, u)
                if (kind, twist) in PUBLIC:
                    assert PUBLIC[kind, twist](p, u) == expected, (kind, u)


@pytest.mark.parametrize("p", [cube(4), simplex(5), corner_cut_polygon(6)],
                         ids=lambda p: p.name)
def test_chern_class_route_matches_m_variable_class(p):
    n, m = p.dim, len(p.facets)
    u = two_vectors(p)[1]
    for omega in partitions_of(n):
        cls = MultiPoly.constant(m, n, 1)
        for k in omega:
            cls = cls.mul(elementary_symmetric(k, m, n))
        assert chern_number(p, omega, u) == oracle(p, cls, u)[0], omega


def test_uncancelled_low_degree_is_a_chart_bug():
    p = get("square1")
    u = two_vectors(p)[0]

    def euler_in_degree_zero(chart, w):
        return [w[0] * w[1], 0, 0]

    with pytest.raises(ToricError, match="degree-0 .*chart bug"):
        localize(p, u, euler_in_degree_zero)

