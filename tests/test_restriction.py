"""Restriction-first localization against the m-variable class route.

The oracle builds the class exp(w_P) prod_i g(v_i) as a polynomial in all m
facet classes (exp_linear, product_over_facets) and evaluates every term at
every vertex chart; the program restricts each factor to the vertex as a
series in one variable.  Both must give the same integral and the same
per-vertex contributions, exactly.
"""

from fractions import Fraction

import pytest

from families import cube, cut_octagon, simplex, simplex2_squared
from oracles import elementary_symmetric
from toricpick.corpus import get, names
from toricpick.errors import ToricError
from toricpick.exact import dot
from toricpick.invariants import (_genus_restriction, twisted_signature_breakdown,
                                  twisted_todd_breakdown, volume_breakdown)
from toricpick.localization import (chern_number, choose_generic,
                                    integrate_poly_breakdown, localize,
                                    partitions_of)
from toricpick.polytope import enumerate_vertices
from toricpick.series import (GENUS_KINDS, MultiPoly, exp_linear, genus_series,
                              product_over_facets)


POLYTOPES = ([get(name) for name in names()]
             + [cube(4), simplex(5), simplex2_squared()]
             + [cut_octagon(k) for k in (2, 4, 6)])


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


@pytest.mark.parametrize("p", [cube(4), simplex(5), cut_octagon(6)],
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

