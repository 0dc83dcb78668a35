"""Restriction-first localization against the m-variable class route.

The oracle builds the class exp(w_P) prod_i g(v_i) as a polynomial in all m
facet classes (oracles.exp_linear, product_over_facets) and evaluates every
term at every vertex chart (oracles.integrate_terms); the program restricts
each factor to the vertex as a series in one variable.  Both must give the
same integral and the same per-vertex contributions, exactly.  Monomials
are held to the same oracle one at a time.
"""

import random
from itertools import product

import pytest

from families import (CORPUS_NAMES, cube, cut_octagon, delzant_family, get, simplex,
                      simplex2_squared)
from oracles import (MultiPoly, divided_genus_series, elementary_symmetric, exp_linear,
                     integrate_terms, localize_rows, product_over_facets, weight_tables)
from toricpick.errors import ToricError
from toricpick.invariants import (_genus_restriction, twisted_signature_breakdown,
                                  twisted_todd_breakdown, volume_breakdown)
from toricpick.localization import (chern_number, choose_generic,
                                    integrate_monomial, localize, partitions_of)
from toricpick.polytope import enumerate_vertices
from toricpick.series import GENUS_KINDS


POLYTOPES = ([get(name) for name in CORPUS_NAMES]
             + [cube(4), simplex(5), simplex2_squared()]
             + [cut_octagon(k) for k in (2, 4, 6)])
FAMILY = delzant_family(6)


def m_variable_class(p, kind, twist):
    n, m = p.dim, len(p.facets)
    cls = MultiPoly.constant(m, n, 1)
    if twist:
        cls = exp_linear([-a for a in p.offsets], n)
    if kind is not None:
        cls = cls.mul(product_over_facets(divided_genus_series(kind, n), m, n))
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
            values, _ = localize(*weight_tables(p, vectors), *_genus_restriction(p, kind, twist))
            for i, u in enumerate(vectors):
                expected = integrate_terms(p, cls, u)
                (value,), terms = localize(*weight_tables(p, (u,)),
                                           *_genus_restriction(p, kind, twist), terms=True)
                assert (value, terms) == expected, (kind, twist, u)
                assert values[i] == value, (kind, twist, u)
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
        assert chern_number(p, omega, u) == integrate_terms(p, cls, u)[0], omega


def assert_monomial_matches_terms(p, e, vectors):
    n, m = p.dim, len(p.facets)
    for u in vectors:
        got = integrate_monomial(p, e, u)
        assert got == integrate_terms(p, MultiPoly(m, n, {e: 1}), u)[0], (e, u)
        if sum(e) < n:
            assert got == 0, (e, u)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_monomial_restriction_matches_terms_on_corpus(name):
    """Every monomial of degree at most n, at both generic vectors."""
    p = get(name)
    vectors = two_vectors(p)
    for e in product(range(p.dim + 1), repeat=len(p.facets)):
        if sum(e) <= p.dim:
            assert_monomial_matches_terms(p, e, vectors)


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_monomial_restriction_matches_terms_on_family(name, p):
    """Seeded random monomials, most of degree n, at both generic vectors."""
    rng = random.Random(name)
    n, m = p.dim, len(p.facets)
    vectors = two_vectors(p)
    for _ in range(12):
        e = [0] * m
        for _ in range(n if rng.random() < 0.75 else rng.randint(0, n - 1)):
            e[rng.randrange(m)] += 1
        assert_monomial_matches_terms(p, tuple(e), vectors)


def test_uncancelled_low_degree_is_a_chart_bug():
    p = get("square1")
    u = two_vectors(p)[0]

    def euler_in_degree_zero(chart, w):
        return [w[0] * w[1], 0, 0]

    with pytest.raises(ToricError, match="degree-0 .*chart bug"):
        localize_rows(p, u, euler_in_degree_zero)

