"""Fixed point sums: generic vectors, monomial integrals, Gysin powers,
partition sums and Chern numbers."""

import ast
import inspect
import random
import re
from fractions import Fraction

import pytest

from families import CORPUS_NAMES, P112, corner_cut_polygon, get
from oracles import exp_linear, fixed_point_partition_sum, weight_tables
from toricpick import localization, polytope
from toricpick.cli import load_polytope
from toricpick.errors import (DimensionError, GenericityError, InputError,
                              RouteDisagreementError)
from toricpick.invariants import _genus_restriction, check_pick, check_todd, volume_breakdown
from toricpick.localization import (chart_weights, chern_number,
                                    check_partition, choose_generic,
                                    gysin_power, gysin_power_v3,
                                    integrate_monomial, localize, partitions_of)
from toricpick.polytope import enumerate_vertices

F = Fraction


def charts_of(name):
    return enumerate_vertices(get(name))


def two_vectors(p):
    u1 = choose_generic(enumerate_vertices(p))
    u2 = choose_generic(enumerate_vertices(p), exclude=(tuple(u1),))
    return u1, u2


def test_choose_generic_policy():
    assert choose_generic(charts_of("square1")) == (1, 2)
    assert choose_generic(charts_of("triangle1")) == (1, 2)
    assert choose_generic(charts_of("interval1")) == (1,)
    second = choose_generic(charts_of("interval1"), exclude=((1,),))
    assert type(second) is tuple and second == (2,)


def test_choose_generic_rejects_non_delzant():
    charts = enumerate_vertices(load_polytope(P112))
    with pytest.raises(InputError):
        choose_generic(charts)
    with pytest.raises(InputError, match="no vertex charts"):
        choose_generic(())


def test_each_chart_is_weighed_once_per_vector():
    """The 11-gon has an edge along (2, -1), so (1, 2) is refused: the first
    search weighs the whole table at (1, 2) and at (1, 3), the second finds
    (1, 2) refused in the table and weighs it at (1, 5), and localize reads
    the table at (1, 3) and (1, 5).  The table keeps the weights at each
    vector it was weighed at, refused or not, so every chart is weighed
    three times, once per vector, and no weighing is repeated."""
    p = corner_cut_polygon(11, 120)
    charts = enumerate_vertices(p)
    weighed = [0] * len(charts)

    class Rows(tuple):
        """A chart's M rows, counting each pass over them, one per weighing."""
        def __iter__(self):
            weighed[self.vid] += 1
            return super().__iter__()

    for vid, c in enumerate(charts):
        c.mu_matrix = Rows(c.mu_matrix)
        c.mu_matrix.vid = vid
    report = check_pick(p)
    assert report.holds and report.generic_vectors == ((1, 3), (1, 5))
    assert weighed == [3] * len(charts)
    assert list(charts.weighed) == [(1, 2), (1, 3), (1, 5)]


def test_chart_weights():
    p = get("square1")
    charts, vectors, (weights,) = chart_weights(p, (1, 2))
    assert charts is enumerate_vertices(p) and weights is charts.weighed[(1, 2)][0]
    assert vectors == [(1, 2)]
    # no u: the first count generic vectors, each table the one in the store
    charts, vectors, tables = chart_weights(p, count=2)
    assert vectors == [(1, 2), (1, 3)]
    assert all(t is charts.weighed[v][0] for v, t in zip(vectors, tables))
    # a given u comes first, as the ints it is weighed at; the rest exclude it
    assert chart_weights(p, [1, 3], 3)[1] == [(1, 3), (1, 2), (1, 5)]
    assert chart_weights(p, count=0)[1:] == ([], [])
    with pytest.raises(GenericityError):
        chart_weights(p, (1, 0))
    with pytest.raises(DimensionError):
        chart_weights(p, (1, 2, 3))
    # on the 11-gon (1, 2) pairs to zero first at chart 4 of 11, and the
    # refusal names that vertex whichever read weighed (1, 2) first
    message = (r"^u = \(1, 2\) pairs to zero with a weight at vertex \(31, 9\); "
               r"pick another vector$")
    for search_first in (False, True):
        q = corner_cut_polygon(11, 120)
        charts = enumerate_vertices(q)
        assert charts[4].vertex == (31, 9) and len(charts) == 11
        assert [all(a + 2 * b for a, b in c.mu_matrix) for c in charts[:5]] == [True] * 4 + [False]
        if search_first:
            assert choose_generic(charts) == (1, 3)
        for _ in range(2):
            with pytest.raises(GenericityError, match=message):
                chart_weights(q, (1, 2))


def test_no_vector_means_the_first_generic_one():
    """u = None reads the first generic vector, through chart_weights, in
    every route that takes a u, as it does in chern_number: on a fresh
    polytope the store then holds that vector alone."""
    q = get("hirzebruch")
    u = choose_generic(enumerate_vertices(q))
    for route, value in ((lambda p, u: gysin_power(p, 1, 2, u), 1),
                         (lambda p, u: integrate_monomial(p, (1, 1, 0, 0), u), 1),
                         (lambda p, u: chern_number(p, (1, 1), u), 8)):
        p = polytope.HPolytope(q.dim, q.facets)
        assert route(p, None) == route(q, u) == value
        assert list(enumerate_vertices(p).weighed) == [u] == [(1, 2)]


def test_a_non_integer_generic_vector_is_named():
    """Every route reads u through chart_weights, which refuses a float or
    a Fraction entry by name instead of failing inside the sum, also where
    an equal integer vector was weighed before."""
    p = get("hirzebruch")
    message = "generic vector entry 1.5 is not an integer"
    with pytest.raises(DimensionError, match=message):
        check_todd(p, u=(1.5, 7.25))
    with pytest.raises(DimensionError, match=message):
        chart_weights(p, (1.5, 7.25))
    with pytest.raises(DimensionError, match="generic vector entry Fraction\\(1, 2\\)"):
        gysin_power(p, 0, 2, (F(1, 2), 3))
    with pytest.raises(DimensionError, match="generic vector entry 2.0 is not an integer"):
        volume_breakdown(p, (2.0, 5))
    # the triple product route checks u the same way, though it reads no
    # chart weights, and gysin_power gives the same text
    q = get("simplex3_2")
    for route in (lambda u: gysin_power_v3(q, 0, u), lambda u: gysin_power(q, 0, 3, u)):
        with pytest.raises(DimensionError, match=r"^generic vector entry 1\.5 is not an integer$"):
            route((1.5, 2, 3))
        with pytest.raises(DimensionError, match=r"^generic vector has length 2, expected 3$"):
            route((1, 2))
    # 1.0 == 1 and hashes alike, so the table's entry at (1, 3) or at the
    # refused (1, 2) must not let (1.0, 3) or (1.0, 2) skip the check
    p = corner_cut_polygon(11, 120)
    assert choose_generic(enumerate_vertices(p)) == (1, 3)
    for u in ((1.0, 3), (1.0, 2)):
        with pytest.raises(DimensionError, match="generic vector entry 1.0 is not an integer"):
            volume_breakdown(p, u)


def test_integrate_monomial_known_values():
    cp2 = get("triangle1")
    u = choose_generic(enumerate_vertices(cp2))
    assert integrate_monomial(cp2, (2, 0, 0), u) == 1
    assert integrate_monomial(cp2, (0, 2, 0), u) == 1
    assert integrate_monomial(cp2, (1, 1, 0), u) == 1
    sq = get("square1")
    v = choose_generic(enumerate_vertices(sq))
    assert integrate_monomial(sq, (1, 0, 1, 0), v) == 0
    assert integrate_monomial(sq, (1, 1, 0, 0), v) == 1
    assert integrate_monomial(sq, (2, 0, 0, 0), v) == 0


def test_integrate_monomial_validates_exponents():
    p = get("square1")
    u = choose_generic(enumerate_vertices(p))
    with pytest.raises(DimensionError):
        integrate_monomial(p, (1, 1), u)
    with pytest.raises(DimensionError):
        integrate_monomial(p, (1, 1, 1, 0), u)
    with pytest.raises(DimensionError):
        integrate_monomial(p, (-1, 1, 0, 0), u)


def test_sub_top_degree_vanishes():
    for name in ("square2", "triangle2", "cube1", "prism"):
        p = get(name)
        u1, u2 = two_vectors(p)
        m = len(p.facets)
        for i in range(m):
            e = tuple(1 if j == i else 0 for j in range(m))
            assert integrate_monomial(p, e, u1) == 0
            assert integrate_monomial(p, e, u2) == 0


def test_u_independence_on_monomials():
    rng = random.Random(29)
    for name in CORPUS_NAMES:
        p = get(name)
        n = p.dim
        m = len(p.facets)
        u1, u2 = two_vectors(p)
        for _ in range(10):
            e = [0] * m
            for _ in range(rng.randint(0, n)):
                e[rng.randrange(m)] += 1
            e = tuple(e)
            assert integrate_monomial(p, e, u1) == integrate_monomial(p, e, u2)


def test_monomial_sum_matches_twisted_volume():
    p = get("triangle2")
    u = choose_generic(enumerate_vertices(p))
    w = exp_linear([-a for a in p.offsets], p.dim)
    by_monomials = sum(c * integrate_monomial(p, e, u)
                       for e, c in w.terms.items() if sum(e) == 2)
    assert by_monomials == volume_breakdown(p, u)[0] == 2


def test_gysin_power_on_simplex_facets():
    p = get("simplex3_1")
    u = choose_generic(enumerate_vertices(p))
    for i in range(4):
        assert gysin_power(p, i, 3, u) == 1


def test_gysin_power_requires_top_power():
    p = get("simplex3_1")
    u = choose_generic(enumerate_vertices(p))
    with pytest.raises(DimensionError):
        gysin_power(p, 0, 2, u)


def test_gysin_matches_monomial_route():
    for name in ("square2", "hirzebruch", "cube1", "prism"):
        p = get(name)
        n = p.dim
        m = len(p.facets)
        u = choose_generic(enumerate_vertices(p))
        for i in range(m):
            e = tuple(n if j == i else 0 for j in range(m))
            assert gysin_power(p, i, n, u) == integrate_monomial(p, e, u)


def test_triple_product_route_agrees():
    for name in ("cube1", "simplex3_1", "simplex3_2", "prism"):
        p = get(name)
        u1, u2 = two_vectors(p)
        for u in (u1, u2):
            for i in range(len(p.facets)):
                assert gysin_power_v3(p, i, u) == gysin_power(p, i, 3, u)
    with pytest.raises(DimensionError):
        gysin_power_v3(get("square1"), 0, (1, 2))
    cube = get("cube1")
    with pytest.raises(DimensionError, match="facet index 6 out of range"):
        gysin_power_v3(cube, 6, (1, 2, 4))
    # at the origin facet 0 meets facets 1 and 2, and <u, e_3, e_1> = 0
    with pytest.raises(GenericityError, match=r"not generic at vertex \(0, 0, 0\)"):
        gysin_power_v3(cube, 0, (1, 0, 1))


def test_gysin_routes_name_a_facet_or_power_that_is_not_an_integer():
    """Both routes read the facet index as integrate_monomial reads an
    exponent, by operator.index, before the range check; gysin_power reads
    its power the same way, before it compares it with n."""
    p = get("simplex3_2")
    u = choose_generic(enumerate_vertices(p))
    for route in (lambda facet: gysin_power(p, facet, 3, u),
                  lambda facet: gysin_power_v3(p, facet, u)):
        for facet in (1.0, "1", None):
            with pytest.raises(DimensionError, match="^facet index %s is not an integer$"
                                                     % re.escape(repr(facet))):
                route(facet)
        for facet in (4, -1):
            with pytest.raises(DimensionError, match="^facet index %d out of range$" % facet):
                route(facet)
        assert route(1) == 1
    for power in (3.0, "3"):
        with pytest.raises(DimensionError, match="^power %s is not an integer$"
                                                 % re.escape(repr(power))):
            gysin_power(p, 0, power, u)
    with pytest.raises(DimensionError, match="^exponent 3.0 is not an integer$"):
        integrate_monomial(p, (3.0, 0, 0, 0), u)


def test_partitions_of():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(6)) == 11
    assert partitions_of(1) == ((1,),)


def test_check_partition():
    assert check_partition((2, 1)) == (2, 1)
    assert check_partition([3], 3) == (3,)
    with pytest.raises(DimensionError):
        check_partition((1, 2))
    with pytest.raises(DimensionError):
        check_partition((0,))
    with pytest.raises(DimensionError):
        check_partition((2, 1), 4)


def test_partition_sum_is_augmented_power_sum():
    sq = get("square1")
    cp2 = get("triangle1")
    u_sq = choose_generic(enumerate_vertices(sq))
    u_cp = choose_generic(enumerate_vertices(cp2))
    # single part: power sum p_2 = e_1^2 - 2 e_2
    assert fixed_point_partition_sum(sq, (2,), u_sq) == 8 - 2 * 4
    assert fixed_point_partition_sum(cp2, (2,), u_cp) == 9 - 2 * 3
    # two parts (1, 1): ordered products give 2 e_2
    assert fixed_point_partition_sum(sq, (1, 1), u_sq) == 2 * 4
    assert fixed_point_partition_sum(cp2, (1, 1), u_cp) == 2 * 3


def test_chern_numbers_spot_values():
    cp2 = get("triangle1")
    assert chern_number(cp2, (2,)) == 3
    assert chern_number(cp2, (1, 1)) == 9
    sq = get("square1")
    assert chern_number(sq, (2,)) == 4
    assert chern_number(sq, (1, 1)) == 8
    line = get("interval1")
    assert chern_number(line, (1,)) == 2


def test_chern_top_partition_counts_vertices():
    for name in CORPUS_NAMES:
        p = get(name)
        assert chern_number(p, (p.dim,)) == len(enumerate_vertices(p))


def test_chern_numbers_are_integers_for_all_partitions():
    for name in CORPUS_NAMES:
        p = get(name)
        for omega in partitions_of(p.dim):
            value = chern_number(p, omega)
            assert value.denominator == 1, (name, omega, value)


def test_chern_number_refuses_disagreeing_or_fractional_routes(monkeypatch):
    p = get("triangle1")
    monkeypatch.setattr(localization, "_chern_fixed_point", lambda omega, charts, weights: F(4))
    with pytest.raises(RouteDisagreementError, match="route 4 disagrees with class route 3"):
        chern_number(p, (2,))
    # routes that agree on a fraction are reported, not rounded
    monkeypatch.setattr(localization, "_chern_fixed_point", lambda omega, charts, weights: F(7, 2))
    monkeypatch.setattr(localization, "localize", lambda charts, tables, restrict: ((F(7, 2),), ()))
    with pytest.raises(RouteDisagreementError, match="7/2 for partition .* is not an integer"):
        chern_number(p, (2,))


def test_chern_number_reads_one_weight_table_for_both_routes(monkeypatch):
    """chern_number reads its weights once, with chart_weights, at a given
    or a found vector; the budget, route one and localize take that table."""
    reads, handed = [], []
    read, fixed, summed = (localization.chart_weights, localization._chern_fixed_point,
                           localization.localize)
    monkeypatch.setattr(localization, "chart_weights",
                        lambda q, u: reads.append(read(q, u)) or reads[-1])
    monkeypatch.setattr(localization, "_chern_fixed_point", lambda omega, charts, weights:
                        handed.append(weights) or fixed(omega, charts, weights))
    monkeypatch.setattr(localization, "localize", lambda charts, tables, restrict:
                        handed.extend(tables) or summed(charts, tables, restrict))
    p = get("prism")
    charts = enumerate_vertices(p)
    for u in (None, two_vectors(p)[1]):
        reads.clear()
        handed.clear()
        assert chern_number(p, (3,), u) == len(charts) == 6
        assert len(reads) == 1 and len(handed) == 2
        assert handed[0] is handed[1] is charts.weighed[reads[0][1][0]][0]


def test_localize_sums_the_tables_it_is_given(monkeypatch):
    """localize checks and reads nothing: its body calls none of the walk,
    the gate, the vector check, chart_weights or the store, and with all of
    them out of reach it sums the tables it is handed, in their order."""
    calls = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
             for node in ast.walk(ast.parse(inspect.getsource(localize)))
             if isinstance(node, ast.Call)}
    assert not calls & {"enumerate_vertices", "require_delzant", "_vector", "chart_weights",
                        "weigh"}, calls
    p = get("prism")
    vectors = two_vectors(p)
    charts, tables = weight_tables(p, vectors)
    restrict, scale = _genus_restriction(p, "Todd")

    def forbidden(*args, **kwargs):
        raise AssertionError("localize read weights")

    for name in ("enumerate_vertices", "require_delzant", "_vector", "chart_weights"):
        monkeypatch.setattr(localization, name, forbidden)
    monkeypatch.setattr(polytope.ChartTable, "weigh", forbidden)
    values, terms = localize(charts, tables, restrict, scale, terms=True)
    assert values == (6, 6)
    swapped, second = localize(charts, tables[::-1], restrict, scale, terms=True)
    assert swapped == values and second == localize(charts, tables[1:], restrict, scale,
                                                    terms=True)[1] != terms


def test_chern_rejects_wrong_partition_total():
    with pytest.raises(DimensionError):
        chern_number(get("square1"), (3,))


def test_localization_rejects_non_delzant():
    p = load_polytope(P112)
    with pytest.raises(InputError):
        integrate_monomial(p, (1, 1, 0), (1, 2))
