"""Lattice point enumeration and the two weighted face-sum formulations."""

import os
from fractions import Fraction

from families import CORPUS_NAMES, get
from oracles import inclusion_order
from toricpick.cli import main
from toricpick.invariants import check_tetrahedron
from toricpick.lattice import count_points, weighted_sum_closed, weighted_sum_relint
from toricpick.polytope import HPolytope, enumerate_vertices, face_lattice, volume

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

F = Fraction

KNOWN_TOTALS = {
    "interval1": 2, "interval2": 3, "interval5": 6,
    "square1": 4, "square2": 9, "rect2x3": 12,
    "triangle1": 3, "triangle2": 6, "triangle3": 10,
    "hirzebruch": 5, "cube1": 8,
    "simplex3_1": 4, "simplex3_2": 10, "prism": 6,
}


def test_totals_on_corpus():
    for name in CORPUS_NAMES:
        assert count_points(get(name)).total == KNOWN_TOTALS[name], name


def test_face_classification_square2():
    fc = count_points(get("square2"))
    assert fc.relint_by_dim(2) == 1
    assert fc.relint_by_dim(1) == 4
    assert fc.relint_by_dim(0) == 4
    assert fc.closed_by_dim(0) == 4
    assert fc.closed_by_dim(1) == 12
    assert fc.total == 9


def test_face_classification_simplex():
    fc = count_points(get("simplex3_2"))
    assert fc.relint_by_dim(3) == 0
    assert fc.relint_by_dim(2) == 0
    assert fc.relint_by_dim(1) == 6
    assert fc.relint_by_dim(0) == 4
    assert fc.closed_by_dim(2) == 24


def test_closed_equals_relint_sum():
    for name in CORPUS_NAMES:
        fc = count_points(get(name))
        for fid, down in enumerate(inclusion_order(fc.lattice)):
            assert fc.closed[fid] == sum(fc.relint[g] for g in down)


def test_weighted_sums_agree_on_corpus():
    for name in CORPUS_NAMES:
        fc = count_points(get(name))
        assert weighted_sum_closed(fc) == weighted_sum_relint(fc), name


def test_weighted_sum_values():
    assert weighted_sum_closed(count_points(get("square1"))) == 1
    assert weighted_sum_closed(count_points(get("triangle1"))) == F(3, 4)
    assert weighted_sum_closed(count_points(get("simplex3_1"))) == F(1, 2)
    assert weighted_sum_closed(count_points(get("simplex3_2"))) == 2
    assert weighted_sum_closed(count_points(get("interval2"))) == 2


def test_pick_rhs_3d():
    """Int + Fac/2 + Edg/4 + Vert/8, the tetrahedron check's left side, is
    the relative-interior sum at n = 3."""
    fc = count_points(get("simplex3_2"))
    assert weighted_sum_relint(fc) == F(0) + F(0, 2) + F(6, 4) + F(4, 8)
    assert check_tetrahedron(get("simplex3_2")).lhs == F(2)


def test_cached_results_carry_no_polytope_name():
    # HPolytope equality ignores the name, so A and B share one cache entry;
    # what it holds must not name either of them.
    facets = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -4), ((0, -1), -7)]
    a = HPolytope(2, facets, name="A")
    b = HPolytope(2, facets, name="B")
    fa = count_points(a)
    fb = count_points(b)
    assert fb is fa and face_lattice(b) is fa.lattice
    for cached in (fb, fb.lattice):
        assert not hasattr(cached, "polytope")
    assert fb.lattice.dim == 2 and fb.total == 40


def test_caches_are_bounded_and_a_corpus_batch_still_hits_them(capsys):
    for fn in (count_points, face_lattice, enumerate_vertices, volume):
        assert fn.cache_info().maxsize is not None
        fn.cache_clear()
    assert main(["corpus", CORPUS_DIR, "--format", "json"]) == 0
    capsys.readouterr()
    # pick, todd and face-todd read one count and one face lattice per file
    assert count_points.cache_info().misses == len(CORPUS_NAMES)
    assert count_points.cache_info().hits >= 2 * len(CORPUS_NAMES)
    assert face_lattice.cache_info().misses == len(CORPUS_NAMES)
