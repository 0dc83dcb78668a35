"""The vertex edge walk against the subset scan it replaced.

The oracle solves every n-subset of the m facets (Bareiss determinant,
Cramer's rule, a cofactor inverse per chart) and keeps the feasible
intersection points.  The program walks the vertex graph instead, pivoting
an integer tableau from vertex to vertex.  Both must give the same charts:
vertex, facet set, det, Lambda and mu, exactly.  The search for the walk's
first vertex stays within its budget, and it is the only place a
determinant is eliminated.
"""

import random
import re
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from families import (CORPUS_NAMES, corner_cut_polygon, cube, dilate, get,
                      random_shear, shuffled, simplex, times,
                      unimodular_transform, weighted_simplex)
from oracles import identity, lambda_matrix, mat_mul, subset_scan
from toricpick import polytope
from toricpick.cli import dump_polytope, load_polytope
from toricpick.cli import main as cli_main
from toricpick.errors import BudgetError, InputError
from toricpick.polytope import (VERTEX_SEARCH_BUDGET, WALK_BUDGET, HPolytope,
                                enumerate_vertices)


def charts_of(p):
    return [(c.vertex, c.facet_set, c.det, lambda_matrix(p, c), c.mu_matrix)
            for c in enumerate_vertices(p)]


def family():
    rng = random.Random(41)
    out = [(name, get(name)) for name in CORPUS_NAMES]
    out += [("simplex2xsquare", times(simplex(2), get("square2"))),
            ("interval x hirzebruch", times(get("interval2"), get("hirzebruch"))),
            ("prism x triangle", times(get("prism"), get("triangle2"))),
            ("simplex3_2 x simplex2", times(get("simplex3_2"), simplex(2, 3))),
            ("cube3 x interval", times(cube(3), get("interval5"))),
            ("prism x prism", times(get("prism"), get("prism")))]
    out += [("polygon%d" % k, corner_cut_polygon(k, 120, rng)) for k in (5, 8, 13, 20, 26, 30)]
    for name in ("hirzebruch", "prism", "simplex3_2", "triangle3"):
        p = get(name)
        for k in (2, 5):
            out.append(("%s dilated %d" % (name, k), dilate(p, k)))
        if p.dim > 1:
            shift = tuple(rng.randint(-9, 9) for _ in range(p.dim))
            out.append(("%s sheared" % name,
                        unimodular_transform(p, random_shear(p.dim, rng), shift)))
    # simple but not Delzant: rational vertices and charts without mu
    out.append(("rational triangle", weighted_simplex((1, 2), 1)))
    out.append(("rational simplex", weighted_simplex((1, 2, 3), 5)))
    # 1-D segments, in both facet orders
    out += [("segment %d..%d" % (a, b), HPolytope(1, [((1,), a), ((-1,), -b)]))
            for a, b in ((0, 1), (-3, 4), (7, 19))]
    out.append(("segment reversed", HPolytope(1, [((-1,), -2), ((1,), -5)])))
    return out + pivot_family()


def pivot_family():
    """Inputs whose pivots divide by |det| > 1 and move the entering facet
    across the tight set, so the walk's exact division and its det sign are
    both exercised: weighted simplices with coprime weights, sheared
    dilations of non-Delzant polytopes, and facets in shuffled order."""
    rng = random.Random(47)
    out = []
    for n in (2, 3, 4):
        for _ in range(3):
            weights = [rng.randint(1, 6) for _ in range(n)]
            while gcd(*weights) != 1:
                weights[rng.randrange(n)] = rng.randint(1, 6)
            k = rng.randint(1, 9)
            out.append(("rational simplex %s / %d" % ("-".join(map(str, weights)), k),
                        weighted_simplex(weights, k)))
    bases = [("rational triangle 2-3", weighted_simplex((2, 3), 1)),
             ("rational simplex", weighted_simplex((1, 2, 3), 5)),
             ("rational triangle x simplex", times(weighted_simplex((2, 3), 4),
                                                   weighted_simplex((1, 1, 2), 2)))]
    for name, p in bases:
        for k in (3, 7):
            shift = tuple(rng.randint(-9, 9) for _ in range(p.dim))
            out.append(("%s dilated %d sheared" % (name, k),
                        unimodular_transform(dilate(p, k), random_shear(p.dim, rng), shift)))
    for name, p in (("cube4", cube(4)), ("prism x triangle", times(get("prism"), get("triangle2"))),
                    ("rational simplex", weighted_simplex((1, 2, 3), 5)),
                    ("hirzebruch x rational triangle",
                     times(get("hirzebruch"), weighted_simplex((2, 3), 6)))):
        for order in (1, 2):
            out.append(("%s shuffled %d" % (name, order), shuffled(p, rng)))
    return out


FAMILY = family()


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_walk_matches_subset_scan(name, p):
    assert charts_of(p) == subset_scan(p)


def test_family_reaches_the_cases_it_names():
    polygons = [p for name, p in FAMILY if name.startswith("polygon")]
    assert max(len(p.facets) for p in polygons) == 30
    rational = dict(FAMILY)["rational simplex"]
    charts = enumerate_vertices(rational)
    assert any(c.mu_matrix is None for c in charts)
    assert any(isinstance(x, Fraction) for c in charts for x in c.vertex)
    assert {p.dim for _, p in FAMILY} >= {1, 2, 3, 4, 5, 6}
    sheared = [p for name, p in FAMILY if name.startswith("rational") and "sheared" in name]
    assert len(sheared) == 6
    for p in sheared:
        assert sum(abs(c.det) > 1 for c in enumerate_vertices(p)) >= 2
    assert sum("shuffled" in name for name, _ in FAMILY) == 8


def test_cube8_has_256_unimodular_charts():
    p = cube(8)
    charts = enumerate_vertices(p)
    assert [c.vertex for c in charts] == sorted(product((0, 1), repeat=8))
    for c in charts:
        assert c.det in (1, -1)
        assert mat_mul(c.mu_matrix, lambda_matrix(p, c)) == identity(8)
        assert c.facet_set == tuple(sorted(i if x == 0 else i + 8
                                           for i, x in enumerate(c.vertex)))


def cube_side_by_side(n):
    """The unit n-cube with x_i >= 0 and x_i <= 1 listed next to each other,
    so that every early n-subset holds a pair of parallel facets."""
    facets = []
    for lam, a in cube(n).facets[:n]:
        facets += [(lam, a), (tuple(-x for x in lam), -1)]
    return HPolytope(n, facets)


def empty_cube_system(n, k):
    """The unit n-cube and k facets x_i + x_j >= 10, none of which it meets."""
    cuts = [(tuple(int(t in pair) for t in range(n)), 10)
            for pair in list(combinations(range(n), 2))[:k]]
    return HPolytope(n, list(cube(n).facets) + cuts)


def first_vertex_tries(p):
    """n-subsets the search tries up to and including the first feasible one."""
    for tries, subset in enumerate(combinations(range(len(p.facets)), p.dim), 1):
        corner = polytope._corner(p, subset)
        if corner is not None and min(corner[-1]) >= 0:
            return tries
    return None


def test_first_vertex_search_stays_far_below_its_budget():
    assert max(first_vertex_tries(p) for _, p in FAMILY) * 100 < VERTEX_SEARCH_BUDGET
    # the slowest natural facet order of the largest cube the ladder uses
    p = cube_side_by_side(8)
    assert first_vertex_tries(p) == 4082 < VERTEX_SEARCH_BUDGET
    assert len(enumerate_vertices(p)) == 256


def test_determinants_run_only_in_the_first_vertex_search(monkeypatch):
    """Every chart after the first is pivoted from a neighbour's tableau."""
    cases = [p for _, p in FAMILY] + [cube_side_by_side(8)]
    tries = [first_vertex_tries(p) for p in cases]
    assert tries[-1] == 4082
    calls = []
    corner, eliminate = polytope._corner, polytope.det_adjugate
    monkeypatch.setattr(polytope, "_corner", lambda *a: calls.append("corner") or corner(*a))
    monkeypatch.setattr(polytope, "det_adjugate",
                        lambda *a: calls.append("det") or eliminate(*a))
    for p, t in zip(cases, tries):
        calls.clear()
        enumerate_vertices.__wrapped__(p)
        assert calls.count("corner") == calls.count("det") == t


def test_empty_system_is_refused_by_the_search_budget(tmp_path, capsys, monkeypatch):
    """m = 27, C(27, 6) = 296010 subsets: about 29 s to scan them all."""
    p = empty_cube_system(6, 15)
    calls = []
    corner = polytope._corner
    monkeypatch.setattr(polytope, "_corner", lambda *a: calls.append(1) or corner(*a))
    with pytest.raises(BudgetError, match="5000 of the 296010 6-subsets"):
        enumerate_vertices(p)
    assert len(calls) == VERTEX_SEARCH_BUDGET
    path = tmp_path / "empty.json"
    path.write_text(dump_polytope(p))
    with pytest.raises(BudgetError, match="^%s: no vertex found" % re.escape(str(path))):
        load_polytope(str(path))
    start = time.perf_counter()
    assert cli_main(["compute", "count", str(path), "--format", "json"]) == 2
    assert time.perf_counter() - start < 5
    assert "the search limit is %d" % VERTEX_SEARCH_BUDGET in capsys.readouterr().err


def test_small_empty_systems_are_input_errors(monkeypatch):
    p = empty_cube_system(3, 3)  # C(9, 3) = 84 subsets
    with pytest.raises(InputError, match="empty polytope"):
        enumerate_vertices(p)
    monkeypatch.setattr(polytope, "VERTEX_SEARCH_BUDGET", 84)
    with pytest.raises(InputError, match="empty polytope"):
        enumerate_vertices(p)
    monkeypatch.setattr(polytope, "VERTEX_SEARCH_BUDGET", 83)
    with pytest.raises(BudgetError, match="83 of the 84 3-subsets"):
        enumerate_vertices(p)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_walk_budget_boundary(k, monkeypatch):
    """The walk builds 2^k charts on a k-cube and refuses at one fewer."""
    p = cube(k)
    monkeypatch.setattr(polytope, "WALK_BUDGET", 2 ** k)
    assert len(enumerate_vertices.__wrapped__(p)) == 2 ** k
    monkeypatch.setattr(polytope, "WALK_BUDGET", 2 ** k - 1)
    with pytest.raises(BudgetError, match="reached %d charts with more to visit; "
                                          "the limit is %d" % (2 ** k - 1, 2 ** k - 1)):
        enumerate_vertices.__wrapped__(p)


def test_fourteen_cube_exits_two_on_the_walk_budget(tmp_path, capsys):
    """The 13-cube's 8192 charts fit the limit, the 14-cube's 16384 do not."""
    assert 2 ** 13 <= WALK_BUDGET < 2 ** 14
    path = tmp_path / "cube14.json"
    path.write_text(dump_polytope(cube(14)))
    start = time.perf_counter()
    assert cli_main(["verify", "pick", str(path)]) == 2
    assert time.perf_counter() - start < 10
    assert "the limit is %d" % WALK_BUDGET in capsys.readouterr().err
