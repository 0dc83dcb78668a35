"""The vertex edge walk against the subset scan it replaced.

The oracle solves every n-subset of the m facets (Bareiss determinant,
Cramer's rule, a cofactor inverse per chart) and keeps the feasible
intersection points.  The program walks the vertex graph instead, pivoting
an integer tableau from vertex to vertex, and finds the first vertex by
pivoting the same tableau from the coordinate frame.  Both must give the
same charts: vertex, facet set, det, Lambda and mu, exactly.  The search
for the first vertex stays far within its pivot budget, and no determinant
is eliminated.  The walk pivots once per vertex after the first and skips
the ratio test on the edge back, and the rows a pivot leaves unchanged are
shared, so its memory peak stays near its result.

A polygon is charted by sorting its facets by angle (polytope._planar),
and only what that cannot certify is walked: its charts must be the walk's,
order included, and wherever the walk or validate refuses a system the
sort must leave it to the walk, so every refusal stays the walk's.

The full sweep (delzant_family(8) and the pivot family, each in SHUFFLES
more facet orders, against the subset scan; the polygons of
delzant_family(8) and weighted_family in those orders, seeded corner-cut
polygons and the lattice 1936- and 7712-gons charted by the sort against
the walk; and RANDOM_SYSTEMS seeded planar systems, each charted alike or
left to the walk) runs from the repository root with

    PYTHONPATH=src python tests/test_vertex_walk.py
"""

import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from families import (CORPUS_NAMES, corner_cut_polygon, cube, delzant_family,
                      dilate, dump_polytope, get, random_shear, shuffled,
                      simplex, times, unimodular_transform, weighted_family,
                      weighted_simplex)
from oracles import (collected_ratio_test, general_pivot, hermite_rows,
                     identity, integer_kernel_basis, lambda_matrix, mat_mul,
                     subset_scan)
from test_count_slabs import primitive_polygon
from toricpick import exact, polytope
from toricpick.cli import load_polytope
from toricpick.cli import main as cli_main
from toricpick.errors import BudgetError, InputError, ToricError, UnboundedError
from toricpick.exact import dot
from toricpick.polytope import (VERTEX_SEARCH_BUDGET, WALK_BUDGET, HPolytope,
                                enumerate_vertices)


# further facet orders each input of the full sweep is tried in
SHUFFLES = 3

# seeded random planar systems of the full sweep, and of the tier-1 test
RANDOM_SYSTEMS, RANDOM_SYSTEMS_FAST = 40000, 4000


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


def phase_one_pivots(p, monkeypatch):
    """Pivots the first-vertex search takes after the n that span."""
    calls = []
    pivot = polytope._pivot
    monkeypatch.setattr(polytope, "_pivot", lambda *a: calls.append(1) or pivot(*a))
    polytope._first_vertex(p)
    monkeypatch.undo()
    return len(calls) - p.dim


def test_first_vertex_search_stays_far_below_its_budget(monkeypatch):
    assert max(phase_one_pivots(p, monkeypatch) for _, p in FAMILY) * 100 < VERTEX_SEARCH_BUDGET
    # facets written x_i >= 0, x_i <= 1 side by side, the order that starved
    # the subset scan: it refused the 9-cube after 5000 of its 48620 subsets
    for n in (8, 9, 13):
        p = cube_side_by_side(n)
        assert phase_one_pivots(p, monkeypatch) * 100 < VERTEX_SEARCH_BUDGET
        assert len(enumerate_vertices.__wrapped__(p)) == 2 ** n


def walk_work(p, monkeypatch):
    """The vertex count, and the pivots and ratio tests the walk takes after
    the first-vertex search: the search runs once alone, and once more
    inside the walk, so its calls are taken off twice.  The walk is called
    itself, as enumerate_vertices charts a polygon by its sort."""
    calls = {"_pivot": 0, "_entering": 0}
    for name in calls:
        def counted(*a, name=name, fn=getattr(polytope, name)):
            calls[name] += 1
            return fn(*a)
        monkeypatch.setattr(polytope, name, counted)
    polytope._first_vertex(p)
    search = dict(calls)
    vertices = len(polytope._walk(p))
    monkeypatch.undo()
    return (vertices, calls["_pivot"] - 2 * search["_pivot"],
            calls["_entering"] - 2 * search["_entering"])


WALK_WORK_CASES = ([("cube%d" % n, cube(n)) for n in (1, 3, 6, 9)]
                   + [("simplex4 (3)", simplex(4, 3)),
                      ("polygon30", corner_cut_polygon(30, 120, random.Random(5))),
                      ("rational simplex", weighted_simplex((1, 2, 3), 5)),
                      ("lattice 1936-gon", primitive_polygon(28)[0])])


@pytest.mark.parametrize("name,p", WALK_WORK_CASES, ids=[name for name, _ in WALK_WORK_CASES])
def test_walk_pivots_once_per_vertex_and_skips_the_edge_back(name, p, monkeypatch):
    """V - 1 pivots and n + (V - 1)(n - 1) ratio tests: every vertex but the
    first is pivoted once, and its edge back is not ratio-tested."""
    vertices, pivots, ratio_tests = walk_work(p, monkeypatch)
    n = p.dim
    assert pivots == vertices - 1
    assert ratio_tests == n + (vertices - 1) * (n - 1)
    if n == 2:
        assert ratio_tests == len(p.facets) + 1


def walk_swaps(p, monkeypatch):
    """The pivots of the first-vertex search alone, and the vertices, pivots
    and facet-set swaps of the whole walk, the search included."""
    calls = {"_pivot": 0, "_swap": 0}
    for name in calls:
        def counted(*a, name=name, fn=getattr(polytope, name)):
            calls[name] += 1
            return fn(*a)
        monkeypatch.setattr(polytope, name, counted)
    polytope._first_vertex(p)
    search = calls["_pivot"]
    calls.update(_pivot=0, _swap=0)
    vertices = len(polytope._walk(p))
    monkeypatch.undo()
    return search, vertices, calls["_pivot"], calls["_swap"]


@pytest.mark.parametrize("name,p", WALK_WORK_CASES, ids=[name for name, _ in WALK_WORK_CASES])
def test_walk_swaps_facets_once_per_pivot(name, p, monkeypatch):
    """Charts and the queue are keyed by facet masks, so a facet set is
    sorted only by _pivot, once for each vertex pivoted, and never for an
    edge that is only ratio-tested."""
    search, vertices, pivots, swaps = walk_swaps(p, monkeypatch)
    assert pivots == search + vertices - 1
    assert swaps == pivots


def planar_family():
    """(name, polygon) inputs the sort must chart as the walk does: the
    polygons of delzant_family(8), those of weighted_family (rational
    vertices, charts without mu), and seeded corner-cut polygons."""
    rng = random.Random(73)
    out = [(name, p) for name, p in delzant_family(8) + weighted_family(random.Random(41))
           if p.dim == 2]
    for k in (3, 4, 7, 12, 19, 27, 36):
        for side in (120, 360):
            out.append(("corner cut %d of %d" % (k, side), corner_cut_polygon(k, side, rng)))
    return out


def planar_charts_are_the_walks(p, walked=None):
    """The sort's charts of p against the walk's (walked, if given): vertex,
    facet set, det and mu, in the same order."""
    got, want = polytope._planar(p), walked or polytope._walk(p)
    assert got is not None and [vars(c) for c in got] == [vars(c) for c in want], p.facets
    return got


PLANAR_FAMILY = planar_family() + [("lattice 1936-gon", dict(WALK_WORK_CASES)["lattice 1936-gon"])]


@pytest.mark.parametrize("name,p", PLANAR_FAMILY, ids=[name for name, _ in PLANAR_FAMILY])
def test_planar_charts_are_the_walks(name, p):
    planar_charts_are_the_walks(p)


def test_planar_family_reaches_rational_charts():
    charts = [c for name, p in PLANAR_FAMILY if name.startswith("weighted")
              for c in polytope._planar(p)]
    assert len(charts) >= 18
    assert any(c.mu_matrix is None for c in charts)
    assert any(isinstance(x, Fraction) for c in charts for x in c.vertex)
    assert any(c.det < 0 for c in charts) and any(c.det > 0 for c in charts)


def random_planar_system(rng):
    """1 to 9 distinct primitive normals with entries in -4..4, offsets in -4..2."""
    facets, m = {}, rng.randint(1, 9)
    while len(facets) < m:
        lam = (rng.randint(-4, 4), rng.randint(-4, 4))
        if gcd(*lam) == 1:
            facets[lam] = rng.randint(-4, 2)
    return HPolytope(2, list(facets.items()))


def walk_verdict(p):
    """The walk's charts of p and None where validate would admit them, else
    None and the walk's error class name, or "redundant"."""
    try:
        charts = polytope._walk(p)
    except ToricError as e:
        return None, type(e).__name__
    used = {i for c in charts for i in c.facet_set}
    return (charts, None) if len(used) == len(p.facets) else (None, "redundant")


def planar_sweep(count, seed=79):
    """The verdicts on `count` seeded planar systems, counted: the sort
    charts each one the walk and validate admit as the walk does, and
    leaves each one they refuse to the walk."""
    rng = random.Random(seed)
    verdicts = Counter()
    for _ in range(count):
        p = random_planar_system(rng)
        want, refusal = walk_verdict(p)
        if want is None:
            assert polytope._planar(p) is None, p.facets
        else:
            planar_charts_are_the_walks(p, want)
        verdicts[refusal or "admitted"] += 1
    return verdicts


def test_planar_leaves_every_refusal_to_the_walk():
    verdicts = planar_sweep(RANDOM_SYSTEMS_FAST)
    assert verdicts.keys() == {"admitted", "redundant", "InputError", "NotSimpleError",
                               "UnboundedError"}, verdicts
    assert min(verdicts.values()) > 100, verdicts


def test_planar_budget_refusal_is_the_walks(monkeypatch):
    """A polygon with more corners than WALK_BUDGET is refused by the sort
    with the walk's BudgetError, word for word, and one with as many is
    charted; a system the sort cannot certify is left to the walk, budget
    or not."""
    p = dict(WALK_WORK_CASES)["polygon30"]
    monkeypatch.setattr(polytope, "WALK_BUDGET", 30)
    assert len(polytope._planar(p)) == 30
    monkeypatch.setattr(polytope, "WALK_BUDGET", 29)
    messages = []
    for enumerate_charts in (polytope._planar, polytope._walk, enumerate_vertices.__wrapped__):
        with pytest.raises(BudgetError) as err:
            enumerate_charts(p)
        messages.append(str(err.value))
    assert messages == ["vertex walk reached 29 charts with more to visit; the limit is 29"] * 3
    monkeypatch.setattr(polytope, "WALK_BUDGET", 2)
    fan = HPolytope(2, [((1, 0), 0), ((1, 1), 0), ((1, 2), 0)])
    assert polytope._planar(fan) is None


def random_tableau(rng, n, m, d, j, h, q, rates):
    """A tableau (tight, d, rows) of random integers over n tight facets of
    range(-n, m) and m facet columns, with -q in row j at h's column and
    the given rates at that column in the other rows, in order."""
    tight = tuple(sorted(rng.sample([i for i in range(-n, m) if i != h], n)))
    rows = [[rng.randint(-6, 6) for _ in range(n + m)] for _ in range(n + 1)]
    others = iter(rates)
    for k, row in enumerate(rows):
        row[n + h] = -q if k == j else next(others)
    return tight, d, rows


def test_pivot_and_ratio_test_match_the_oracles():
    """_pivot against general_pivot over unit and |d| > 1 steps, q of either
    sign and rates of 0, +-1 and more at h, and _entering against
    collected_ratio_test on whole rows and on sliced ones, with ties.  A row
    whose rate at h is 0 is shared, not copied, when |q| = |d|."""
    rng = random.Random(71)
    seen = set()
    for _ in range(3000):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        d = rng.choice([1, -1, 2, -3, 6])
        q = rng.choice([1, -1, abs(d), -abs(d), 3, -4])
        j, h = rng.randrange(n), rng.randrange(m)
        tableau = random_tableau(rng, n, m, d, j, h, q,
                                 [rng.choice([0, 0, 1, -1, 2, -5]) for _ in range(n)])
        rows = tableau[2]
        got = polytope._pivot(tableau, j, h)
        assert got == general_pivot(tableau, j, h)
        new_tight, _, new_rows = got
        pos = new_tight.index(h)
        kept = [row for k, row in enumerate(rows) if k != j]
        for old, new in zip(kept, new_rows[:pos] + new_rows[pos + 1:]):
            assert (new is old) == (old[n + h] == 0 and abs(q) == abs(d))
            seen.add((abs(q) == abs(d) == 1, q > 0, max(-2, min(old[n + h], 2))))
        slack = [rng.randint(0, 4) for _ in range(n + m)]
        for row in rows:
            want = collected_ratio_test(slack[n:], row[n:])
            assert polytope._entering(slack, row, range(n, n + m)) == want
            assert polytope._entering(slack[n:], row[n:], range(m)) == want
    # unit and general steps, q of each sign, rates 0, +-1 and beyond
    assert seen == set(product((True, False), (True, False), (-2, -1, 0, 1, 2)))


def test_twelve_cube_walk_peaks_near_its_charts():
    """A row whose pivot-column entry is 0 is kept, not rebuilt, when |det|
    stays 1, so the 12-cube's tableaux share most rows: the walk once
    peaked at 3.7 times the size of its charts."""
    p = cube(12)
    tracemalloc.start()
    try:
        charts = enumerate_vertices.__wrapped__(p)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charts) == 2 ** 12
    assert peak < 2.5 * size


def test_enumerate_vertices_eliminates_no_determinant(monkeypatch):
    """Every chart is pivoted, the first from the coordinate frame: the
    polytope module holds no determinant, and exact.det is never called."""
    assert "det" not in vars(polytope)
    calls = []
    eliminate = exact.det
    monkeypatch.setattr(exact, "det", lambda *a: calls.append(1) or eliminate(*a))
    for p in [p for _, p in FAMILY] + [cube_side_by_side(8)]:
        enumerate_vertices.__wrapped__(p)
    assert calls == []


def test_empty_system_exits_two_at_once(tmp_path, capsys):
    """m = 27, C(27, 6) = 296010 subsets: the subset scan spent its budget
    of 5000 on them and exited 2 with a BudgetError."""
    p = empty_cube_system(6, 15)
    start = time.perf_counter()
    with pytest.raises(InputError, match="empty polytope"):
        enumerate_vertices.__wrapped__(p)
    assert time.perf_counter() - start < 0.1
    path = tmp_path / "empty.json"
    path.write_text(dump_polytope(p))
    with pytest.raises(InputError, match="^%s: .*empty polytope" % re.escape(str(path))):
        load_polytope(str(path))
    start = time.perf_counter()
    assert cli_main(["compute", "count", str(path), "--format", "json"]) == 2
    assert time.perf_counter() - start < 1
    assert "empty polytope" in capsys.readouterr().err


def test_small_empty_systems_are_input_errors(monkeypatch):
    p = empty_cube_system(3, 3)
    with pytest.raises(InputError, match="empty polytope"):
        enumerate_vertices(p)
    # emptiness is proved after three phase-one pivots
    monkeypatch.setattr(polytope, "VERTEX_SEARCH_BUDGET", 3)
    with pytest.raises(InputError, match="empty polytope"):
        enumerate_vertices.__wrapped__(p)
    monkeypatch.setattr(polytope, "VERTEX_SEARCH_BUDGET", 2)
    with pytest.raises(BudgetError, match="after 2 phase-one pivots; the search limit is 2"):
        enumerate_vertices.__wrapped__(p)


def test_search_budget_counts_phase_one_pivots(monkeypatch):
    """The shuffled 20-gon of the Delzant family takes the most pivots (the
    walk is called itself, as enumerate_vertices charts a polygon by its sort)."""
    family = dict(delzant_family(8))
    assert max(phase_one_pivots(p, monkeypatch) for p in family.values()) == 5
    p = family["polygon20"]
    monkeypatch.setattr(polytope, "VERTEX_SEARCH_BUDGET", 5)
    assert len(polytope._walk(p)) == 20
    # an odd limit too, so that the count steps by one pivot
    for budget in (4, 3):
        monkeypatch.setattr(polytope, "VERTEX_SEARCH_BUDGET", budget)
        with pytest.raises(BudgetError, match="^no vertex found after %d phase-one pivots; "
                                              "the search limit is %d$" % (budget, budget)):
            polytope._walk(p)


def rank_deficient_normals(rng, n):
    """Up to n + 2 distinct primitive normals in dimension n, each an
    integer combination of r random rows (0 <= r < n) divided by its gcd,
    so the rank is below n."""
    r = rng.randint(0, n - 1)
    base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
    normals = set()
    for _ in range(rng.randint(1, n + 2)):
        coeffs = [rng.randint(-2, 2) for _ in range(r)]
        row = [sum(c * b[k] for c, b in zip(coeffs, base)) for k in range(n)]
        g = gcd(*row)
        if g:
            normals.add(tuple(x // g for x in row))
    return sorted(normals)


def span_direction(n, normals):
    """The direction `enumerate_vertices` refuses the normals with, checked
    to be primitive with its first nonzero entry positive, orthogonal to
    every normal and in the saturated kernel; for a kernel line it is the
    line's Hermite row.  Returns it with the kernel's rank."""
    p = HPolytope(n, [(lam, 0) for lam in normals])
    with pytest.raises(UnboundedError, match="normals do not span") as err:
        enumerate_vertices.__wrapped__(p)
    d = tuple(int(x) for x in str(err.value).split("(")[1].split(")")[0].split(","))
    basis = integer_kernel_basis(normals, n)
    assert gcd(*d) == 1 and next(x for x in d if x) > 0, normals
    assert all(dot(d, lam) == 0 for lam in normals), normals
    assert hermite_rows(list(basis) + [d]) == basis, normals
    if len(basis) == 1:
        assert d == basis[0], normals
    return d, len(basis)


def test_span_direction_small_cases():
    """By hand: a zero first column, opposite normals, kernel lines and planes."""
    assert span_direction(3, [(0, 2, 1), (0, 1, 3)]) == ((1, 0, 0), 1)
    assert span_direction(2, [(1, 2)]) == ((2, -1), 1)
    assert span_direction(2, [(-1, -2)]) == ((2, -1), 1)
    assert span_direction(2, [(1, 0), (-1, 0)]) == ((0, 1), 1)
    assert span_direction(3, [(1, 1, 1)])[1] == 2
    assert span_direction(3, [(0, 0, 1), (0, 0, -1)])[1] == 2


def test_span_direction_against_the_saturated_kernel():
    """Normals that do not span are refused with a primitive vector
    orthogonal to every normal, in the saturated kernel, with its first
    nonzero entry positive; for a kernel line it is the line's Hermite row."""
    rng = random.Random(61)
    seen = {"line": 0, "wider": 0}
    # in dimension 1 every rank-deficient normal is 0, so no system is left
    for n in range(2, 6):
        for _ in range(300):
            normals = rank_deficient_normals(rng, n)
            if normals:
                _, rank = span_direction(n, normals)
                seen["line" if rank == 1 else "wider"] += 1
    assert min(seen.values()) > 200, seen


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


if __name__ == "__main__":
    start = time.perf_counter()
    rng = random.Random(67)
    inputs = delzant_family(8) + pivot_family()
    orders = charts = rational = 0
    for name, p in inputs:
        for q in [p] + [shuffled(p, rng) for _ in range(SHUFFLES)]:
            got = charts_of(q)
            assert got == subset_scan(q), name
            orders += 1
            charts += len(got)
            rational += sum(abs(c[2]) > 1 for c in got)
    print("%d inputs in %d facet orders agree with the subset scan: %d charts, "
          "%d with |det| > 1, %.1f s"
          % (len(inputs), orders, charts, rational, time.perf_counter() - start))
    start = time.perf_counter()
    polygons = planar_family() + [("corner cut %d" % k, corner_cut_polygon(k, 500, rng))
                                  for k in range(3, 60)]
    polygons += [("lattice %d-gon" % len(p.facets), p)
                 for p in (primitive_polygon(28)[0], primitive_polygon(56)[0])]
    orders = charts = 0
    for _, p in polygons:
        for q in [p] + [shuffled(p, rng) for _ in range(SHUFFLES if len(p.facets) < 100 else 0)]:
            charts += len(planar_charts_are_the_walks(q))
            orders += 1
    verdicts = planar_sweep(RANDOM_SYSTEMS)
    print("%d polygons in %d facet orders charted by the sort as by the walk: %d charts; "
          "%d random planar systems: %d charted alike, the rest left to the walk (%s), %.1f s"
          % (len(polygons), orders, charts, RANDOM_SYSTEMS, verdicts.pop("admitted"),
             ", ".join("%s %d" % kv for kv in sorted(verdicts.items())),
             time.perf_counter() - start))
