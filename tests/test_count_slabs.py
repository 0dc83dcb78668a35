"""The slab walk of count_points against the fiber walk it replaced.

The oracle walks every fiber of the bounding box along the widest axis and
classifies the points on slanted facets one by one.  The program walks slabs
over the exact projections of P and counts each stretch of columns between
two breakpoints in closed form, with floor sums and progression counts.
Both must give the same closed and relative-interior count for every face,
exactly; the program's closure over facet masks must hold the fiber walk's
closed counts under the faces' masks, and its closed weighted sum over them
must be the one the fiber walk's counts give.  The totals by dimension that
the program reads from its histogram of tight facets must match its own
per-face closure.  The face rows the program reads from facet masks alone
must be the rows the laid-out face lattice gives by face id, and its slope
classes, keyed and ordered by integers, those keyed and ordered by Fraction
(tests/oracles.py).  A slab bounded by one line a side is counted as its
first column, its interior and its last column; the breakpoint loop that
sweeps every other slab must credit the same masks and counts to each such
slab, and which inputs take which path is pinned.  The two closed forms are
held to brute force, and the traps the sweep along u can fall into are
pinned by name.

The full sweep (seeds 1 and 2, 4000 generated inputs and the accepted random
systems of the certificate sweep, each against the fiber walk, mask closure
and weighted sum included, its histogram against the per-face closure, its
face rows against the face-id views, its slope classes against the Fraction
order and each one-line slab against the breakpoint loop) runs from the
repository root with

    PYTHONPATH=src python tests/test_count_slabs.py
"""

import random
import time
from collections import defaultdict
from fractions import Fraction
from math import atan2, comb, gcd

import pytest

from families import (box, corner_cut_polygon, cube, delzant_family, shear, simplex,
                      times, unimodular_transform, weighted_family)
from oracles import face_id_rows, face_ids, faces_of_dim, fiber_walk, fraction_slope_classes
from test_certificate import random_systems
from toricpick import lattice
from toricpick.errors import ToricError
from toricpick.lattice import (count_points, floor_sum, progression_count,
                               weighted_sum_closed)
from toricpick.polytope import HPolytope, face_lattice

# generated inputs per seed: the tier-1 share and the full sweep
TIER1_INPUTS = 200
FULL_INPUTS = 2000

# the largest dilation of a simplex and the largest box side, by dimension
SIMPLEX_SIZE = {1: 30, 2: 12, 3: 6, 4: 3, 5: 2}
BOX_SIDE = {1: 20, 2: 12, 3: 7, 4: 4, 5: 3}


def agrees(p):
    """The per-face counts, the closure over facet masks and the closed
    weighted sum over it against the fiber walk's per-face counts."""
    fc = count_points(p)
    closed, relint = fiber_walk(p)
    faces, n = fc.charts.faces, p.dim
    by_mask = {sum(1 << i for i in f.facet_set): closed[fid] for fid, f in enumerate(faces)}
    weighted = Fraction(sum((-1) ** (n - f.dim) * 2 ** f.dim * closed[fid]
                            for fid, f in enumerate(faces)), 2 ** n)
    return ((fc.closed, fc.relint) == (closed, relint)
            and fc.closed_by_mask.keys() <= by_mask.keys()
            and all(fc.closed_by_mask.get(m, 0) == c for m, c in by_mask.items())
            and weighted_sum_closed(fc) == weighted)


def by_dim(counts, fl):
    """Per-face counts summed over the faces of each dimension, up to that of
    P, the last face."""
    return [sum(counts[i] for i in faces_of_dim(fl, d)) for d in range(fl.faces[-1].dim + 1)]


def histogram_agrees(p):
    """The totals read from the histogram of tight facets against the
    per-face closure summed by dimension."""
    fc = count_points(p)
    n, fl = p.dim, fc.charts
    return (fc.total == fc.closed[face_ids(fl)[()]]
            and [fc.closed_by_dim(d) for d in range(n + 1)] == by_dim(fc.closed, fl)
            and [fc.relint_by_dim(d) for d in range(n + 1)] == by_dim(fc.relint, fl))


def rows_agree(p):
    """The face rows read from facet masks against the face-id views."""
    fc = count_points(p)
    return fc.face_rows() == face_id_rows(fc)


def slopes_agree(p):
    """A fresh count_points(p), its slope classes against the Fraction-keyed ones."""
    real, seen = lattice._slope_classes, []
    lattice._slope_classes = lambda us, vs: seen.append((us, vs, real(us, vs))) or seen[-1][2]
    try:
        lattice.count_points.__wrapped__(p)
    finally:
        lattice._slope_classes = real
    (us, vs, got), = seen
    return got == fraction_slope_classes(us, vs)


def loop_route(slack, sides, flat, ulo, uhi):
    """The counts by facet mask that the breakpoint loop (lattice._sweep_slab)
    credits to a slab of _slab, whatever its envelopes; the masks of the
    facets with d = 0 on the first column, the whole slab and the last column
    are read here afresh."""
    first = whole = final = 0
    for bit, i, c in flat:
        first |= bit if slack[i] + c * ulo == 0 else 0
        final |= bit if slack[i] + c * uhi == 0 else 0
        whole |= bit if c == slack[i] == 0 else 0
    counts = defaultdict(int)
    lattice._sweep_slab(lattice._envelope(slack, sides[0], 2 * uhi),
                        lattice._envelope(slack, sides[1], 2 * uhi), ulo, uhi,
                        (first, whole, final), counts)
    return counts


def routes(p):
    """A fresh count_points(p), each slab credited apart: asserts that every
    slab _slab counts on its one-line path credits the masks and counts the
    loop credits to it, and returns (one-line slabs, slabs swept by the loop)
    and the count."""
    real_slab, real_sweep, swept, taken = lattice._slab, lattice._sweep_slab, [], [0, 0]

    def sweep(*args):
        swept.append(None)
        return real_sweep(*args)

    def slab(slack, sides, flat, ulo, uhi, counts):
        own, before = defaultdict(int), len(swept)
        real_slab(slack, sides, flat, ulo, uhi, own)
        loop = len(swept) > before
        if not loop:
            assert own == loop_route(slack, sides, flat, ulo, uhi), (p.facets, slack, ulo, uhi)
        taken[loop] += 1
        for mask, c in own.items():
            counts[mask] += c
    lattice._slab, lattice._sweep_slab = slab, sweep
    try:
        fc = lattice.count_points.__wrapped__(p)
    finally:
        lattice._slab, lattice._sweep_slab = real_slab, real_sweep
    return tuple(taken), fc


def facets(line):
    """The facets of a line (mask, s, c, d) of the sweep, ascending."""
    return [i for i in range(line[0].bit_length()) if line[0] >> i & 1]


def seeded_inputs(seed, count):
    """Every fourth a corner-cut polygon with 5-16 facets, the rest dilated
    simplices and boxes in dims 1-5 under a random shear and shift."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 4 == 3:
            out.append(corner_cut_polygon(rng.randint(5, 16), rng.randint(20, 60), rng))
            continue
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            p = simplex(n, rng.randint(1, SIMPLEX_SIZE[n]))
        else:
            lows = tuple(rng.randint(-3, 3) for _ in range(n))
            p = box(lows, tuple(a + rng.randint(1, BOX_SIDE[n]) for a in lows))
        if n == 1:
            p = unimodular_transform(p, [[rng.choice((1, -1))]], (rng.randint(-9, 9),))
        else:
            p = shear(p, rng)
        out.append(p)
    return out


def accepted_random_systems(seed, count):
    """The systems of the certificate sweep that are polytopes: rational
    vertices and non-Delzant corners in dims 1-3."""
    out = []
    for p in random_systems(seed, count):
        try:
            face_lattice(p)
        except ToricError:
            continue
        out.append(p)
    return out


def test_floor_sum_matches_brute_force():
    for n in range(8):
        for a in range(-9, 10):
            for b in range(-11, 12):
                for c in (1, 2, 3, 7):
                    assert floor_sum(n, a, b, c) == sum((a * i + b) // c for i in range(n))
    assert floor_sum(10 ** 6, 7, -3, 11) == sum((7 * i - 3) // 11 for i in range(10 ** 6))


def test_progression_count_matches_brute_force():
    for s in range(-7, 8):
        for c in range(-6, 7):
            for d in (1, 2, 4, 6, 9):
                for first, last in ((-5, 9), (3, 3), (0, -1), (-12, -4)):
                    expected = sum((s + c * u) % d == 0 for u in range(first, last + 1))
                    assert progression_count(s, c, d, first, last) == expected


@pytest.mark.parametrize("name,p", delzant_family(5), ids=[name for name, _ in delzant_family(5)])
def test_slab_walk_matches_fiber_walk_on_delzant_family(name, p):
    assert agrees(p)


@pytest.mark.parametrize("name,p", delzant_family(6), ids=[name for name, _ in delzant_family(6)])
def test_histogram_totals_match_the_per_face_closure_and_the_fiber_walk(name, p):
    # the histogram gives the totals by dimension with binomials, the
    # per-face counts close the masks over their subsets, and the fiber
    # walk credits each point to a face by its facet set
    fc = count_points(p)
    closed, relint = fiber_walk(p)
    n, fl = p.dim, fc.charts
    top = face_ids(fl)[()]
    assert fc.total == closed[top] == fc.closed[top]
    for counts, fiber, of_dim in ((fc.closed, closed, fc.closed_by_dim),
                                  (fc.relint, relint, fc.relint_by_dim)):
        assert [of_dim(d) for d in range(n + 1)] == by_dim(counts, fl) == by_dim(fiber, fl)
    assert histogram_agrees(p)


@pytest.mark.parametrize("seed", [1, 2])
def test_slab_walk_matches_fiber_walk_on_seeded_inputs(seed):
    inputs = seeded_inputs(seed, TIER1_INPUTS)
    assert {p.dim for p in inputs} == {1, 2, 3, 4, 5}
    assert all(agrees(p) for p in inputs)


def test_slab_walk_matches_fiber_walk_on_random_systems():
    inputs = accepted_random_systems(3, 1500)
    assert len(inputs) >= 100
    assert all(agrees(p) for p in inputs)


def spy(monkeypatch, name, log):
    """Replace lattice.<name> by a wrapper that appends its arguments to log."""
    real = getattr(lattice, name)

    def wrapper(*args):
        log.append(args)
        return real(*args)
    monkeypatch.setattr(lattice, name, wrapper)


def walked(monkeypatch, p):
    """count_points(p) afresh, and (ulo, uhi, columns) for each slab, where
    columns lists (u, points credited) for each column credited on its own
    (the end columns, integer breakpoints and any stretch of one column), in
    the order of u."""
    slabs = []
    slab, stretch = lattice._slab, lattice._stretch

    def one_column(first, last, *args):
        before = sum(args[-1].values())
        stretch(first, last, *args)
        if first == last:
            slabs[-1][2].append((first, sum(args[-1].values()) - before))
    monkeypatch.setattr(lattice, "_slab",
                        lambda *args: slabs.append((args[3], args[4], [])) or slab(*args))
    monkeypatch.setattr(lattice, "_stretch", one_column)
    fc = lattice.count_points.__wrapped__(p)
    return fc, [(ulo, uhi, sorted(columns)) for ulo, uhi, columns in slabs]


def test_breakpoint_on_the_first_column_of_a_sweep(monkeypatch):
    # two lower lines cross on the first column after a slab's end column,
    # so that column is counted alone: a slope tie-break there would credit
    # the vertex point to an edge
    p = HPolytope(3, [((1, 0, 0), -2), ((0, 1, -1), 15), ((0, 2, -1), 24),
                      ((-1, -3, 2), -38)])
    fc, slabs = walked(monkeypatch, p)
    assert any(uhi > ulo + 1 and (ulo + 1, 1) in columns for ulo, uhi, columns in slabs)
    assert (fc.closed, fc.relint) == fiber_walk(p)
    assert fc.total == 4 and fc.relint_by_dim(0) == 4


def test_facet_that_meets_a_slab_at_one_breakpoint(monkeypatch):
    # axes u = y, v = x, outer z: in the slab z = -3 the lower lines of
    # facets 0 and 2 cross on the column y = 3 at the vertex (3, -1, -3),
    # and the line of facet 1 passes through that point and lies below P
    # everywhere else, so the vertex column must credit all three
    p = HPolytope(3, [((2, 3, 3), -6), ((1, 2, 2), -5), ((0, 1, 2), -7),
                      ((-3, -6, -7), 12)])
    log = []
    spy(monkeypatch, "_stretch", log)
    fc = lattice.count_points.__wrapped__(p)
    assert any(first == last == 3 and facets(lower) == [0, 1, 2]
               for first, last, lower, *_ in log)
    assert (fc.closed, fc.relint) == fiber_walk(p)
    assert fc.total == 84 and fc.relint_by_dim(0) == 4

def test_breakpoint_past_the_last_column_of_a_slab(monkeypatch):
    # in the slab z = 16 (u = y from 16 to 19) the lower lines of facets 0
    # and 2 cross at y = 19 1/2: the stretch must still stop at column 18,
    # since column 19 is an end column, counted on its own
    p = HPolytope(3, [((3, 0, 4), 39), ((0, 1, -1), 2), ((2, -1, 4), 24),
                      ((-3, 0, -4), -46), ((0, -1, 1), -6), ((-2, 1, -4), -28)])
    ends, envelope = [], lattice._envelope
    monkeypatch.setattr(lattice, "_envelope", lambda *args: ends.append(
        (args[2], [key for key, *_ in envelope(*args)[1:]])) or envelope(*args))
    fc = lattice.count_points.__wrapped__(p)
    assert (38, [39, 38]) in ends
    assert (fc.closed, fc.relint) == fiber_walk(p)
    assert fc.total == 200

def test_section_collapses_to_a_segment(monkeypatch):
    # axes u = x, v = y, outer z: at z = 0 the lower facet y >= z and the
    # upper facet y <= -z are one line, and the slab is the segment y = 0
    p = HPolytope(3, [((1, 0, 0), 0), ((-1, 0, 0), -7), ((0, 1, -1), 0),
                      ((0, -1, -1), 0), ((0, 0, 1), -5)])
    log = []
    spy(monkeypatch, "_stretch", log)
    fc = lattice.count_points.__wrapped__(p)
    assert any(facets(lower) == [2] and facets(upper) == [3]
               for _, _, lower, upper, *_ in log)
    assert (fc.closed, fc.relint) == fiber_walk(p)
    # the edge y = z = 0 holds the six points strictly between its ends
    assert fc.relint[face_ids(fc.charts)[(2, 3)]] == 6


# the tetrahedron x, y, z >= 0, x + y + z <= 4, and its mirror image in y
TETRAHEDRA = [simplex(3, 4),
              HPolytope(3, [((1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, 1), 0),
                            ((-1, 1, -1), -4)])]


@pytest.mark.parametrize("p,ends", [
    (TETRAHEDRA[0], [(0, 4, [(0, 5), (4, 1)]), (0, 0, [(0, 1)])]),
    (TETRAHEDRA[1], [(-4, 0, [(-4, 1), (0, 5)]), (0, 0, [(0, 1)])])],
    ids=["last column", "first column"])
def test_slab_pinched_to_one_point_at_an_end_column(monkeypatch, p, ends):
    # axes u = y, v = x, outer z: in each slab z < 4 the lower facet x >= 0
    # meets the slanted one at an end column, in one point on both facets;
    # the slab z = 4 is that point alone
    fc, slabs = walked(monkeypatch, p)
    assert all(end in slabs for end in ends)
    assert (fc.closed, fc.relint) == fiber_walk(p)
    assert fc.total == comb(7, 3)


def test_two_facets_on_one_line_in_a_slab(monkeypatch):
    # y >= z and y >= -z are the same line y >= 0 in the slab z = 0; the
    # points on it lie on the edge of both facets
    p = HPolytope(3, [((1, 0, 0), 0), ((-1, 0, 0), -6), ((0, 1, -1), 0), ((0, 1, 1), 0),
                      ((0, -1, 0), -9), ((0, 0, 1), -2), ((0, 0, -1), -2)])
    log = []
    spy(monkeypatch, "_stretch", log)
    fc = lattice.count_points.__wrapped__(p)
    assert any(facets(lower) == [2, 3] for _, _, lower, *_ in log)
    assert (fc.closed, fc.relint) == fiber_walk(p)
    assert fc.relint[face_ids(fc.charts)[(2, 3)]] == 5


def test_outer_range_of_a_rational_polytope():
    # the outer axis x spans -1/2..2/5 over the vertices, so the slab x = 0
    # is the only one: the slabs x = -1 and x = 1 of the rounded-out box
    # miss P
    p = HPolytope(3, [((-1, 2, 2), -1), ((-2, 1, 0), 0), ((1, 2, 2), -1), ((-1, 0, 1), -1),
                      ((1, -2, -2), 0)])
    assert agrees(p)


@pytest.mark.parametrize("p", [HPolytope(1, [((1,), -4), ((-1,), -9)]),
                               HPolytope(1, [((-1,), 3), ((1,), -8)]),
                               HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -9)]),
                               HPolytope(2, [((1, 1), 0), ((-1, 1), 0), ((0, -1), -5)])],
                         ids=["segment", "segment reversed", "rational triangle",
                              "wedge over u"])
def test_dimensions_one_and_two(p):
    assert agrees(p)


def test_dilation_1000_tetrahedron_by_faces():
    fc = count_points(simplex(3, 1000))
    assert fc.total == comb(1003, 3)
    assert [fc.relint_by_dim(d) for d in range(4)] == [4, 6 * 999, 4 * comb(999, 2),
                                                       comb(999, 3)]


def test_thin_sheared_cube_costs_its_points_not_its_box():
    # the unit cube under [[1,a,a],[0,1,a],[0,0,1]] [[1,0,0],[a,1,0],[a,a,1]]
    # at a = 100: a bounding box of about 10^11 points holds the 8 vertices
    a = 100
    m = [[1 + 2 * a * a, a + a * a, a], [a + a * a, 1 + a * a, a], [a, a, 1]]
    fc = count_points(unimodular_transform(cube(3), m, (0, 0, 0)))
    assert fc.total == 8 and fc.relint_by_dim(0) == 8


def primitive_polygon(k):
    """The lattice polygon whose edges are the primitive vectors (p, q) with
    |p|, |q| <= k, one each in the order of angle: every vertex is a lattice
    point and no edge holds one more.  Returns it and twice its area."""
    edges = sorted(((p, q) for p in range(-k, k + 1) for q in range(-k, k + 1)
                    if gcd(p, q) == 1), key=lambda e: atan2(e[1], e[0]))
    corners = [(0, 0)]
    for ex, ey in edges[:-1]:
        corners.append((corners[-1][0] + ex, corners[-1][1] + ey))
    facets = [((-ey, ex), ex * y - ey * x) for (x, y), (ex, ey) in zip(corners, edges)]
    twice_area = sum(x * y2 - x2 * y
                     for (x, y), (x2, y2) in zip(corners, corners[1:] + corners[:1]))
    return HPolytope(2, facets), twice_area


def test_polygon_with_many_facets_costs_a_sweep_per_side():
    # 1936 facets, every vertex an integer breakpoint on one side: a sweep
    # that tried every pair of lines per slab took 43 s on the 1024-gon
    p, twice_area = primitive_polygon(28)
    m = len(p.facets)
    assert m == 1936
    face_lattice(p)
    start = time.perf_counter()
    fc = count_points(p)
    assert time.perf_counter() - start < 1
    # Pick: A = I + B / 2 - 1, with B = m
    assert fc.total == (twice_area + m) // 2 + 1
    assert [fc.relint_by_dim(d) for d in range(2)] == [m, 0]

def test_prism_over_a_polygon_with_many_facets():
    # only rows tight at a common vertex are paired: the 640 x 640 pairs of
    # lower and upper facets once gave some 10^7 steps
    p, twice_area = primitive_polygon(16)
    m = len(p.facets)
    assert m == 640
    fc = count_points(times(p, box((0,), (100,))))
    assert fc.total == ((twice_area + m) // 2 + 1) * 101


ROW_INPUTS = delzant_family(8) + weighted_family(random.Random(41), max_dim=4)


def off_lattice(p):
    """Whether some vertex of p is not a lattice point."""
    return count_points(p).hist[p.dim] < len(face_lattice(p))


def test_row_inputs_hold_off_lattice_vertices():
    # a face that holds no lattice point is found only through such a vertex
    assert sum(map(off_lattice, (p for _, p in ROW_INPUTS))) >= 40


@pytest.mark.parametrize("name,p", ROW_INPUTS, ids=[name for name, _ in ROW_INPUTS])
def test_face_rows_match_the_face_id_views(name, p):
    assert rows_agree(p)


# dilated simplices, boxes and prisms in dimensions 3 and 4
DILATIONS = [simplex(3, 24), box((0, 0, 0), (11, 8, 14)), simplex(4, 9),
             box((0, 0, 0, 0), (6, 4, 5, 7)), times(simplex(2, 13), box((0,), (9,))),
             times(simplex(3, 6), box((0,), (5,)))]


def sheared_dilations(rng):
    """DILATIONS, each under a random shear of 2n row additions."""
    return [shear(p, rng) for p in DILATIONS]


def row_added(p):
    """p under x_0 += x_1 and shifted by 3 along each axis: one row addition,
    like each of the two that every benchmark dilated-lattice input takes."""
    n = p.dim
    return unimodular_transform(p, [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                                    for i in range(n)], (3,) * n)


@pytest.mark.parametrize("p", [primitive_polygon(28)[0], *sheared_dilations(random.Random(43)),
                               *(p for _, p in delzant_family(6))])
def test_integer_slope_classes_match_the_fraction_order(p):
    assert slopes_agree(p)


@pytest.mark.parametrize("seed", [1, 2])
def test_integer_slope_classes_match_the_fraction_order_on_seeded_inputs(seed):
    assert all(slopes_agree(p) for p in seeded_inputs(seed, TIER1_INPUTS))


ROUTE_INPUTS = [*(p for _, p in delzant_family(8)),
                *(p for _, p in weighted_family(random.Random(41), max_dim=4)),
                *sheared_dilations(random.Random(43)), *seeded_inputs(1, TIER1_INPUTS)]


def test_one_line_slabs_credit_what_the_breakpoint_loop_credits():
    taken = [routes(p)[0] for p in ROUTE_INPUTS]
    # both paths run: the polygons' and the sheared inputs' slabs take the loop
    assert sum(one for one, _ in taken) > 1000 and sum(loop for _, loop in taken) > 100


def denominators(monkeypatch):
    """The list, as calls come, of the c of floor_sum and the d of progression_count."""
    seen = []
    for name, at in (("floor_sum", 3), ("progression_count", 2)):
        def spied(*args, real=getattr(lattice, name), at=at):
            seen.append(args[at])
            return real(*args)
        monkeypatch.setattr(lattice, name, spied)
    return seen


@pytest.mark.parametrize("p", DILATIONS + [row_added(p) for p in DILATIONS])
def test_dilations_take_the_one_line_path_with_unit_denominators(monkeypatch, p):
    # each side of every slab is one facet's line
    seen = denominators(monkeypatch)
    (one_line, swept), fc = routes(p)
    assert one_line > 0 and swept == 0 and fc.by_mask == count_points(p).by_mask
    assert seen and set(seen) == {1}


def test_sheared_dilations_and_a_polygon_with_many_facets_take_the_loop():
    # 2n row additions leave several lines on a side of the slabs of all but
    # the 4-dimensional prism; the 1936-gon is one slab of 967 lines a side
    taken = [routes(p)[0] for p in sheared_dilations(random.Random(43))]
    assert [swept > 0 for _, swept in taken] == [True] * 5 + [False]
    assert routes(primitive_polygon(28)[0])[0] == (0, 1)


def sweep(seed, count):
    """(inputs, by dimension); asserts agreement with the fiber walk (the
    per-face counts, the mask closure and the closed weighted sum), of the
    histogram totals with the per-face closure, of the face rows with the
    face-id views, of the slope classes with the Fraction order and of each
    one-line slab with the breakpoint loop, on each."""
    inputs = seeded_inputs(seed, count) + accepted_random_systems(seed, 2000)
    dims = {}
    for p in inputs:
        assert agrees(p) and histogram_agrees(p), p.facets
        assert rows_agree(p) and slopes_agree(p), p.facets
        assert routes(p)[1].by_mask == count_points(p).by_mask, p.facets
        dims[p.dim] = dims.get(p.dim, 0) + 1
    return len(inputs), dict(sorted(dims.items()))


if __name__ == "__main__":
    total = 0
    for seed in (1, 2):
        inputs, dims = sweep(seed, FULL_INPUTS)
        total += inputs
        print("seed %d: %d inputs agree, mask closures, weighted sums, histograms, face "
              "rows, slope orders and one-line slabs included, by dimension %s"
              % (seed, inputs, dims))
    print("%d inputs in all" % total)
