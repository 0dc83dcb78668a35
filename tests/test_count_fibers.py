"""count_points against the box walk, and the counting budget.

The oracle tests every facet at every point of the integer bounding box and
credits each lattice point of P to the face cut out by its tight facets.
The program walks slabs over the projections of P instead, and
test_count_slabs.py also holds it to the fiber walk that came between.  Both
must give the same closed and relative-interior count for every face,
exactly.
"""

import json
import random
import time
from math import comb

import pytest

from families import (CORPUS_NAMES, box, corner_cut_polygon, cube, dilate, dump_polytope,
                      get, shear, simplex, times, unimodular_transform)
from oracles import box_walk
from toricpick import lattice
from toricpick.cli import main
from toricpick.errors import BudgetError
from toricpick.lattice import count_points
from toricpick.polytope import HPolytope, enumerate_vertices, face_lattice


def family():
    rng = random.Random(43)
    out = [(name, get(name)) for name in CORPUS_NAMES]
    out += [("segment %d..%d" % (a, b), HPolytope(1, [((1,), a), ((-1,), -b)]))
            for a, b in ((0, 1), (-3, 4), (7, 19))]
    out.append(("segment reversed", HPolytope(1, [((-1,), -2), ((1,), -5)])))
    for n, k in ((2, 7), (3, 4), (4, 2)):
        out.append(("simplex%d dilated %d sheared" % (n, k), shear(simplex(n, k), rng)))
    for name in ("hirzebruch", "prism", "cube1", "triangle2"):
        p = dilate(get(name), 3)
        out.append(("%s dilated 3 sheared" % name, shear(p, rng)))
    out += [("triangle2 x hirzebruch", times(get("triangle2"), get("hirzebruch"))),
            ("interval5 x prism", times(get("interval5"), get("prism"))),
            ("triangle2 x prism", times(get("triangle2"), get("prism"))),
            ("square2 x simplex2 sheared", shear(times(get("square2"), simplex(2, 2)), rng))]
    out += [("polygon%d" % k, corner_cut_polygon(k, 30, rng)) for k in (5, 8, 12)]
    out.append(("rational simplex", HPolytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0),
                                                  ((0, 0, 1), 0), ((-1, -2, -3), -7)])))
    # widest extents 6, 6, 2: the walk runs along axis 0, the lower of the tie
    out.append(("tied box", box((1, -3, 0), (7, 3, 2))))
    out.append(("tied hexagon", HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -6),
                                              ((0, -1), -6), ((1, 1), 2), ((-1, -1), -10)])))
    return out


FAMILY = family()


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_fiber_walk_matches_box_walk(name, p):
    fc = count_points(p)
    closed, relint = box_walk(p)
    assert fc.closed == closed
    assert fc.relint == relint


def test_family_reaches_the_cases_it_names():
    assert {p.dim for _, p in FAMILY} >= {1, 2, 3, 4, 5}
    rational = dict(FAMILY)["rational simplex"]
    assert any(c.mu_matrix is None for c in enumerate_vertices(rational))
    assert max(len(p.facets) for _, p in FAMILY if p.dim == 2) == 12
    for name in ("tied box", "tied hexagon"):
        charts = enumerate_vertices(dict(FAMILY)[name])
        extents = [max(c.vertex[k] for c in charts) - min(c.vertex[k] for c in charts)
                   for k in range(len(charts[0].vertex))]
        assert extents.count(max(extents)) >= 2, name


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_face_order_is_facet_set_inclusion(name, p):
    fl = face_lattice(p)
    charts = enumerate_vertices(p)
    for f in fl.faces:
        assert f.vertices == tuple(v for v, c in enumerate(charts)
                                   if set(f.facet_set) <= set(c.facet_set))
    assert fl.leq == {(g, f) for f in range(len(fl.faces)) for g in range(len(fl.faces))
                      if set(fl.faces[g].vertices) <= set(fl.faces[f].vertices)}


def test_dilation_300_tetrahedron_without_the_oracle():
    assert count_points(simplex(3, 300)).total == comb(303, 3)


def tetrahedron_file(tmp_path, k):
    data = {"name": "tet%d" % k, "dim": 3,
            "facets": [{"normal": [1, 0, 0], "offset": 0},
                       {"normal": [0, 1, 0], "offset": 0},
                       {"normal": [0, 0, 1], "offset": 0},
                       {"normal": [-1, -1, -1], "offset": -k}]}
    path = tmp_path / ("tet%d.json" % k)
    path.write_text(json.dumps(data))
    return str(path)


def test_over_budget_raises_before_walking(monkeypatch):
    # a 5 x 7 x 4 box no other test uses: v = y and u = x, 4 slabs across
    # the narrowest axis z and one outer range; v's two facets are opposite,
    # share no vertex and so form no row pair, and each slab costs the 6
    # facets and the 2 projected rows that bound x
    p = box((31, 17, 5), (35, 23, 8))

    def forbidden(*args):
        raise AssertionError("a slab was swept")
    monkeypatch.setattr(lattice, "_slab", forbidden)
    for limit in (0, 32):
        monkeypatch.setattr(lattice, "COUNT_BUDGET", limit)
        with pytest.raises(BudgetError, match=r"at least 33 steps \(4 slabs x 8 rows, 0 row "
                                              r"pairs and 1 outer ranges of the projection\), "
                                              r"over the limit of %d" % limit):
            count_points(p)
    # a tetrahedron's facets x >= 0 and x + y + z <= 3 meet, so projecting
    # out v = x charges their pair before any slab
    monkeypatch.setattr(lattice, "COUNT_BUDGET", 0)
    with pytest.raises(BudgetError, match=r"at least 1 steps \(0 slabs x 4 rows, 1 row pairs "
                                          r"and 0 outer ranges of the projection\), over the "
                                          r"limit of 0"):
        count_points(simplex(3, 3))
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "COUNT_BUDGET", 33)
    assert count_points(p).total == 140


def test_over_budget_exits_two(tmp_path, monkeypatch, capsys):
    path = tetrahedron_file(tmp_path, 25)
    monkeypatch.setattr(lattice, "COUNT_BUDGET", 100)
    assert main(["verify", "pick", path, "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert "158 steps (26 slabs x 6 rows, 1 row pairs and 1 outer" in err
    assert "limit of 100" in err


def test_default_budget_answers_dilation_1e5_tetrahedron(tmp_path, capsys):
    path = tetrahedron_file(tmp_path, 10 ** 5)
    assert main(["compute", "count", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == comb(10 ** 5 + 3, 3)


def test_default_budget_refuses_dilation_1e4_4_simplex(tmp_path, capsys):
    # the slabs are the points of a triangle over the two outer axes, some
    # 5 x 10^7, counted row by row: the count stops at the 12th row, as the
    # 119 946 slabs so far, at 9 projection rows each, pass the budget
    data = {"name": "simplex4", "dim": 4,
            "facets": [{"normal": [int(i == j) for j in range(4)], "offset": 0}
                       for i in range(4)] + [{"normal": [-1] * 4, "offset": -10 ** 4}]}
    path = tmp_path / "simplex4.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["compute", "count", str(path), "--format", "json"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert ("at least 1079528 steps (119946 slabs x 9 rows, 2 row pairs and 12 outer ranges "
            "of the projection), over the limit of %d" % lattice.COUNT_BUDGET) in err


@pytest.mark.parametrize("p", [simplex(3, 10 ** 300), simplex(4, 10 ** 4)],
                         ids=["tetrahedron dilated 10^300", "4-simplex dilated 10^4"])
def test_huge_dilations_are_refused_before_any_slab_is_swept(monkeypatch, p):
    # the budget counts the slabs of the ranges the sweep then steps through
    def forbidden(*args):
        raise AssertionError("a slab was swept")
    monkeypatch.setattr(lattice, "_slab", forbidden)
    with pytest.raises(BudgetError, match="over the limit of %d" % lattice.COUNT_BUDGET):
        count_points(p)


def test_default_budget_answers_a_thin_sheared_5_cube(tmp_path, capsys):
    # the unit 5-cube under U L, U upper and L lower unitriangular with every
    # off-diagonal entry 5: the bounding box of the outer axes holds 528 748
    # slabs, the projection the few the sweep visits
    n = 5
    u = [[int(i == j) or 5 * (j > i) for j in range(n)] for i in range(n)]
    low = [[int(i == j) or 5 * (j < i) for j in range(n)] for i in range(n)]
    m = [[sum(u[i][k] * low[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    path = tmp_path / "sheared_cube5.json"
    path.write_text(dump_polytope(unimodular_transform(cube(n), m, (0,) * n)))
    start = time.perf_counter()
    assert main(["compute", "count", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["value"] == 2 ** n
