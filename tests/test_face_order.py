"""The face order read from facet sets against its definition.

face_lattice stores no order.  The faces above g are the subsets of its
facet set, and a facet of f adds to f's facet set one facet through a vertex
of f.  The oracle takes g <= f when every vertex of g is a vertex of f, over
all F^2 pairs, so the families stay small.
"""

import random
import tracemalloc
from collections import Counter

import pytest

from families import (corner_cut_polygon, cube, delzant_family, dilate, get,
                      shear, simplex, times)
from oracles import (box_walk, fraction_volume, hermite_rows,
                     inclusion_children, inclusion_order, integer_kernel_basis)
from toricpick.lattice import count_points
from toricpick.polytope import (enumerate_vertices, face_lattice,
                                induce_face_polytope, volume)


def family():
    rng = random.Random(59)
    out = [("cube%d" % n, cube(n)) for n in range(1, 6)]
    out += [("simplex%d" % n, simplex(n)) for n in range(1, 8)]
    out += [("simplex3 (4)", simplex(3, 4)), ("simplex5 (2)", simplex(5, 2)),
            ("cube3 dilated 2", dilate(cube(3), 2)),
            ("prism dilated 3", dilate(get("prism"), 3))]
    out += [("simplex2 x cube2", times(simplex(2), cube(2))),
            ("hirzebruch x triangle2", times(get("hirzebruch"), get("triangle2"))),
            ("prism x simplex1 (3)", times(get("prism"), simplex(1, 3)))]
    out += [("polygon%d" % k, corner_cut_polygon(k, 30, rng)) for k in (5, 9, 14)]
    out += [("simplex3 (2) sheared", shear(simplex(3, 2), rng)),
            ("prism sheared", shear(get("prism"), rng)),
            ("cube4 sheared", shear(cube(4), rng))]
    return out


FAMILY = family()
IDS = [name for name, _ in FAMILY]


@pytest.mark.parametrize("name,p", FAMILY, ids=IDS)
def test_order_and_children_match_vertex_inclusion(name, p):
    fl = face_lattice(p)
    down = inclusion_order(fl)
    assert fl.leq == {(g, f) for f, gs in enumerate(down) for g in gs}
    for g in range(len(fl.faces)):
        assert sorted(fl.above(g)) == [f for f, gs in enumerate(down) if g in gs]
    assert [tuple(fl.children(f)) for f in range(len(fl.faces))] == inclusion_children(fl)


@pytest.mark.parametrize("name,p", FAMILY, ids=IDS)
def test_counts_and_volume_match_the_inclusion_order(name, p):
    fc = count_points(p)
    assert (fc.closed, fc.relint) == box_walk(p)
    assert volume(p) == fraction_volume(p)


@pytest.mark.parametrize("name,p", FAMILY, ids=IDS)
def test_induced_faces_match_the_inclusion_order(name, p):
    """Each proper face of dimension 1 or more, in its own chart, has one
    facet per child, a vertex per vertex, the face's points and its
    f-vector."""
    fl = face_lattice(p)
    down = inclusion_order(fl)
    children = inclusion_children(fl)
    closed, _ = box_walk(p)
    for fid, face in enumerate(fl.faces):
        if not 1 <= face.dim < p.dim:
            continue
        q = induce_face_polytope(p, face)
        assert len(q.facets) == len(children[fid])
        assert len(enumerate_vertices(q)) == len(face.vertices)
        assert count_points(q).total == closed[fid]
        dims = Counter(fl.faces[g].dim for g in down[fid])
        assert face_lattice(q).f_vector == tuple(dims[d] for d in range(face.dim + 1))


CHART_CASES = FAMILY + delzant_family(6)


@pytest.mark.parametrize("name,p", CHART_CASES, ids=[name for name, _ in CHART_CASES])
def test_face_chart_rows_span_the_saturated_kernel(name, p):
    """The face chart's basis, the rows of M_p at the face's earliest-chart
    vertex dual to the facets off the face, is a basis of the saturated
    integer kernel of the face's normals: both have one Hermite form."""
    charts = enumerate_vertices(p)
    for face in face_lattice(p).faces:
        if face.dim == p.dim:
            continue
        chart = charts[min(face.vertices, key=lambda w: charts[w].facet_set)]
        rows = [r for i, r in zip(chart.facet_set, chart.mu_matrix)
                if i not in face.facet_set]
        kernel = integer_kernel_basis([p.normals[i] for i in face.facet_set], p.dim)
        assert hermite_rows(rows) == kernel, face


def test_family_reaches_the_cases_it_names():
    assert {p.dim for _, p in FAMILY} == {1, 2, 3, 4, 5, 6, 7}


def test_twelve_simplex_lattice_stays_small():
    """The order of the 12-simplex has 1 586 131 pairs; it is not stored."""
    p = simplex(12)
    enumerate_vertices(p)
    tracemalloc.start()
    try:
        fl = face_lattice.__wrapped__(p)
        fl.faces
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fl.faces) == 2 ** 13 - 1
    assert peak < 16 * 2 ** 20
