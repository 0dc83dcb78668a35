"""The face order read from facet sets against its definition.

face_lattice stores no order.  The faces above g are the subsets of its
facet set, and a facet of f adds to f's facet set one facet through a vertex
of f.  The oracle takes g <= f when every vertex of g is a vertex of f, over
all F^2 pairs, so the families stay small.  induce_face_polytope reads the
facets of a face from the charts; the route it replaced read them from the
face lattice and is its oracle.
"""

import random
import tracemalloc
from collections import Counter

import pytest

from families import (P112, corner_cut_polygon, cube, delzant_family, dilate,
                      get, shear, simplex, times)
from oracles import (box_walk, face_ids, fraction_volume, hermite_rows,
                     inclusion_children, induced_by_children, inclusion_order,
                     integer_kernel_basis)
from toricpick.cli import load_polytope
from toricpick.errors import InputError, ToricError
from toricpick.lattice import count_points
from toricpick.polytope import (HPolytope, enumerate_vertices, face_lattice,
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
    """leq, and the rule induce_face_polytope reads its facets by: a facet of
    f adds to f's facet set one facet through a vertex of f."""
    fl = face_lattice(p)
    down = inclusion_order(fl)
    assert fl.leq == {(g, f) for f, gs in enumerate(down) for g in gs}
    ids, charts, children = face_ids(fl), enumerate_vertices(p), inclusion_children(fl)
    for fid, face in enumerate(fl.faces):
        extra = {i for w in face.vertices for i in charts[w].facet_set} - set(face.facet_set)
        assert tuple(sorted(ids[tuple(sorted(face.facet_set + (i,)))] for i in extra)) \
            == children[fid]


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


def induced(route, p, face):
    """The facets and name that route gives the face, or its error."""
    try:
        q = route(p, face)
    except ToricError as e:
        return type(e), str(e)
    return q.facets, q.name


# the corpus is in delzant_family(5); p112's edge on facet 2 starts at a vertex
# of det -2, and the edge x = 0 of the last triangle has a facet y <= 1/2
INDUCE_CASES = delzant_family(5) + FAMILY + [
    ("p112", load_polytope(P112)),
    ("x + 2y <= 1", HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -1)]))]


@pytest.mark.parametrize("name,p", INDUCE_CASES, ids=[name for name, _ in INDUCE_CASES])
def test_induced_faces_match_the_face_lattice_route(name, p):
    """Facets, names and errors, vertices and P itself included."""
    outcomes = {}
    for face in face_lattice(p).faces:
        new = induced(induce_face_polytope, p, face)
        assert new == induced(induced_by_children, p, face), face
        outcomes[face.facet_set] = new
    if name == "x + 2y <= 1":
        assert outcomes[(0,)] == (InputError, "induced facet from 2 is not integral")
    if name == "p112":
        assert outcomes[(2,)][0] is InputError


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
    # a fresh chart table, walked before the traced window, lays its faces out
    fl = enumerate_vertices.__wrapped__(simplex(12))
    tracemalloc.start()
    try:
        fl.faces
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fl.faces) == 2 ** 13 - 1
    assert peak < 16 * 2 ** 20
