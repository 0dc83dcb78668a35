"""check_face_todd localizes every face from the charts of P.

A face F of a Delzant polytope is the submanifold dual to the product of
its facet classes; at a vertex of F its tangent weights are the weights of
the edges of P that stay in F.  So one generic vector for P and P's own
vertex charts give the twisted Todd genus of every face.  Two routes it
replaced are oracles here: each face presented as a polytope in its own
integral chart (induce_face_polytope) and localized, and each face
localized from P's charts on its own, oracles.localize_face with
oracles.face_todd_restriction, against which the one sweep over the faces
through each vertex (_face_todd_sweep) is held face by face.

The full sweep differential (delzant_family(8), every face, both generic
vectors) runs from the repository root with

    PYTHONPATH=src python tests/test_face_localization.py
"""

import time

import pytest

import oracles
from families import cube, delzant_family, get, simplex, times
from oracles import (face_ids, face_todd_restriction, faces_of_dim, genus_restriction,
                     localize_face, localize_rows, weight_table, weight_tables)
from toricpick import invariants, lattice, localization, polytope
from toricpick.errors import ToricError
from toricpick.invariants import (_face_todd_sweep, check_face_todd,
                                  twisted_todd_breakdown)
from toricpick.localization import chart_weights, choose_generic, localize
from toricpick.polytope import (enumerate_vertices, face_lattice,
                                induce_face_polytope)

FAMILY = delzant_family(6)


def label(face):
    return "dim%d/facets(%s)" % (face.dim, ",".join(map(str, face.facet_set)))


def induced_todd(p, face):
    """The face's twisted Todd genus by the route check_face_todd replaced."""
    if face.dim == 0:
        return 1
    if face.dim == p.dim:
        return twisted_todd_breakdown(p)[0]
    return twisted_todd_breakdown(induce_face_polytope(p, face))[0]


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_every_face_matches_its_induced_polytope(name, p):
    report = check_face_todd(p)
    assert report.holds
    faces = report.breakdown["faces"]
    fl = face_lattice(p)
    assert len(faces) == len(fl.faces)
    charts = enumerate_vertices(p)
    u2 = choose_generic(charts, exclude=(choose_generic(charts),))
    for face in fl.faces:
        expected = induced_todd(p, face)
        assert faces[label(face)]["twisted_todd"] == expected, label(face)
        # the face's value does not depend on the generic vector either
        restrict, scale = face_todd_restriction(p, face)
        assert localize_face(p, u2, restrict, scale, face)[0] == expected, label(face)


def test_family_reaches_the_corpus_and_dimension_six():
    assert {p.dim for _, p in FAMILY} == {1, 2, 3, 4, 5, 6}
    assert {"cube1", "prism", "hirzebruch", "simplex3_2"} <= {name for name, _ in FAMILY}


def test_only_p_is_walked_and_no_face_is_induced(monkeypatch):
    """A product no other test uses, so that no cache hides a call."""
    p = times(get("hirzebruch"), simplex(2, 3), name="hirzebruch x triangle3")

    def forbidden(*args):
        raise AssertionError("induce_face_polytope called")

    for module in (polytope, invariants):
        monkeypatch.setattr(module, "induce_face_polytope", forbidden, raising=False)
    walked, checked, chosen = [], [], []
    walk = polytope.enumerate_vertices
    for module in (invariants, localization, polytope, lattice):
        monkeypatch.setattr(module, "enumerate_vertices",
                            lambda q, walk=walk: walked.append(q) or walk(q))
    gate = localization.require_delzant
    monkeypatch.setattr(localization, "require_delzant",
                        lambda charts: checked.append(charts) or gate(charts))
    choose = localization.choose_generic
    monkeypatch.setattr(localization, "choose_generic",
                        lambda charts, **kw: chosen.append(charts) or choose(charts, **kw))
    report = check_face_todd(p)
    assert report.holds
    assert len(report.breakdown["faces"]) == len(face_lattice(p).faces) == 9 * 7
    assert walked and all(q is p for q in walked)
    # once by chart_weights and once to choose the vector; its weights are
    # read from the store, ungated
    assert checked == [walk(p)] * 2
    assert chosen == [walk(p)]


def swapped(p, u, face):
    """P's chart weights with, at each vertex of the face, the first weight
    of an edge in the face and the first of an edge off it swapped."""
    charts, weights = weight_table(p, u)
    weights = list(weights)
    for v in face.vertices:
        c, w = charts[v], list(weights[v])
        inside = [j for j, i in enumerate(c.facet_set) if i not in face.facet_set]
        off = [j for j, i in enumerate(c.facet_set) if i in face.facet_set]
        w[inside[0]], w[off[0]] = w[off[0]], w[inside[0]]
        weights[v] = tuple(w)
    return charts, tuple(weights)


@pytest.mark.parametrize("p", [get("cube1"), get("prism"), get("simplex3_2"), cube(4),
                               simplex(4, 2)], ids=lambda p: p.name)
def test_a_mutated_face_weight_set_is_a_chart_bug(p, monkeypatch):
    # not (1, t, t^2, ...): at t = 2 one swap on an edge of simplex3_2 gives
    # weights 2 and -2, whose Euler sum is 0 by chance
    u = (7, 19, 53, 131)[:p.dim]
    chart_weights(p, u)
    proper = [f for f in face_lattice(p).faces if 0 < f.dim < p.dim]
    for face in proper:
        assert localize_face(p, u, *face_todd_restriction(p, face), face)[0] \
            == induced_todd(p, face)
        bad = swapped(p, u, face)
        with monkeypatch.context() as m:
            for module in (localization, invariants, oracles):
                m.setattr(module, "chart_weights", lambda q, uu: (bad[0], [uu], [bad[1]]))
            for localized in (lambda: localize_face(p, u, *face_todd_restriction(p, face), face),
                              lambda: _face_todd_sweep(p, *bad)):
                with pytest.raises(ToricError, match=r"^localization of the degree-\d part .* "
                                                     r"expected 0 \(chart bug\)$"):
                    localized()


def test_whole_polytope_and_vertices_as_faces():
    """P as its own face is the plain twisted Todd sum; a vertex gives 1."""
    p = get("hirzebruch")
    fl = face_lattice(p)
    u = choose_generic(enumerate_vertices(p))
    top = fl.faces[face_ids(fl)[()]]
    whole = localize_face(p, u, *face_todd_restriction(p, top), top)
    assert whole == localize_rows(p, u, *genus_restriction(p, "Todd"))
    (value,), contributions = localize(*weight_tables(p, (u,)),
                                       *invariants._genus_restriction(p, "Todd"), terms=True)
    assert whole == (value, contributions)
    for fid in faces_of_dim(fl, 0):
        vertex = fl.faces[fid]
        value, contributions = localize_face(p, u, *face_todd_restriction(p, vertex), vertex)
        assert value == 1
        assert contributions == ((enumerate_vertices(p)[vertex.vertices[0]].vertex, 1),)


def sweep_matches_each_face(p):
    """At both generic vectors, the sweep's value of every face against
    localize_face on its own; returns the number of faces compared."""
    faces = face_lattice(p).faces
    charts = enumerate_vertices(p)
    u1 = choose_generic(charts)
    for u in (u1, choose_generic(charts, exclude=(u1,))):
        swept = _face_todd_sweep(p, *weight_table(p, u))
        assert sorted(swept) == sorted(f.mask for f in faces)
        for face in faces:
            assert swept[face.mask] == localize_face(p, u, *face_todd_restriction(p, face),
                                                     face)[0], (p.name, u, label(face))
    return 2 * len(faces)


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_the_sweep_matches_each_face_localized_alone(name, p):
    assert sweep_matches_each_face(p) > 0


@pytest.mark.parametrize("p,restrictions", [(cube(3), 8 * 2 ** 3), (simplex(3), 4 * 2 ** 3)],
                         ids=["cube3", "simplex3"])
def test_the_sweep_restricts_once_per_vertex_and_face_through_it(p, restrictions, monkeypatch):
    """V 2^n restrictions, in 2^n calls of V entries each, one per subset of
    facet positions taken at every vertex at once, no localize call, and
    the log rows of each dimension 0..n read once."""
    calls = {"restrictions": 0, "localize": 0}
    exponential, sizes = invariants._exponential, []

    def counted(*args):
        columns = exponential(*args)
        calls["restrictions"] += len(columns[0])
        sizes.append(len(columns[0]))
        return columns

    def forbidden(*args, **kwargs):
        calls["localize"] += 1
        raise AssertionError("localize called")

    monkeypatch.setattr(invariants, "_exponential", counted)
    for module in (invariants, localization):
        monkeypatch.setattr(module, "localize", forbidden)
    invariants._log_rows.cache_clear()
    assert check_face_todd(p).holds
    info = invariants._log_rows.cache_info()
    assert calls == {"restrictions": restrictions, "localize": 0}
    assert sizes == [len(enumerate_vertices(p))] * 2 ** p.dim
    assert (info.misses, info.hits) == (p.dim + 1, 0)


if __name__ == "__main__":
    start = time.perf_counter()
    family = delzant_family(8)
    compared = sum(sweep_matches_each_face(p) for _, p in family)
    print("%d polytopes, %d face values agree with localize_face, %.1f s"
          % (len(family), compared, time.perf_counter() - start))
