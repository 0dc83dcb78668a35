"""check_face_todd localizes every face from the charts of P.

A face F of a Delzant polytope is the submanifold dual to the product of
its facet classes; at a vertex of F its tangent weights are the weights of
the edges of P that stay in F.  So one generic vector for P and P's own
vertex charts give the twisted Todd genus of every face.  The route it
replaced presented each face as a polytope in its own integral chart
(induce_face_polytope) and localized that; it is the oracle here.
"""

import pytest

from families import cube, delzant_family, get, simplex, times
from oracles import face_ids, faces_of_dim, reduced
from toricpick import invariants, lattice, localization, polytope
from toricpick.errors import ToricError
from toricpick.invariants import (_genus_restriction, check_face_todd,
                                  twisted_todd_breakdown)
from toricpick.localization import assert_generic, choose_generic, localize
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
        restrict, scale = _genus_restriction(p, "Todd", face=face)
        assert localize(p, u2, restrict, scale, face=face)[0] == expected, label(face)


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
    choose = invariants.choose_generic
    monkeypatch.setattr(invariants, "choose_generic",
                        lambda charts, **kw: chosen.append(charts) or choose(charts, **kw))
    report = check_face_todd(p)
    assert report.holds
    assert len(report.breakdown["faces"]) == len(face_lattice(p).faces) == 9 * 7
    assert walked and all(q is p for q in walked)
    # once to choose the vector and once to weigh P's charts at it
    assert checked == [walk(p)] * 2
    assert chosen == [walk(p)]


def swapped(p, u, face):
    """P's chart weights with, at each vertex of the face, the first weight
    of an edge in the face and the first of an edge off it swapped."""
    data = list(localization._chart_weights(p, u))
    for v in face.vertices:
        c, w = data[v]
        inside = [j for j, i in enumerate(c.facet_set) if i not in face.facet_set]
        off = [j for j, i in enumerate(c.facet_set) if i in face.facet_set]
        w = list(w)
        w[inside[0]], w[off[0]] = w[off[0]], w[inside[0]]
        data[v] = (c, tuple(w))
    return tuple(data)


@pytest.mark.parametrize("p", [get("cube1"), get("prism"), get("simplex3_2"), cube(4),
                               simplex(4, 2)], ids=lambda p: p.name)
def test_a_mutated_face_weight_set_is_a_chart_bug(p, monkeypatch):
    # not (1, t, t^2, ...): at t = 2 one swap on an edge of simplex3_2 gives
    # weights 2 and -2, whose Euler sum is 0 by chance
    u = (7, 19, 53, 131)[:p.dim]
    assert_generic(p, u)
    proper = [f for f in face_lattice(p).faces if 0 < f.dim < p.dim]
    for face in proper:
        assert localize(p, u, *_genus_restriction(p, "Todd", face=face), face=face)[0] \
            == induced_todd(p, face)
        bad = swapped(p, u, face)
        with monkeypatch.context() as m:
            m.setattr(localization, "_chart_weights", lambda q, uu: bad)
            with pytest.raises(ToricError, match=r"^localization of the degree-\d part .* "
                                                 r"expected 0 \(chart bug\)$"):
                localize(p, u, *_genus_restriction(p, "Todd", face=face), face=face)


def test_whole_polytope_and_vertices_as_faces():
    """P as its own face is the plain twisted Todd sum; a vertex gives 1."""
    p = get("hirzebruch")
    fl = face_lattice(p)
    u = choose_generic(enumerate_vertices(p))
    top = fl.faces[face_ids(fl)[()]]
    assert localize(p, u, *_genus_restriction(p, "Todd", face=top), face=top) == \
        localize(p, u, *_genus_restriction(p, "Todd"))
    for fid in faces_of_dim(fl, 0):
        vertex = fl.faces[fid]
        value, contributions = reduced(localize(
            p, u, *_genus_restriction(p, "Todd", face=vertex), face=vertex))
        assert value == 1
        assert contributions == ((enumerate_vertices(p)[vertex.vertices[0]].vertex, 1),)
