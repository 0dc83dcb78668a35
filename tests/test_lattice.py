"""Lattice point enumeration and the two weighted face-sum formulations."""

import gc
import os
import weakref
from fractions import Fraction
from functools import cached_property
from math import prod

import pytest

from families import CORPUS_NAMES, box, get
from oracles import inclusion_order, localize_rows
from toricpick import lattice, polytope
from toricpick.cli import main
from toricpick.errors import ToricError
from toricpick.invariants import check_tetrahedron
from toricpick.lattice import count_points, weighted_sum_closed, weighted_sum_relint
from toricpick.localization import choose_generic
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


def test_equal_polytopes_with_other_names_share_nothing():
    facets = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -4), ((0, -1), -7)]
    a = HPolytope(2, facets, name="A")
    b = HPolytope(2, facets, name="B")
    assert a == b
    fa, fb = count_points(a), count_points(b)
    assert fb is not fa and fb.lattice is not fa.lattice
    assert enumerate_vertices(b) is not enumerate_vertices(a)
    assert fa.total == fb.total == 40 and fb.lattice is face_lattice(b)
    # nothing kept on a polytope refers back to one
    for held in (fb, fb.lattice, *fb.lattice.faces, *enumerate_vertices(b)):
        assert not any(isinstance(x, HPolytope) for x in vars(held).values())


def count_layouts(monkeypatch, laid_out):
    """Append each face lattice to laid_out when its faces are first read,
    that is, when it is laid out."""
    lay_out = polytope.FaceLattice.faces.func
    faces = cached_property(lambda fl: laid_out.append(fl) or lay_out(fl))
    faces.__set_name__(polytope.FaceLattice, "faces")
    monkeypatch.setattr(polytope.FaceLattice, "faces", faces)


def test_a_corpus_batch_walks_and_counts_each_file_once(monkeypatch, capsys):
    calls = {"walk": 0, "count": 0}
    laid_out = []

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(polytope, "_first_vertex", counted("walk", polytope._first_vertex))
    count_layouts(monkeypatch, laid_out)
    monkeypatch.setattr(lattice, "_project", counted("count", lattice._project))
    assert main(["corpus", CORPUS_DIR, "--format", "json"]) == 0
    capsys.readouterr()
    # pick, todd, face-todd and the rest read one walk and count per file, and
    # face-todd sweeps its faces through each vertex, so no face lattice is laid out
    assert calls == dict.fromkeys(calls, len(CORPUS_NAMES)) and laid_out == []


def test_totals_build_no_face_lattice(monkeypatch, capsys):
    # the histogram answers verify todd and compute count, the counted f-vector
    # the h-vector, and volume reaches its faces by facet set; verify pick
    # and face-todd close the counts over the subsets of their facet masks for
    # their closed-count sides, and the per-face table reads its faces from
    # those masks too, so no command lays a face lattice out
    laid_out = []
    count_layouts(monkeypatch, laid_out)
    path = os.path.join(CORPUS_DIR, "simplex3_2.json")
    for argv in (["verify", "todd", path], ["compute", "count", path],
                 ["verify", "signature", path], ["compute", "hvector", path],
                 ["compute", "volume", path], ["verify", "tetrahedron", path],
                 ["verify", "pick", path], ["verify", "face-todd", path],
                 ["compute", "count", path, "--faces"]):
        assert main(argv + ["--format", "json"]) == 0, argv
        capsys.readouterr()
        assert laid_out == [], argv


def test_points_on_facets_that_cut_out_no_face_raise(monkeypatch):
    # facets 0 and 2 of the unit square are x >= 0 and x <= 1, which meet
    # nowhere, and it has no facet 9
    p = get("square1")
    assert p.normals[0] == (1, 0) and p.normals[2] == (-1, 0) and len(p.facets) == 4
    laid_out = []
    count_layouts(monkeypatch, laid_out)
    readers = {"weighted_sum_closed": weighted_sum_closed,
               "closed_by_mask": lambda fc: fc.closed_by_mask,
               "face_rows": lambda fc: fc.face_rows(),
               "closed": lambda fc: fc.closed, "relint": lambda fc: fc.relint}
    for name, read in readers.items():
        p = get("square1")
        # the masks are checked in increasing order, a mask from the one less
        # its lowest facet where that was checked: both ways fail alike
        for masks, facets in (({0b0101: 1}, r"\(0, 2\)"), ({0b0100: 2, 0b0101: 1}, r"\(0, 2\)"),
                              ({0b1: 2, 1 << 9: 1}, r"\(9,\)"), ({0: 3, 1 << 9: 1}, r"\(9,\)")):
            fc = lattice.FaceCounts(p, masks)
            with pytest.raises(ToricError, match=r"^1 lattice points lie on facets %s, which "
                                                 r"cut out no face$" % facets):
                read(fc)
            assert fc.total == sum(masks.values()), name
        if name in ("weighted_sum_closed", "closed_by_mask", "face_rows"):
            assert laid_out == [], name
    # the histogram reads no face
    fc = lattice.FaceCounts(p, {0b0101: 1})
    assert fc.total == 1 and fc.relint_by_dim(0) == 1


def test_a_polytope_is_freed_with_its_derived_geometry():
    p = box((0, 0, 0), (2, 1, 3), name="freed")
    charts, fl, fc = enumerate_vertices(p), face_lattice(p), count_points(p)
    assert fc.total == 3 * 2 * 4 and volume(p) == 6
    u = choose_generic(charts)
    assert localize_rows(p, u, lambda c, w: [0, 0, 0, prod(w)])[0] == len(charts)
    ref = weakref.ref(p)
    del p
    gc.collect()
    # what the caller still holds of p's geometry does not hold p
    assert ref() is None and fc.lattice is fl
    # counts taken before any face lattice still close by face once p is gone
    q = box((0, 0, 0), (2, 1, 3), name="counted first")
    fq, ref = count_points(q), weakref.ref(q)
    del q
    gc.collect()
    assert ref() is None
    assert (fq.closed, fq.relint) == (fc.closed, fc.relint)
