"""Polytope construction, vertex charts, faces, volume and face induction.

The full volume sweep (delzant_family(7) and weighted_family, simple
polytopes with rational vertices, against the triangulation oracle
fraction_volume, and each counted f-vector against the laid-out faces)
runs from the repository root with

    PYTHONPATH=src python tests/test_polytope.py
"""

import json
import random
import re
import time
from fractions import Fraction
from math import gcd

import pytest

from families import (CORPUS_NAMES, P112, cube, delzant_family, dump_polytope,
                      get, random_shear, simplex, times, unimodular_transform,
                      weighted_family, weighted_simplex)
from oracles import (face_ids, faces_of_dim, fraction_volume, identity,
                     inclusion_children, lambda_matrix, mat_mul)
from toricpick import localization, polytope
from toricpick.cli import load_polytope
from toricpick.cli import main as cli_main
from toricpick.errors import (BudgetError, DimensionError, InputError,
                              NotSimpleError, ToricError, UnboundedError)
from toricpick.exact import det, dot
from toricpick.invariants import check_todd, volume_breakdown
from toricpick.lattice import count_points
from toricpick.polytope import (HPolytope, HVector,
                                enumerate_vertices, face_lattice, h_vector,
                                induce_face_polytope,
                                require_delzant, signature_from_h, validate,
                                volume)

F = Fraction


def square_pyramid():
    return HPolytope(3, [
        ((0, 0, 1), 0),
        ((-1, 0, -1), -1),
        ((1, 0, -1), -1),
        ((0, -1, -1), -1),
        ((0, 1, -1), -1),
    ], name="pyramid")


def test_constructor_rejects_bad_input():
    with pytest.raises(InputError):
        HPolytope(0, [((1,), 0)])
    with pytest.raises(InputError):
        HPolytope(2, [])
    with pytest.raises(InputError):
        HPolytope(2, [((2, 4), 0)])
    with pytest.raises(InputError):
        HPolytope(2, [((0, 0), 0)])
    with pytest.raises(InputError, match="^zero facet normal$"):
        HPolytope(2, [((0, 0), 0), ((1, 0), 0)])
    with pytest.raises(InputError):
        HPolytope(2, [((1, 0), 0), ((1, 0), 3)])
    with pytest.raises(InputError):
        HPolytope(2, [((1, 0, 0), 0)])


def test_library_constructors_refuse_non_integers():
    """Floats and Fractions are refused by name, never truncated: the 3 x 2
    box below would otherwise count 12 points.  A number where a sequence
    of integers belongs is named in the same error class, not left to a
    bare TypeError."""
    unit = [((1,), 0), ((-1,), -3)]
    square = get("square1")
    cases = [
        (InputError, "facet 0 normal entry 1.9 is not an integer",
         lambda: HPolytope(2, [((1.9, 0), 0), ((0, 1), 0), ((-1, 0), -3.7), ((0, -1), -2)])),
        (InputError, "facet 2 offset -3.7 is not an integer",
         lambda: HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -3.7), ((0, -1), -2)])),
        (InputError, r"facet 0 offset Fraction\(1, 2\) is not an integer",
         lambda: HPolytope(1, [((1,), F(1, 2)), ((-1,), -3)])),
        (InputError, "polytope dimension 2.5 is not an integer", lambda: HPolytope(2.5, unit)),
        (InputError, "h-vector entry 0.5 is not an integer", lambda: HVector((1, 0.5, 1))),
        (DimensionError, "partition part 2.9 is not an integer",
         lambda: localization.check_partition((2.9,), 2)),
        (DimensionError, "exponent 1.0 is not an integer",
         lambda: localization.integrate_monomial(HPolytope(1, unit), (1.0, 0), (1,))),
        (DimensionError, "expected a sequence of generic vector entry integers, got 5",
         lambda: check_todd(square, u=5)),
        (DimensionError, "expected a sequence of partition part integers, got 2",
         lambda: localization.chern_number(square, 2)),
        (DimensionError, "expected a sequence of exponent integers, got 3",
         lambda: localization.integrate_monomial(square, 3, (1, 2))),
        (DimensionError, "expected a sequence of generic vector entry integers, got 1",
         lambda: volume_breakdown(square, 1)),
        (InputError, "facet 0 expected a sequence of normal entry integers, got 1",
         lambda: HPolytope(2, [(1, 0)])),
    ]
    for error, message, build in cases:
        with pytest.raises(error, match="^%s$" % message):
            build()


class StrIndex:
    """A value whose __index__ returns a str, which operator.index refuses."""

    def __index__(self):
        return "1"

    def __repr__(self):
        return "StrIndex()"


def test_a_value_whose_index_is_not_an_int_is_refused_by_name():
    """operator.index raises TypeError when __index__ returns a str; the
    gate names the value, as it names a float, not a bare StopIteration."""
    with pytest.raises(InputError, match=r"^facet 0 normal entry StrIndex\(\) is not an integer$"):
        HPolytope(1, [((StrIndex(),), 0), ((-1,), -3)])
    for u in ((StrIndex(), 2), (2, StrIndex())):
        with pytest.raises(DimensionError,
                           match=r"^generic vector entry StrIndex\(\) is not an integer$"):
            check_todd(get("triangle1"), u=u)


def test_facets_that_are_not_normal_offset_pairs_are_refused_by_position():
    """A facet that does not unpack as a pair is named by its position, and
    facets that cannot be iterated are named as a whole, never left to a
    bare TypeError or ValueError."""
    cases = [
        ("facet 0 is not a (normal, offset) pair", lambda: HPolytope(2, [5])),
        ("facet 0 is not a (normal, offset) pair", lambda: HPolytope(2, [((1, 0),)])),
        ("facet 1 is not a (normal, offset) pair",
         lambda: HPolytope(2, [((1, 0), 0), ((0, 1), 0, 2)])),
        ("facets are not a sequence of (normal, offset) pairs", lambda: HPolytope(2, 7)),
    ]
    for message, build in cases:
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            build()


# gate: (error class, the name of the value, a call that reads the value b),
# one for each reader of integers in the library
BOOL_GATES = {
    "dim": (InputError, "polytope dimension", lambda b: HPolytope(b, [((1,), 0), ((-1,), -3)])),
    "normal": (InputError, "facet 0 normal entry",
               lambda b: HPolytope(1, [((b,), 0), ((-1,), -3)])),
    "offset": (InputError, "facet 1 offset", lambda b: HPolytope(1, [((1,), 0), ((-1,), b)])),
    "generic vector": (DimensionError, "generic vector entry",
                       lambda b: check_todd(get("triangle1"), u=(b, 2))),
    "partition": (DimensionError, "partition part",
                  lambda b: localization.check_partition((b,), 1)),
    "exponent": (DimensionError, "exponent", lambda b: localization.integrate_monomial(
        HPolytope(1, [((1,), 0), ((-1,), -3)]), (b, 0), (1,))),
    "gysin facet": (DimensionError, "facet index",
                    lambda b: localization.gysin_power(get("simplex3_2"), b, 3, (1, 2, 4))),
    "gysin power": (DimensionError, "power",
                    lambda b: localization.gysin_power(get("simplex3_2"), 0, b, (1, 2, 4))),
    "h-vector": (InputError, "h-vector entry", lambda b: HVector((1, b, 1))),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("gate", sorted(BOOL_GATES))
def test_every_integer_gate_refuses_a_bool_by_name(gate, flag):
    """operator.index reads True as 1 and False as 0; exact.integers, the
    one gate, refuses both and names them, wherever the library reads an
    integer, before the value is used: True is not facet 1 nor power 1."""
    error, what, build = BOOL_GATES[gate]
    with pytest.raises(error, match="^%s %r is not an integer$" % (what, flag)):
        build(flag)


def test_square_vertex_charts():
    p = get("square1")
    charts = enumerate_vertices(p)
    assert [c.vertex for c in charts] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    origin = charts[0]
    assert origin.facet_set == (0, 1)
    assert abs(origin.det) == 1
    assert [r[0] for r in lambda_matrix(p, origin)] == [1, 0]
    # rows of the inverse pair dual to the columns
    assert mat_mul(origin.mu_matrix, lambda_matrix(p, origin)) == identity(2)
    for c in charts:
        assert c.det in (1, -1)
        assert c.mu_matrix is not None


def test_unbounded_and_empty_inputs():
    with pytest.raises(UnboundedError):
        enumerate_vertices(HPolytope(2, [((1, 0), 0)]))
    with pytest.raises(UnboundedError):
        enumerate_vertices(HPolytope(2, [((1, 0), 0), ((0, 1), 0)]))
    with pytest.raises(UnboundedError):
        enumerate_vertices(HPolytope(1, [((1,), 0)]))
    with pytest.raises(InputError):
        enumerate_vertices(HPolytope(1, [((1,), 1), ((-1,), 0)]))


# one fault each: (facets, dim, error class, text of the message)
SINGLE_FAULTS = {
    "no-span": (2, [((1, 0), 0), ((-1, 0), -1)], UnboundedError, "do not span"),
    "unbounded-2d": (2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)], UnboundedError,
                     "recession cone contains direction"),
    "unbounded-3d": (3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 1),
                         ((-1, 1, 0), -2)], UnboundedError, "recession cone contains direction"),
    # the ray's raw row is (-2, 4, -4), so the named direction is divided by its gcd
    "unbounded-3d-common-factor": (3, [((1, 1, -2), -1), ((2, 2, 1), -2), ((-2, 0, 1), -1)],
                                   UnboundedError,
                                   "recession cone contains direction (-1, 2, -2)"),
    "empty": (2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)], InputError, "empty polytope"),
    "not-simple": (3, square_pyramid().facets, NotSimpleError, "not simple"),
    "redundant": (2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
                      ((1, 1), -5)], InputError, "redundant"),
}


@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_single_fault_inputs_name_their_error(fault, tmp_path, capsys):
    dim, facets, error, text = SINGLE_FAULTS[fault]
    p = HPolytope(dim, facets)
    with pytest.raises(error) as err:
        validate(p)
    assert text in str(err.value)
    if text.startswith("recession"):
        # the named direction is primitive and a ray of the region
        d = tuple(int(x) for x in str(err.value).split("(")[1].rstrip(")").split(","))
        assert gcd(*d) == 1
        assert all(dot(d, lam) >= 0 for lam, _ in facets)
    path = tmp_path / "fault.json"
    path.write_text(dump_polytope(p))
    # loading keeps the class and prefixes the file name
    with pytest.raises(ToricError) as loaded:
        load_polytope(str(path))
    assert type(loaded.value) is error
    assert str(loaded.value) == "%s: %s" % (path, err.value)
    assert cli_main(["compute", "count", str(path), "--format", "json"]) == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("error: ") and text in err_text


def test_redundant_facet_rejected():
    # x + y >= -5 never becomes tight on the unit square
    p = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
                      ((1, 1), -5)])
    with pytest.raises(InputError):
        validate(p)


def test_not_simple_vertex_reported():
    with pytest.raises(NotSimpleError) as err:
        enumerate_vertices(square_pyramid())
    assert err.value.vertex == (0, 0, 1)
    assert len(err.value.facets) == 4


def test_delzant_verdict():
    for name in CORPUS_NAMES:
        require_delzant(enumerate_vertices(get(name)))
    with pytest.raises(InputError) as err:
        require_delzant(enumerate_vertices(load_polytope(P112)))
    assert str(err.value) == "polytope is not Delzant: vertex (0, 1) has det -2"


def test_face_lattice_counts():
    assert face_lattice(get("square1")).f_vector == (4, 4, 1)
    assert face_lattice(get("triangle2")).f_vector == (3, 3, 1)
    assert face_lattice(get("cube1")).f_vector == (8, 12, 6, 1)
    assert face_lattice(get("simplex3_1")).f_vector == (4, 6, 4, 1)
    assert face_lattice(get("prism")).f_vector == (6, 9, 5, 1)
    assert face_lattice(get("interval5")).f_vector == (2, 1)


def test_face_lattice_order():
    fl = face_lattice(get("cube1"))
    top, children = face_ids(fl)[()], inclusion_children(fl)
    assert len(children[top]) == 6
    for fid in faces_of_dim(fl, 2):
        assert len(children[fid]) == 4
    for fid in faces_of_dim(fl, 1):
        assert len(children[fid]) == 2
    assert sum(f == top for _, f in fl.leq) == 27
    assert fl.leq == {(g, f) for f in range(len(fl.faces)) for g in range(len(fl.faces))
                      if set(fl.faces[g].vertices) <= set(fl.faces[f].vertices)}


def test_h_vectors():
    assert h_vector(face_lattice(get("square1"))).h == (1, 2, 1)
    assert h_vector(face_lattice(get("triangle1"))).h == (1, 1, 1)
    assert h_vector(face_lattice(get("hirzebruch"))).h == (1, 2, 1)
    assert h_vector(face_lattice(get("cube1"))).h == (1, 3, 3, 1)
    assert h_vector(face_lattice(get("prism"))).h == (1, 2, 2, 1)
    assert h_vector(face_lattice(get("simplex3_2"))).h == (1, 1, 1, 1)


def test_h_vector_validation_and_signature():
    with pytest.raises(InputError):
        HVector((1, 2, 3))
    with pytest.raises(InputError):
        HVector((2, 1, 2))
    with pytest.raises(InputError, match="nonnegative"):
        HVector((1, -1, 1))
    with pytest.raises(InputError, match="not palindromic"):
        HVector((1, 2, 3, 1))
    hv = HVector((1, 3, 3, 1))
    assert sum(h * (-1) ** (3 - k) for k, h in enumerate(hv.h)) == 0  # h_P(-1)
    assert signature_from_h(hv) == 0
    assert signature_from_h(HVector((1, 1, 1))) == 1


def test_volume_known_values():
    assert volume(get("interval5")) == 5
    assert volume(get("square2")) == 4
    assert volume(get("rect2x3")) == 6
    assert volume(get("triangle1")) == F(1, 2)
    assert volume(get("triangle3")) == F(9, 2)
    assert volume(get("hirzebruch")) == F(3, 2)
    assert volume(get("cube1")) == 1
    assert volume(get("simplex3_1")) == F(1, 6)
    assert volume(get("simplex3_2")) == F(4, 3)
    assert volume(get("prism")) == F(1, 2)


def test_volume_matches_the_fraction_per_entry_oracle(monkeypatch):
    """The integer pyramid sum over one common scale against the
    triangulation with a Fraction per entry, on lattice polytopes and on
    ones with rational vertices; neither localization nor a determinant is
    called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("volume called localization")

    for name in ("localize", "chart_weights", "choose_generic"):
        monkeypatch.setattr(localization, name, forbidden)
        assert name not in vars(polytope)
    assert "det" not in vars(polytope)
    rng = random.Random(29)
    cases = [p for _, p in delzant_family(5)] + [load_polytope(P112)]
    cases += [weighted_simplex(w, k) for w, k in (((2, 3), 5), ((2, 3, 5), 7),
                                                   ((1, 2, 4, 3), 6), ((3, 1, 4, 2, 5), 9))]
    cases += [times(weighted_simplex((2, 3), 5), get("triangle2"))]
    cases += [unimodular_transform(weighted_simplex((3, 2, 5), 7),
                                   random_shear(3, rng), (1, -2, 0))]
    for p in cases:
        assert volume.__wrapped__(p) == fraction_volume(p), p


def face_order_estimate(p):
    """The pairs face_lattice expects: V (3^(n+1) - 2^(n+1)) / (n + 1)."""
    n = p.dim
    return len(enumerate_vertices(p)) * (3 ** (n + 1) - 2 ** (n + 1)) // (n + 1)


def laid_out_f_vector(p):
    """The faces of a fresh lattice laid out and counted by dimension."""
    counts = [0] * (p.dim + 1)
    for f in enumerate_vertices.__wrapped__(p).faces:
        counts[f.dim] += 1
    return tuple(counts)


F_VECTOR_INPUTS = delzant_family(6) + weighted_family(random.Random(37))


@pytest.mark.parametrize("name,p", F_VECTOR_INPUTS, ids=[name for name, _ in F_VECTOR_INPUTS])
def test_counted_f_vector_matches_the_laid_out_faces(name, p, monkeypatch):
    """f_vector counts the distinct facet subsets through the vertices
    without laying out faces or localizing; the laid-out lattice agrees
    dimension by dimension."""
    fl = enumerate_vertices.__wrapped__(p)
    with monkeypatch.context() as m:
        for fn in ("localize", "chart_weights", "choose_generic"):
            m.setattr(localization, fn, None)
        m.setattr(polytope.ChartTable, "weigh", None)
        counted = fl.f_vector
    assert "faces" not in vars(fl)
    assert counted == laid_out_f_vector(p)


def test_face_budget_boundary(monkeypatch):
    """For a simplex the estimate is the exact size of the order."""
    p = simplex(5, 3)
    pairs = len(face_lattice(p).leq)
    assert pairs == 3 ** 6 - 2 ** 6 == face_order_estimate(p)
    monkeypatch.setattr(polytope, "FACE_BUDGET", pairs - 1)
    with pytest.raises(BudgetError, match="about %d pairs \\(6 vertices in dimension 5\\), "
                                          "over the limit of %d" % (pairs, pairs - 1)):
        enumerate_vertices.__wrapped__(p).faces
    # closing the counts over the subsets of their facet masks takes up to a
    # step per pair, and is charged the same
    with pytest.raises(BudgetError, match="about %d pairs" % pairs):
        count_points.__wrapped__(p).closed_by_mask
    monkeypatch.setattr(polytope, "FACE_BUDGET", pairs)
    assert len(enumerate_vertices.__wrapped__(p).leq) == pairs


def test_face_budget_bounds_the_order_and_admits_the_8_cube():
    for _, p in delzant_family(8):
        assert len(face_lattice(p).leq) <= face_order_estimate(p) <= polytope.FACE_BUDGET // 10
    assert face_order_estimate(cube(8)) == 545308
    assert len(face_lattice(cube(8)).leq) == 5 ** 8


def test_sixteen_simplex_exits_two_at_once(tmp_path, capsys):
    """Its order would hold 3^17 - 2^17 pairs, some 130 million."""
    path = tmp_path / "simplex16.json"
    path.write_text(dump_polytope(simplex(16)))
    start = time.perf_counter()
    assert cli_main(["verify", "pick", str(path), "--format", "json"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "about %d pairs" % (3 ** 17 - 2 ** 17) in err
    assert "over the limit of %d" % polytope.FACE_BUDGET in err


def test_nine_cube_volume_answers_at_once(tmp_path, capsys):
    """Its 9! simplices once took 28 s of determinants, and then a budget
    refused them; the pyramid sum visits the 2^9 faces through one vertex."""
    path = tmp_path / "cube9.json"
    path.write_text(dump_polytope(cube(9)))
    start = time.perf_counter()
    assert cli_main(["compute", "volume", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["value"] == "1"


def test_induce_face_polytope_on_cube_facet():
    p = get("cube1")
    fl = face_lattice(p)
    for fid in faces_of_dim(fl, 2):
        q = induce_face_polytope(p, fl.faces[fid])
        assert q.dim == 2
        assert len(q.facets) == 4
        assert volume(q) == 1
        assert count_points(q).total == 4
    for fid in faces_of_dim(fl, 1):
        q = induce_face_polytope(p, fl.faces[fid])
        assert q.dim == 1
        assert count_points(q).total == 2


def test_induce_face_polytope_on_simplex_facet():
    p = get("simplex3_2")
    fl = face_lattice(p)
    totals = sorted(count_points(induce_face_polytope(p, fl.faces[fid])).total
                    for fid in faces_of_dim(fl, 2))
    assert totals == [6, 6, 6, 6]


def test_induce_face_polytope_rejects_trivial_dims():
    p = get("cube1")
    fl = face_lattice(p)
    with pytest.raises(DimensionError):
        induce_face_polytope(p, fl.faces[faces_of_dim(fl, 0)[0]])
    with pytest.raises(DimensionError):
        induce_face_polytope(p, fl.faces[face_ids(fl)[()]])


def test_induce_face_polytope_needs_a_delzant_base_vertex():
    """p112's edge on facet 2 runs from (2, 0) to (0, 1), whose chart has
    det -2 and comes first; the other two edges start at Delzant (0, 0)."""
    p = load_polytope(P112)
    fl = face_lattice(p)
    ids = face_ids(fl)
    edge = fl.faces[ids[(2,)]]
    with pytest.raises(InputError, match=r"vertex \(0, 1\) has det -2"):
        induce_face_polytope(p, edge)
    for facets in ((0,), (1,)):
        assert count_points(induce_face_polytope(p, fl.faces[ids[facets]])).total \
            == count_points(p).closed[ids[facets]]


def test_induce_face_polytope_refuses_a_facet_off_the_face_lattice():
    """x, y >= 0, x + 2y <= 1: the edge x = 0 starts at the Delzant origin and
    ends at (0, 1/2), so in the edge's chart its end y <= 1/2 is no lattice
    point; the edge y = 0 ends at (1, 0) and is induced."""
    p = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -1)])
    fl = face_lattice(p)
    ids = face_ids(fl)
    with pytest.raises(InputError, match="induced facet from 2 is not integral"):
        induce_face_polytope(p, fl.faces[ids[(0,)]])
    assert induce_face_polytope(p, fl.faces[ids[(1,)]]).facets == (((1,), 0), ((-1,), -1))


def test_unimodular_transform_preserves_lattice_data():
    rng = random.Random(3)
    for name in ("square2", "hirzebruch", "simplex3_2", "prism"):
        p = get(name)
        n = p.dim
        for _ in range(3):
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.sample(range(n), 2)
                c = rng.choice([-2, -1, 1, 2])
                rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
            assert det(rows) in (1, -1)
            shift = tuple(rng.randint(-4, 4) for _ in range(n))
            q = unimodular_transform(p, rows, shift)
            require_delzant(enumerate_vertices(q))
            assert volume(q) == volume(p)
            assert count_points(q).total == count_points(p).total
            assert h_vector(face_lattice(q)).h == h_vector(face_lattice(p)).h


def test_polytope_equality_and_hash():
    p = get("square1")
    q = HPolytope(p.dim, p.facets, name="renamed")
    assert p == q
    assert hash(p) == hash(q)
    assert p != get("square2")



def test_reprs_name_what_tells_each_object_apart():
    p = get("square1")
    assert repr(p) == "HPolytope(dim=2, facets=4, name='square1')"
    assert repr(enumerate_vertices(p)[0]) == "VertexChart(vertex=(0, 0), facets=(0, 1), det=1)"
    faces = face_lattice(p).faces
    assert (repr(faces[0]), repr(faces[-1])) == ("Face(dim=0, facets=(0, 1))",
                                                 "Face(dim=2, facets=())")
    assert repr(h_vector(face_lattice(p))) == "HVector((1, 2, 1))"


if __name__ == "__main__":
    start = time.perf_counter()
    inputs = delzant_family(7) + weighted_family(random.Random(31))
    for name, p in inputs:
        assert volume(p) == fraction_volume(p), name
        assert face_lattice(p).f_vector == laid_out_f_vector(p), name
    print("%d inputs, %d not Delzant: the pyramid volume equals the triangulation and the "
          "counted f-vector the laid-out faces, %.1f s"
          % (len(inputs), sum(any(abs(c.det) != 1 for c in enumerate_vertices(p))
                              for _, p in inputs), time.perf_counter() - start))
