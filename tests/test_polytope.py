"""Polytope construction, vertex charts, faces, volume and face induction."""

import random
from fractions import Fraction

import pytest

from toricpick.cli import dump_polytope
from toricpick.cli import main as cli_main
from toricpick.corpus import get, names, non_delzant_triangle
from toricpick.errors import (DimensionError, InputError, NotSimpleError,
                              UnboundedError)
from toricpick.exact import IntMatrix, det, dot, vector_gcd
from toricpick.lattice import count_points
from toricpick.polytope import (HPolytope, HVector, enumerate_vertices,
                                face_lattice, h_vector, induce_face_polytope,
                                is_delzant, signature_from_h,
                                unimodular_transform, validate, volume)

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
    with pytest.raises(InputError):
        HPolytope(2, [((1, 0), 0), ((1, 0), 3)])
    with pytest.raises(InputError):
        HPolytope(2, [((1, 0, 0), 0)])


def test_square_vertex_charts():
    p = get("square1")
    charts = enumerate_vertices(p)
    assert [c.vertex for c in charts] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    origin = charts[0]
    assert origin.facet_set == (0, 1)
    assert abs(origin.det) == 1
    assert origin.lambda_matrix.column(0) == (1, 0)
    # rows of the inverse pair dual to the columns
    prod = origin.mu_matrix.mul(origin.lambda_matrix)
    assert prod == IntMatrix.identity(2)
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
        assert vector_gcd(d) == 1
        assert all(dot(d, lam) >= 0 for lam, _ in facets)
    path = tmp_path / "fault.json"
    path.write_text(dump_polytope(p))
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
    for name in names():
        assert is_delzant(get(name))
    verdict = is_delzant(non_delzant_triangle())
    assert not verdict
    assert verdict.vertex == (0, 1)
    assert verdict.det == -2


def test_face_lattice_counts():
    assert face_lattice(get("square1")).f_vector == (4, 4, 1)
    assert face_lattice(get("triangle2")).f_vector == (3, 3, 1)
    assert face_lattice(get("cube1")).f_vector == (8, 12, 6, 1)
    assert face_lattice(get("simplex3_1")).f_vector == (4, 6, 4, 1)
    assert face_lattice(get("prism")).f_vector == (6, 9, 5, 1)
    assert face_lattice(get("interval5")).f_vector == (2, 1)


def test_face_lattice_order():
    fl = face_lattice(get("cube1"))
    top = fl.top
    assert len(fl.children(top)) == 6
    for fid in fl.faces_of_dim(2):
        assert len(fl.children(fid)) == 4
    for fid in fl.faces_of_dim(1):
        assert len(fl.children(fid)) == 2
    assert len(fl.subfaces(top)) == 27
    assert fl.leq == {(g, f) for f in range(len(fl.faces)) for g in range(len(fl.faces))
                      if set(fl.faces[g].vertices) <= set(fl.faces[f].vertices)}
    assert all(fl.subfaces(f) == tuple(sorted(g for g, h in fl.leq if h == f))
               for f in range(len(fl.faces)))


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
    hv = HVector((1, 3, 3, 1))
    assert hv.polynomial(-1) == 0
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


def test_induce_face_polytope_on_cube_facet():
    p = get("cube1")
    fl = face_lattice(p)
    for fid in fl.faces_of_dim(2):
        q = induce_face_polytope(p, fl.faces[fid])
        assert q.dim == 2
        assert len(q.facets) == 4
        assert volume(q) == 1
        assert count_points(q).total == 4
    for fid in fl.faces_of_dim(1):
        q = induce_face_polytope(p, fl.faces[fid])
        assert q.dim == 1
        assert count_points(q).total == 2


def test_induce_face_polytope_on_simplex_facet():
    p = get("simplex3_2")
    fl = face_lattice(p)
    totals = sorted(count_points(induce_face_polytope(p, fl.faces[fid])).total
                    for fid in fl.faces_of_dim(2))
    assert totals == [6, 6, 6, 6]


def test_induce_face_polytope_rejects_trivial_dims():
    p = get("cube1")
    fl = face_lattice(p)
    with pytest.raises(DimensionError):
        induce_face_polytope(p, fl.faces[fl.faces_of_dim(0)[0]])
    with pytest.raises(DimensionError):
        induce_face_polytope(p, fl.faces[fl.top])


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
            u = IntMatrix.from_rows(rows)
            assert det(u) in (1, -1)
            shift = tuple(rng.randint(-4, 4) for _ in range(n))
            q = unimodular_transform(p, u, shift)
            assert is_delzant(q)
            assert volume(q) == volume(p)
            assert count_points(q).total == count_points(p).total
            assert h_vector(face_lattice(q)).h == h_vector(face_lattice(p)).h


def test_polytope_equality_and_hash():
    p = get("square1")
    q = HPolytope(p.dim, p.facets, name="renamed")
    assert p == q
    assert hash(p) == hash(q)
    assert p != get("square2")
