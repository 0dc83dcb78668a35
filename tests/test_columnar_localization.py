"""localize at both generic vectors in one columnar pass, against the
per-vertex sum it replaced.

The program restricts every (vector, vertex) pair in one call, one integer
column per degree, and sums each vector's pairs on their own, over the lcm of
their Euler products, divided once.  The route it replaced restricted one vertex at a time: the per-vertex
restrictions are kept as tests/oracles.genus_restriction and
oracles.chern_restriction, and their per-vertex sum is oracles.localize_face
on P's top face.  Both must give equal values and equal per-vertex
(vertex, Fraction) terms at both generic vectors, for every
genus kind (and None), twisted and untwisted, and for every Chern partition
on both routes; both must refuse a restriction whose low degrees do not
cancel with the same ToricError.  Tier-1 runs a slice of delzant_family(8);
the full sweep runs from the repository root with

    PYTHONPATH=src python tests/test_columnar_localization.py
"""

import time
from math import prod

import pytest

from families import delzant_family
from oracles import (chern_restriction, face_ids, genus_restriction, localize_face,
                     weight_table, weight_tables)
from toricpick.errors import ToricError
from toricpick.invariants import _genus_restriction
from toricpick.localization import (_chern_fixed_point, _chern_restriction, choose_generic,
                                    localize, partitions_of)
from toricpick.polytope import enumerate_vertices, face_lattice
from toricpick.series import GENUS_KINDS

FAMILY = delzant_family(8)
SLICE = FAMILY[1::3]


def two_vectors(p):
    charts = enumerate_vertices(p)
    u1 = choose_generic(charts)
    return u1, choose_generic(charts, exclude=(u1,))


def assert_same_sums(p, restrict, scale, rows, vectors, top):
    """localize at both vectors, in both orders, against the per-vertex sum
    of rows(chart, w) at each vector; returns the values."""
    expected = [localize_face(p, u, rows, scale, top) for u in vectors]
    for order in (vectors, vectors[::-1]):
        values, terms = localize(*weight_tables(p, order), restrict, scale, terms=True)
        at = expected if order == vectors else expected[::-1]
        assert values == tuple(value for value, _ in at), (p.name, order)
        assert terms == at[0][1], (p.name, order)
    return [value for value, _ in expected]


def columnar_matches_per_vertex(p):
    """Every genus kind, twisted and not, every Chern partition on both
    routes, and a non-cancelling restriction; returns the number of values
    compared."""
    vectors, n = two_vectors(p), p.dim
    fl = face_lattice(p)
    top = fl.faces[face_ids(fl)[()]]
    compared = 0
    for kind in GENUS_KINDS + (None,):
        for twist in (True, False):
            restrict, scale = _genus_restriction(p, kind, twist)
            rows, rows_scale = genus_restriction(p, kind, twist)
            assert scale == rows_scale
            assert_same_sums(p, restrict, scale, rows, vectors, top)
            compared += 2
    for omega in partitions_of(n):
        values = assert_same_sums(p, lambda _c, weights: _chern_restriction(omega, weights), 1,
                                  lambda _c, w: chern_restriction(omega, w), vectors, top)
        assert [_chern_fixed_point(omega, *weight_table(p, u)) for u in vectors] == values, omega
        compared += 4

    with pytest.raises(ToricError) as got:
        localize(*weight_tables(p, vectors),
                 lambda _c, weights: [list(map(prod, weights))] + [[0] * len(weights)] * n)
    with pytest.raises(ToricError) as expected:
        localize_face(p, vectors[0], lambda _c, w: [prod(w)] + [0] * n, 1, top)
    assert str(got.value) == str(expected.value) == (
        "localization of the degree-0 part is %d, expected 0 (chart bug)"
        % len(enumerate_vertices(p)))
    return compared


@pytest.mark.parametrize("name,p", SLICE, ids=[name for name, _ in SLICE])
def test_one_columnar_pass_matches_the_per_vertex_sums(name, p):
    assert columnar_matches_per_vertex(p) > 0


def test_slice_reaches_every_dimension_of_the_family():
    assert {p.dim for _, p in SLICE} == {p.dim for _, p in FAMILY}


if __name__ == "__main__":
    start = time.perf_counter()
    compared = sum(columnar_matches_per_vertex(p) for _, p in FAMILY)
    print("%d polytopes, %d values and their per-vertex terms agree with the per-vertex "
          "sums, %.1f s" % (len(FAMILY), compared, time.perf_counter() - start))
