"""The genus restriction as one exponential against the product of factors.

The program restricts exp(w_P) prod_i g(v_i) to a vertex as exp(A), A the
twist plus the power sums of the weights times the coefficients of log g,
with one exact division per degree.  The route it replaced multiplies n
truncated series, one per incident facet (oracles.factor_product_restriction).
Both must give the same scale and the same integer coefficient in every
degree 0..n, at every chart and both generic vectors, for every genus kind
with and without the twist.  The Todd class of every face, which
check_face_todd sweeps (see tests/test_face_localization.py), is held to the
product of factors through oracles.face_todd_restriction.  The degrees below
n only have to sum to 0 in localize, so an integral check would not see
them.

The full sweep (delzant_family(8): every kind on the whole polytope and Todd
on every face) runs from the repository root with

    PYTHONPATH=src python tests/test_genus_exponential.py
"""

import time

import pytest

from families import cube, delzant_family, get
from oracles import (face_todd_restriction, factor_product_restriction, weight_table,
                     weight_tables)
from toricpick import invariants
from toricpick.errors import ToricError
from toricpick.invariants import _genus_restriction, check_face_todd
from toricpick.localization import choose_generic, localize
from toricpick.polytope import enumerate_vertices, face_lattice
from toricpick.series import GENUS_KINDS

FAMILY = delzant_family(6)


def two_vectors(p):
    charts = enumerate_vertices(p)
    u1 = choose_generic(charts)
    return u1, choose_generic(charts, exclude=(u1,))


def assert_same_restriction(p, data, kind, twist=True, face=None):
    """Every coefficient at every chart of data; returns how many were compared.
    On P the program restricts every (chart, w) of data in one call, one
    column per degree; a face's restriction takes one vertex at a time."""
    expected, expected_scale = factor_product_restriction(p, kind, twist, face)
    n = p.dim if face is None else face.dim
    if face is None:
        restrict, scale = _genus_restriction(p, kind, twist)
        columns = restrict(*zip(*data))
        assert len(columns) == n + 1 and {len(column) for column in columns} == {len(data)}
        rows = [list(row) for row in zip(*columns)]
    else:
        restrict, scale = face_todd_restriction(p, face)
        rows = [restrict(c, w) for c, w in data]
    assert scale == expected_scale, (kind, twist, face)
    for (c, w), got in zip(data, rows):
        assert len(got) == n + 1 and got == expected(c, w), (kind, twist, face, c.vertex, w)
    return len(data) * (n + 1)


def restrictions_agree(p):
    """Every kind, twisted and not, on P at both generic vectors in one batch,
    and Todd on every face of P at each vector; returns the number of
    coefficients compared."""
    compared = 0
    faces = face_lattice(p).faces
    vectors = two_vectors(p)
    both = [pair for u in vectors for pair in zip(*weight_table(p, u))]
    for kind in GENUS_KINDS + (None,):
        for twist in (True, False):
            compared += assert_same_restriction(p, both, kind, twist)
    for u in vectors:
        data = list(zip(*weight_table(p, u)))
        for f in faces:
            compared += assert_same_restriction(p, [data[v] for v in f.vertices], "Todd",
                                                face=f)
    return compared


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_exponential_matches_the_factor_product(name, p):
    assert restrictions_agree(p) > 0


def test_family_reaches_dimension_six():
    assert {p.dim for _, p in FAMILY} == {1, 2, 3, 4, 5, 6}


def test_inexact_division_names_its_degree(monkeypatch):
    """A log row that the weights cannot divide reaches the guard in degree 2:
    degree 1 has no term, and 2 A_2 = p_2 / den with den a large prime."""
    p = get("square1")
    monkeypatch.setattr(invariants, "_log_rows",
                        lambda kind, n: (1, 2 ** 61 - 1, ((2, 1),)))
    with pytest.raises(ToricError, match="degree-2 coefficient of the genus restriction"
                                         " is .*, not an integer"):
        localize(*weight_tables(p, two_vectors(p)), *_genus_restriction(p, "Todd", twist=False))


def test_face_todd_builds_log_rows_once_per_dimension():
    # one sweep reads the rows of each dimension 0..n once, for all its faces
    p = cube(3)
    invariants._log_rows.cache_clear()
    check_face_todd(p)
    info = invariants._log_rows.cache_info()
    assert (info.misses, info.hits) == (4, 0)


if __name__ == "__main__":
    start = time.perf_counter()
    total = 0
    family = delzant_family(8)
    for name, p in family:
        total += restrictions_agree(p)
    print("%d polytopes, %d coefficients agree, %.1f s"
          % (len(family), total, time.perf_counter() - start))
