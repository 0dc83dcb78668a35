"""Acceptance gate: one test per shipped guarantee, all equalities exact.

Each test prints as a single pass/fail line under pytest -v.  Everything is
checked with exact rational arithmetic; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

from families import CORPUS_NAMES, get, unimodular_transform
from toricpick.agw import verify_agw
from toricpick.invariants import (
    check_face_todd,
    check_pick,
    check_tetrahedron,
    check_untwisted_signature,
    twisted_todd_breakdown,
    volume_breakdown,
)
from toricpick.lattice import count_points, weighted_sum_closed, weighted_sum_relint
from toricpick.localization import (
    chern_number,
    choose_generic,
    gysin_power,
    gysin_power_v3,
    integrate_monomial,
    partitions_of,
)
from toricpick.polytope import (
    enumerate_vertices,
    face_lattice,
    h_vector,
    signature_from_h,
)

ALL_NAMES = (
    "interval1", "interval2", "interval5",
    "square1", "square2", "rect2x3",
    "triangle1", "triangle2", "triangle3",
    "hirzebruch", "cube1",
    "simplex3_1", "simplex3_2", "prism",
)

PINNED_PICK = {
    "square1": Fraction(1),
    "triangle1": Fraction(3, 4),
    "simplex3_1": Fraction(1, 2),
    "simplex3_2": Fraction(2),
}


def entries():
    return [(name, get(name)) for name in ALL_NAMES]


def random_unimodular(n, rng, shears=8):
    """Random determinant +-1 integer matrix built from row shears and swaps."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return [[rng.choice([-1, 1])]]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
    return rows


def test_criterion_01_pick_identity_exact_on_full_corpus():
    assert sorted(CORPUS_NAMES) == sorted(ALL_NAMES)
    for name, p in entries():
        rep = check_pick(p)
        assert rep.holds and rep.lhs == rep.rhs, name
        if name in PINNED_PICK:
            assert rep.lhs == PINNED_PICK[name], name


def test_criterion_02_twisted_todd_counts_polytopes_and_all_faces():
    for name, p in entries():
        assert twisted_todd_breakdown(p)[0] == count_points(p).total, name
        rep = check_face_todd(p)
        assert rep.holds, name
        for key, pair in rep.breakdown["faces"].items():
            assert pair["twisted_todd"] == pair["lattice_count"], (name, key)


def test_criterion_03_classical_pick_and_constant_term_in_2d():
    seen = 0
    for name, p in entries():
        if p.dim != 2:
            continue
        seen += 1
        area = volume_breakdown(p)[0]
        fc = count_points(p)
        interior = fc.relint_by_dim(2)
        boundary = fc.total - interior
        assert area == interior + Fraction(boundary, 2) - 1, name
        m = len(p.facets)
        assert check_untwisted_signature(p).lhs == Fraction(4 - m, 4), name
    assert seen == 7


def test_criterion_04_tetrahedron_identity_and_lattice_invariance():
    expected = {"simplex3_1": Fraction(1, 2), "simplex3_2": Fraction(2)}
    rng = random.Random(41)
    for name, value in expected.items():
        p = get(name)
        rep = check_tetrahedron(p)
        assert rep.holds and rep.lhs == value and rep.rhs == value, name
        for _ in range(5):
            mat = random_unimodular(3, rng)
            shift = tuple(rng.randint(-4, 4) for _ in range(3))
            q = unimodular_transform(p, mat, shift)
            rep = check_tetrahedron(q)
            assert rep.holds and rep.lhs == rep.rhs, name


def test_criterion_05_cubed_facet_classes_and_triple_product_route():
    p = get("simplex3_1")
    u = choose_generic(enumerate_vertices(p))
    for j in range(len(p.facets)):
        assert gysin_power(p, j, 3, u) == 1, j
    for name, p in entries():
        if p.dim != 3:
            continue
        u = choose_generic(enumerate_vertices(p))
        for j in range(len(p.facets)):
            assert gysin_power_v3(p, j, u) == gysin_power(p, j, 3, u), (name, j)


def test_criterion_06_chern_numbers_two_routes_and_spot_values():
    for name, p in entries():
        n = p.dim
        for omega in partitions_of(n):
            value = chern_number(p, omega)
            assert value.denominator == 1, (name, omega)
        assert chern_number(p, (n,)) == len(enumerate_vertices(p)), name
    cp2 = get("triangle1")
    assert chern_number(cp2, (2,)) == 3
    assert chern_number(cp2, (1, 1)) == 9
    sq = get("square1")
    assert chern_number(sq, (2,)) == 4
    assert chern_number(sq, (1, 1)) == 8


def test_criterion_07_localization_properties_on_random_monomials():
    rng = random.Random(73)
    pool = entries()
    low = top = 0
    for _ in range(100):
        name, p = pool[rng.randrange(len(pool))]
        n = p.dim
        m = len(p.facets)
        degree = rng.randint(max(0, n - 2), n)
        exps = [0] * m
        for _ in range(degree):
            exps[rng.randrange(m)] += 1
        exps = tuple(exps)
        charts = enumerate_vertices(p)
        u1 = choose_generic(charts)
        u2 = choose_generic(charts, exclude=(tuple(u1),))
        a = integrate_monomial(p, exps, u1)
        assert a == integrate_monomial(p, exps, u2), (name, exps)
        if degree < n:
            assert a == 0, (name, exps)
            low += 1
        else:
            top += 1
    assert low > 0 and top > 0
    # classes of facets that share no vertex multiply to zero
    for name, p in entries():
        charts = enumerate_vertices(p)
        u = choose_generic(charts)
        m = len(p.facets)
        for i in range(m):
            for j in range(i + 1, m):
                if any({i, j} <= set(c.facet_set) for c in charts):
                    continue
                for split in range(1, p.dim):
                    exps = tuple(split if k == i else p.dim - split if k == j else 0
                                 for k in range(m))
                    assert integrate_monomial(p, exps, u) == 0, (name, i, j)


def test_criterion_08_closed_and_relint_weighted_sums_agree():
    for name, p in entries():
        fc = count_points(p)
        assert weighted_sum_closed(fc) == weighted_sum_relint(fc), name


def test_criterion_09_twelve_dimensional_identity_and_negative_control():
    rep = verify_agw()
    assert rep.holds
    coeffs = rep.breakdown["coefficients"]
    assert set(coeffs) == {"p3", "p1*p2", "p1^3"}
    for label, pair in coeffs.items():
        assert pair["lhs"] == pair["rhs"], label
    bad = verify_agw(ahat_coefficient=31)
    assert not bad.holds


def test_criterion_10_signature_matches_h_vector_on_corpus():
    for name, p in entries():
        n = p.dim
        sigma = signature_from_h(h_vector(face_lattice(p)))
        assert check_untwisted_signature(p).lhs * 2 ** n == sigma, name
        if n == 2:
            assert sigma == 4 - len(p.facets), name
