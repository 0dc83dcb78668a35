"""The walk's certificate against the rank checks it replaced.

`validate` and `face_lattice` no longer take ranks: a polytope the vertex
walk accepts is simple and full-dimensional, and every face cut out by a
subset of a vertex's facets has the dimension the subset says.  The oracle
is the earlier input check, the walk followed by a rank over the rationals
of the vertices, of each facet's vertices and of each face's vertices.  On
random small systems both must accept the same inputs and reject the rest
with the same error class and message, and accepted inputs must give the
subset scan's charts.  The first vertex is found by phase-one pivots, so two
verdicts are also held to the scan: a system is an empty polytope exactly
when some n of its normals are independent and none of the points where n
facets meet is feasible, and normals that span a hyperplane are refused
with the primitive generator of their integer kernel.  The verdict class is
a property of the input: each system keeps it, and the agreement with the
rank checks, when its facets are listed in other orders.

The full sweep (seeds 1 and 2, each system in SHUFFLES more facet orders)
runs from the repository root with

    PYTHONPATH=src python tests/test_certificate.py
"""

import random
from itertools import product
from math import gcd

import pytest

from families import shuffled
from oracles import (cramer_points, integer_kernel_basis, lambda_matrix,
                     rank_checked_validate, subset_scan)
from toricpick.errors import ToricError
from toricpick.exact import dot
from toricpick.polytope import HPolytope, face_lattice, validate

# systems per seed: the tier-1 share and the full sweep
TIER1_SYSTEMS = 2000
FULL_SYSTEMS = 20000

# further facet orders each system is tried in
SHUFFLES = 3


# the primitive normals with entries in [-2, 2], by dimension
NORMALS = {n: [lam for lam in product(range(-2, 3), repeat=n) if gcd(*lam) == 1]
           for n in (1, 2, 3)}


def random_systems(seed, count):
    """Systems in dims 1-3 with 1 to n + 4 distinct primitive normals (at
    most 2 in dim 1) and offsets, every entry in [-2, 2]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        m = rng.randint(1, min(n + 4, len(NORMALS[n])))
        normals = rng.sample(NORMALS[n], m)
        out.append(HPolytope(n, [(lam, rng.randint(-2, 2)) for lam in normals]))
    return out


def outcome(check, p):
    try:
        charts = check(p)
    except ToricError as e:
        return type(e).__name__, str(e)
    return "accepted", [(c.vertex, c.facet_set, c.det, lambda_matrix(p, c), c.mu_matrix)
                        for c in charts]


def trusted(p):
    charts = validate(p)
    face_lattice(p)
    return charts


def scan_finds_empty(p):
    """Some n normals are independent, and no point where n facets meet
    satisfies every inequality."""
    points = cramer_points(p)
    return bool(points) and all(min(dot(x, lam) - a for lam, a in p.facets) < 0
                                for x in points)


def sweep(seed, count):
    """(systems, accepted, rejections by class, empty systems, corank-1
    systems); asserts agreement on each."""
    systems = random_systems(seed, count)
    accepted, rejected, empty, corank1 = 0, {}, 0, 0
    for p in systems:
        expected = outcome(rank_checked_validate, p)
        assert outcome(trusted, p) == expected, p.facets
        if expected[0] == "accepted":
            accepted += 1
            assert expected[1] == subset_scan(p), p.facets
        else:
            rejected[expected[0]] = rejected.get(expected[0], 0) + 1
        is_empty = expected[0] == "InputError" and "empty polytope" in expected[1]
        assert is_empty == scan_finds_empty(p), p.facets
        empty += is_empty
        kernel = integer_kernel_basis(p.normals, p.dim)
        assert bool(kernel) == ("normals do not span" in str(expected[1])), p.facets
        if len(kernel) == 1:
            assert "direction %s is unbounded" % (kernel[0],) in expected[1], p.facets
            corank1 += 1
    return len(systems), accepted, rejected, empty, corank1


def reorder_sweep(seed, count):
    """Facet orders tried; asserts that each gives its system's verdict
    class and agrees with the rank checks."""
    rng = random.Random(seed)
    orders = 0
    for p in random_systems(seed, count):
        verdict = outcome(trusted, p)[0]
        for _ in range(SHUFFLES):
            q = shuffled(p, rng)
            got = outcome(trusted, q)
            assert got == outcome(rank_checked_validate, q), q.facets
            assert got[0] == verdict, (p.facets, q.facets)
            orders += 1
    return orders


@pytest.mark.parametrize("seed", [1, 2])
def test_certificate_matches_rank_checks(seed):
    systems, accepted, rejected, empty, corank1 = sweep(seed, TIER1_SYSTEMS)
    # the draws reach acceptance and every kind of rejection the walk names
    assert accepted >= 10
    assert set(rejected) == {"InputError", "UnboundedError", "NotSimpleError"}
    assert empty >= 100 and corank1 >= 100


@pytest.mark.parametrize("seed", [1, 2])
def test_verdict_class_does_not_follow_facet_order(seed):
    # a ray and a vertex that is not simple: NotSimpleError whatever the order
    assert reorder_sweep(seed, TIER1_SYSTEMS) == SHUFFLES * TIER1_SYSTEMS


if __name__ == "__main__":
    for seed in (1, 2):
        systems, accepted, rejected, empty, corank1 = sweep(seed, FULL_SYSTEMS)
        print("seed %d: %d systems, %d accepted, rejected %s, %d empty, %d of corank 1"
              % (seed, systems, accepted, dict(sorted(rejected.items())), empty, corank1))
        print("seed %d: %d shuffled facet orders keep their system's verdict class"
              % (seed, reorder_sweep(seed, FULL_SYSTEMS)))
