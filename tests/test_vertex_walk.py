"""The vertex edge walk against the subset scan it replaced.

The oracle solves every n-subset of the m facets (Bareiss determinant,
Cramer's rule, a cofactor inverse per chart) and keeps the feasible
intersection points.  The program walks the vertex graph instead.  Both
must give the same charts: vertex, facet set, det, Lambda and mu, exactly.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from toricpick.corpus import get, names
from toricpick.exact import IntMatrix, det, dot
from toricpick.polytope import HPolytope, enumerate_vertices, unimodular_transform


def cramer(rows, b):
    n = len(rows)
    d = det(IntMatrix.from_rows(rows))
    return tuple(Fraction(det(IntMatrix.from_rows(
        [[b[i] if c == j else rows[i][c] for c in range(n)] for i in range(n)])), d)
        for j in range(n))


def cofactor_inverse(m, d):
    n = m.rows
    ent = []
    for i in range(n):
        for j in range(n):
            minor = [[m[r, c] for c in range(n) if c != i] for r in range(n) if r != j]
            ent.append(d * (-1) ** (i + j) * det(IntMatrix.from_rows(minor)))
    return IntMatrix(n, n, ent)


def subset_scan(p):
    """(vertex, facet_set, det, Lambda, mu) per vertex, sorted by vertex."""
    n = p.dim
    seen = {}
    for subset in combinations(range(len(p.facets)), n):
        rows = [p.normals[i] for i in subset]
        if det(IntMatrix.from_rows(rows)) == 0:
            continue
        x = cramer(rows, [p.offsets[i] for i in subset])
        x = tuple(int(c) if c.denominator == 1 else c for c in x)
        slacks = [dot(x, lam) - a for lam, a in p.facets]
        if min(slacks) < 0:
            continue
        tight = tuple(i for i, s in enumerate(slacks) if s == 0)
        assert len(tight) == n, "oracle input is not simple"
        seen[x] = tight
    out = []
    for x in sorted(seen):
        lam = IntMatrix.from_columns([p.normals[i] for i in seen[x]])
        d = det(lam)
        out.append((x, seen[x], d, lam, cofactor_inverse(lam, d) if d in (1, -1) else None))
    return out


def charts_of(p):
    return [(c.vertex, c.facet_set, c.det, c.lambda_matrix, c.mu_matrix)
            for c in enumerate_vertices(p)]


def cube(n):
    facets = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    facets += [(tuple(-int(j == i) for j in range(n)), -1) for i in range(n)]
    return HPolytope(n, facets, name="cube%d" % n)


def simplex(n, k=1):
    facets = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    return HPolytope(n, facets + [((-1,) * n, -k)], name="simplex%d" % n)


def times(p, q):
    facets = [(lam + (0,) * q.dim, a) for lam, a in p.facets]
    facets += [((0,) * p.dim + lam, a) for lam, a in q.facets]
    return HPolytope(p.dim + q.dim, facets)


def corner_cut_polygon(facet_count, rng):
    """A square of side 120 with corners cut until it has `facet_count`
    facets, listed in shuffled order.  A corner between cyclically adjacent
    facets (lam_j, a_j), (lam_k, a_k) is cut by (lam_j + lam_k, a_j + a_k + c),
    a blow-up, so the polygon stays Delzant while both edges at the corner
    are longer than c; the cut takes c from each of them and adds an edge of
    lattice length c.  The corner cut is one whose shorter edge is longest."""
    ring = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -120), ((0, -1), -120)]
    length = [120, 120, 120, 120]  # lattice length of the edge on each facet
    while len(ring) < facet_count:
        j = max(range(len(ring)),
                key=lambda j: (min(length[j], length[(j + 1) % len(ring)]), rng.random()))
        k = (j + 1) % len(ring)
        (lj, aj), (lk, ak) = ring[j], ring[k]
        c = min(length[j], length[k]) // 3
        length[j] -= c
        length[k] -= c
        ring.insert(j + 1, ((lj[0] + lk[0], lj[1] + lk[1]), aj + ak + c))
        length.insert(j + 1, c)
    rng.shuffle(ring)
    return HPolytope(2, ring, name="polygon%d" % facet_count)


def dilate(p, k):
    return HPolytope(p.dim, [(lam, k * a) for lam, a in p.facets])


def random_shear(n, rng):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return IntMatrix.from_rows(rows)


def family():
    rng = random.Random(41)
    out = [(name, get(name)) for name in names()]
    out += [("simplex2xsquare", times(simplex(2), get("square2"))),
            ("interval x hirzebruch", times(get("interval2"), get("hirzebruch"))),
            ("prism x triangle", times(get("prism"), get("triangle2"))),
            ("simplex3_2 x simplex2", times(get("simplex3_2"), simplex(2, 3))),
            ("cube3 x interval", times(cube(3), get("interval5"))),
            ("prism x prism", times(get("prism"), get("prism")))]
    out += [("polygon%d" % k, corner_cut_polygon(k, rng)) for k in (5, 8, 13, 20, 26, 30)]
    for name in ("hirzebruch", "prism", "simplex3_2", "triangle3"):
        p = get(name)
        for k in (2, 5):
            out.append(("%s dilated %d" % (name, k), dilate(p, k)))
        if p.dim > 1:
            shift = tuple(rng.randint(-9, 9) for _ in range(p.dim))
            out.append(("%s sheared" % name,
                        unimodular_transform(p, random_shear(p.dim, rng), shift)))
    # simple but not Delzant: rational vertices and charts without mu
    out.append(("rational triangle", HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -1)])))
    out.append(("rational simplex", HPolytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0),
                                                  ((0, 0, 1), 0), ((-1, -2, -3), -5)])))
    # 1-D segments, in both facet orders
    out += [("segment %d..%d" % (a, b), HPolytope(1, [((1,), a), ((-1,), -b)]))
            for a, b in ((0, 1), (-3, 4), (7, 19))]
    out.append(("segment reversed", HPolytope(1, [((-1,), -2), ((1,), -5)])))
    return out


FAMILY = family()


@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_walk_matches_subset_scan(name, p):
    assert charts_of(p) == subset_scan(p)


def test_family_reaches_the_cases_it_names():
    polygons = [p for name, p in FAMILY if name.startswith("polygon")]
    assert max(len(p.facets) for p in polygons) == 30
    rational = dict(FAMILY)["rational simplex"]
    charts = enumerate_vertices(rational)
    assert any(c.mu_matrix is None for c in charts)
    assert any(isinstance(x, Fraction) for c in charts for x in c.vertex)
    assert {p.dim for _, p in FAMILY} >= {1, 2, 3, 4, 5, 6}


def test_cube8_has_256_unimodular_charts():
    charts = enumerate_vertices(cube(8))
    assert [c.vertex for c in charts] == sorted(product((0, 1), repeat=8))
    for c in charts:
        assert c.det in (1, -1)
        assert c.mu_matrix.mul(c.lambda_matrix) == IntMatrix.identity(8)
        assert c.facet_set == tuple(sorted(i if x == 0 else i + 8
                                           for i, x in enumerate(c.vertex)))
