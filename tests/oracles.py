"""Test-only reference routes that the program replaced.

Each is kept so that a differential test can hold the faster route in
`src/` to the exact results of the slower, more literal one.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from toricpick.errors import InputError, NotSimpleError
from toricpick.exact import IntMatrix, det, dot
from toricpick.polytope import enumerate_vertices


def frac_rank(rows):
    """Rank over the rationals of a list of vectors.

    Each row is scaled to integers and eliminated fraction-free, dividing
    every new row by the gcd of its entries.
    """
    m = []
    for r in rows:
        q = lcm(*(x.denominator for x in r))
        m.append([int(x * q) for x in r])
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        pv = top[c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                row = [a * pv - f * b for a, b in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(m):
            break
    return rank


def _differences(points):
    return [tuple(a - b for a, b in zip(q, points[0])) for q in points[1:]]


def rank_checked_validate(p):
    """The input check before the walk's certificate was trusted: the walk,
    then the rank of the vertices, of every facet's vertices and of every
    face's vertices, with the messages the program gave for each failure.
    Returns the vertex charts."""
    charts = enumerate_vertices(p)
    n = p.dim
    if frac_rank(_differences([c.vertex for c in charts])) < n:
        raise InputError("polytope is not full-dimensional")
    for i in range(len(p.facets)):
        pts = [c.vertex for c in charts if i in c.facet_set]
        if not pts:
            raise InputError("facet %d is redundant (supports no face)" % i)
        if frac_rank(_differences(pts)) != n - 1:
            raise InputError("facet %d is redundant (supports a face of dimension < %d)"
                             % (i, n - 1))
    vertex_facets = [frozenset(c.facet_set) for c in charts]
    found = {}
    for vid, c in enumerate(charts):
        for r in range(n + 1):
            for sub in combinations(c.facet_set, r):
                found.setdefault(sub, []).append(vid)
    for sub, verts in found.items():
        canon = frozenset.intersection(*(vertex_facets[w] for w in verts))
        pts = [charts[w].vertex for w in verts]
        if len(canon) != len(sub) or frac_rank(_differences(pts)) != n - len(sub):
            raise NotSimpleError(pts[0], sorted(canon),
                                 "facet subset %s cuts a face of wrong dimension"
                                 % (list(sub),))
    return charts


def _cramer(rows, b):
    n = len(rows)
    d = det(IntMatrix.from_rows(rows))
    return tuple(Fraction(det(IntMatrix.from_rows(
        [[b[i] if c == j else rows[i][c] for c in range(n)] for i in range(n)])), d)
        for j in range(n))


def _cofactor_inverse(m, d):
    n = m.rows
    ent = []
    for i in range(n):
        for j in range(n):
            minor = [[m[r, c] for c in range(n) if c != i] for r in range(n) if r != j]
            ent.append(d * (-1) ** (i + j) * det(IntMatrix.from_rows(minor)))
    return IntMatrix(n, n, ent)


def subset_scan(p):
    """(vertex, facet_set, det, Lambda, mu) per vertex, sorted by vertex.

    Solves every n-subset of the m facets (Bareiss determinant, Cramer's
    rule, a cofactor inverse per chart) and keeps the feasible points; the
    input must be simple.
    """
    n = p.dim
    seen = {}
    for subset in combinations(range(len(p.facets)), n):
        rows = [p.normals[i] for i in subset]
        if det(IntMatrix.from_rows(rows)) == 0:
            continue
        x = _cramer(rows, [p.offsets[i] for i in subset])
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
        out.append((x, seen[x], d, lam, _cofactor_inverse(lam, d) if d in (1, -1) else None))
    return out
