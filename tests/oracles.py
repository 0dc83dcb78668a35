"""Test-only reference routes that the program replaced.

Each is kept so that a differential test can hold the faster route in
`src/` to the exact results of the slower, more literal one.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from math import ceil, comb, factorial, floor, gcd, lcm, prod
from operator import add, mul

from toricpick import cli
from toricpick.agw import DEGREE, NUM_ROOTS
from toricpick.errors import (DimensionError, InputError, NotSimpleError,
                              ShapeError, ToricError)
from toricpick.exact import det, dot
from toricpick.invariants import _log_rows
from toricpick.localization import (_vertex_sum, chart_weights, check_partition, localize,
                                    partitions_of)
from toricpick.polytope import (HPolytope, _swap, enumerate_vertices,
                                face_lattice)
from toricpick.series import GENUS_KINDS, genus_series


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


def frac_solve(rows, rhs):
    """Solve a square rational system exactly by Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(rhs[i])] for i, r in enumerate(rows)]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("system matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


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
    d = det(rows)
    return tuple(Fraction(det([[b[i] if c == j else rows[i][c] for c in range(n)]
                               for i in range(n)]), d)
                 for j in range(n))


def _cofactor_inverse(m, d):
    n = len(m)
    return tuple(tuple(d * (-1) ** (i + j) * det([[m[r][c] for c in range(n) if c != i]
                                                  for r in range(n) if r != j])
                       for j in range(n))
                 for i in range(n))


def cramer_points(p):
    """The points where n facets meet, one per n-subset whose normals are
    independent (Bareiss determinant, Cramer's rule), integer coordinates as
    int; a repeated point repeats."""
    n = p.dim
    out = []
    for subset in combinations(range(len(p.facets)), n):
        rows = [p.normals[i] for i in subset]
        if det(rows) != 0:
            x = _cramer(rows, [p.offsets[i] for i in subset])
            out.append(tuple(int(c) if c.denominator == 1 else c for c in x))
    return out


def subset_scan(p):
    """(vertex, facet_set, det, Lambda, mu) per vertex, sorted by vertex.

    Keeps the feasible cramer_points and gives each a cofactor inverse; the
    input must be simple.
    """
    n = p.dim
    seen = {}
    for x in cramer_points(p):
        slacks = [dot(x, lam) - a for lam, a in p.facets]
        if min(slacks) < 0:
            continue
        tight = tuple(i for i, s in enumerate(slacks) if s == 0)
        assert len(tight) == n, "oracle input is not simple"
        seen[x] = tight
    out = []
    for x in sorted(seen):
        lam = tuple(zip(*(p.normals[i] for i in seen[x])))
        d = det(lam)
        out.append((x, seen[x], d, lam, _cofactor_inverse(lam, d) if d in (1, -1) else None))
    return out


def general_pivot(tableau, j, h):
    """The walk's pivot (see toricpick.polytope._pivot) as it was before the
    unit-step paths: every row but row_j is sliced out and rebuilt as
    sign(q) (q row_k + row_k[h] row_j) / |d| by one multiply-add, unless
    row_k[h] = 0 and |q| = |d|, and the row for h is sign(q) row_j negated."""
    tight, d, rows = tableau
    scale = abs(d)
    pivot_row = rows[j]
    col = len(tight) + h
    q = -pivot_row[col]
    step, step_row = (q, pivot_row) if q > 0 else (-q, [-b for b in pivot_row])
    new_rows = []
    for row in rows[:j] + rows[j + 1:]:
        f = row[col]
        if not f:
            new_rows.append(row if step == scale else [step * a // scale for a in row])
        elif step == scale == 1:
            new_rows.append([a + f * b for a, b in zip(row, step_row)])
        else:
            new_rows.append([(step * a + f * b) // scale for a, b in zip(row, step_row)])
    tight, pos = _swap(tight, j, h)
    new_rows.insert(pos, [-b for b in step_row])
    sign = (-1 if d > 0 else 1) * (-1 if (pos - j) % 2 else 1)
    return tight, sign * q, new_rows


def collected_ratio_test(slack, rates):
    """The walk's ratio test (see toricpick.polytope._entering) on sliced
    lists, facet i at index i: the facets with a negative rate are collected
    first, then the least slack_i / -rate_i wins, the smallest i on a tie."""
    falling = [i for i, rate in enumerate(rates) if rate < 0]
    if not falling:
        return None
    h = falling[0]
    best_s, best_r = slack[h], -rates[h]
    for i in falling[1:]:
        s, r = slack[i], -rates[i]
        if s * best_r < best_s * r:
            best_s, best_r, h = s, r, i
    return h


def lambda_matrix(p, chart):
    """Lambda at a vertex, as rows: the normals of its facets as columns,
    ascending."""
    return tuple(zip(*(p.normals[i] for i in chart.facet_set)))


def mat_mul(a, b):
    """The product of two integer matrices given by rows, as row tuples."""
    return tuple(tuple(dot(r, c) for c in zip(*b)) for r in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _echelon_transform(mat, width):
    """Integer row echelon form via unimodular row operations.

    Returns (h, u, pivots) with u * mat = h, u unimodular and h in echelon
    shape; pivots lists the pivot column of each nonzero row of h.
    """
    h = [list(r) for r in mat]
    k = len(h)
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    r = 0
    pivots = []
    for c in range(width):
        if r == k:
            break
        while True:
            live = [i for i in range(r, k) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            for i in range(r + 1, k):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    if q:
                        h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            if all(h[i][c] == 0 for i in range(r + 1, k)):
                pivots.append(c)
                r += 1
                break
    return h, u, pivots


def hermite_rows(rows):
    """Canonical row form of an integer lattice basis.

    Unimodular row operations only, so the row lattice is unchanged:
    echelon shape, positive pivots, entries above each pivot reduced.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    h, _u, pivots = _echelon_transform(rows, len(rows[0]))
    h = h[:len(pivots)]
    for idx in range(len(pivots)):
        c = pivots[idx]
        if h[idx][c] < 0:
            h[idx] = [-x for x in h[idx]]
        for above in range(idx):
            q = h[above][c] // h[idx][c]
            if q:
                h[above] = [a - q * b for a, b in zip(h[above], h[idx])]
    return tuple(tuple(r) for r in h)


def integer_kernel_basis(vectors, n):
    """The span check and face charts the program replaced: a basis of the
    saturated integer kernel {d in Z^n : <d, v> = 0 for all v}.

    Carrying a unimodular transform to echelon form makes the result a basis
    of every integer point of the rational kernel, not merely a finite-index
    sublattice.  Rows come back in canonical (Hermite) form.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    mat = [[v[i] for v in vectors] for i in range(n)]
    h, u, _pivots = _echelon_transform(mat, len(vectors))
    basis = [tuple(u[i]) for i in range(n) if all(x == 0 for x in h[i])]
    return hermite_rows(basis)


def inclusion_order(fl):
    """The face order by its definition, over all F^2 pairs: the down-set
    of f lists, ascending, every g whose vertices are all vertices of f."""
    verts = [frozenset(f.vertices) for f in fl.faces]
    return [tuple(g for g, vg in enumerate(verts) if vg <= vf) for vf in verts]


def inclusion_children(fl):
    """The facets of each face, read from inclusion_order."""
    return [tuple(g for g in down if fl.faces[g].dim == fl.faces[f].dim - 1)
            for f, down in enumerate(inclusion_order(fl))]


def face_ids(fl):
    """Face ids by facet set, in the order of fl.faces."""
    return {f.facet_set: i for i, f in enumerate(fl.faces)}


def faces_of_dim(fl, d):
    """Ids of the faces of dimension d, ascending."""
    return [i for i, f in enumerate(fl.faces) if f.dim == d]


def induced_by_children(p, face):
    """induce_face_polytope by the route it replaced: one new facet for each
    facet of the face in the face lattice, found here by vertex inclusion,
    from the one facet it adds to the face's facet set."""
    if face.dim == 0:
        raise DimensionError("a vertex needs no chart; use its point directly")
    if face.dim >= p.dim:
        raise DimensionError("face induction expects a proper face")
    charts = enumerate_vertices(p)
    chart = charts[min(face.vertices, key=lambda w: charts[w].facet_set)]
    if chart.mu_matrix is None:
        raise InputError("a face chart requires a Delzant vertex; vertex %s has det %d"
                         % (chart.vertex, chart.det))
    basis = [r for i, r in zip(chart.facet_set, chart.mu_matrix) if i not in face.facet_set]
    base = chart.vertex
    new_facets = []
    for child in face_lattice(p).faces:
        if child.dim != face.dim - 1 or not set(child.vertices) <= set(face.vertices):
            continue
        i, = set(child.facet_set) - set(face.facet_set)
        lam, a = p.facets[i]
        nu = tuple(dot(b, lam) for b in basis)
        off = a - dot(base, lam)
        g = gcd(*nu)
        if g == 0 or off % g:
            raise InputError("induced facet from %d is not integral" % i)
        new_facets.append((i, tuple(x // g for x in nu), off // g))
    new_facets.sort()
    label = "%s/face%s" % (p.name or "polytope", "-".join(map(str, face.facet_set)))
    return HPolytope(face.dim, [(nu, off) for _, nu, off in new_facets], name=label)


def box_walk(p):
    """(closed, relint) by face id from a walk over the whole bounding box.

    Every facet is tested at every point.  A lattice point of P is credited
    to the face whose vertices are those on all its tight facets, and the
    closed counts sum relint over inclusion_order.
    """
    fl = face_lattice(p)
    charts = enumerate_vertices(p)
    n = p.dim
    lo = [floor(min(c.vertex[k] for c in charts)) for k in range(n)]
    hi = [ceil(max(c.vertex[k] for c in charts)) for k in range(n)]
    by_vertices = {frozenset(f.vertices): i for i, f in enumerate(fl.faces)}
    relint = {i: 0 for i in range(len(fl.faces))}
    for point in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        slacks = [dot(point, lam) - a for lam, a in p.facets]
        if min(slacks) >= 0:
            tight = {i for i, s in enumerate(slacks) if s == 0}
            verts = frozenset(w for w, c in enumerate(charts) if tight <= set(c.facet_set))
            relint[by_vertices[verts]] += 1
    closed = {f: sum(relint[g] for g in down)
              for f, down in enumerate(inclusion_order(fl))}
    return closed, relint


def fiber_walk(p):
    """(closed, relint) by face id from the fiber walk that count_points
    replaced: the integer box of every axis but the widest, k, walked point
    by point; on each fiber the points of P form one integer interval, and
    only the points where a facet with lam_i[k] != 0 is tight are classified
    one by one.
    """
    fl = face_lattice(p)
    charts = enumerate_vertices(p)
    n = p.dim
    lo = [floor(min(c.vertex[j] for c in charts)) for j in range(n)]
    hi = [ceil(max(c.vertex[j] for c in charts)) for j in range(n)]
    k = max(range(n), key=lambda j: hi[j] - lo[j])  # the first of the widest
    others = [j for j in range(n) if j != k]
    rows = [(i, tuple(lam[j] for j in others), lam[k], a)
            for i, (lam, a) in enumerate(p.facets)]
    ids = face_ids(fl)
    relint = [0] * len(fl.faces)
    for y in product(*(range(lo[j], hi[j] + 1) for j in others)):
        # facet i reads s + c x_k >= 0 along the fiber
        low, high = lo[k], hi[k]
        whole, ends = [], []
        for i, rest, c, a in rows:
            s = sum(map(mul, y, rest)) - a
            if c:
                if s % c == 0:
                    ends.append((-s // c, i))
                if c > 0:
                    low = max(low, -(s // c))
                else:
                    high = min(high, s // -c)
            elif s < 0:
                break
            elif s == 0:
                whole.append(i)
        else:
            if low > high:
                continue
            tight_at = {}
            for x, i in ends:
                if low <= x <= high:
                    tight_at.setdefault(x, []).append(i)
            for extra in tight_at.values():
                relint[ids[tuple(sorted(whole + extra))]] += 1
            plain = high - low + 1 - len(tight_at)
            if plain:
                relint[ids[tuple(whole)]] += plain
    # each point is in the closure of every face above its own, whose facet
    # set is a subset of its own
    closed = [0] * len(fl.faces)
    for face, c in zip(fl.faces, relint):
        if c:
            for r in range(len(face.facet_set) + 1):
                for sub in combinations(face.facet_set, r):
                    closed[ids[sub]] += c
    return dict(enumerate(closed)), dict(enumerate(relint))


def fraction_slope_classes(us, vs):
    """lattice._slope_classes by the route it replaced: each class keyed by
    the Fraction c / |d| of its slope, and the classes ordered by it."""
    slopes, flat = ({}, {}), []
    for i, (c, d) in enumerate(zip(us, vs)):
        if d:
            slopes[d < 0].setdefault(Fraction(c, abs(d)), []).append((1 << i, i, c, abs(d)))
        else:
            flat.append((1 << i, i, c))
    return [[side[k] for k in sorted(side, reverse=True)] for side in slopes], flat


def face_id_rows(fc):
    """FaceCounts.face_rows as the per-face table once read it: the faces
    of the laid-out face lattice, in its order, each with its closed and
    relint count read by face id."""
    return [(f.dim, f.facet_set, fc.closed[i], fc.relint[i], f.mask)
            for i, f in enumerate(fc.charts.faces)]


def fraction_volume(p):
    """The triangulation volume with a Fraction for every entry: each
    simplex's edge rows are cleared of denominators one row at a time, and
    the facets of each face come from inclusion_order."""
    fl = face_lattice(p)
    children = inclusion_children(fl)
    points = [c.vertex for c in enumerate_vertices(p)]

    def simplices(fid):
        face = fl.faces[fid]
        if face.dim == 0:
            return [(face.vertices[0],)]
        base = min(face.vertices, key=lambda w: points[w])
        return [s + (base,) for gid in children[fid]
                if base not in fl.faces[gid].vertices for s in simplices(gid)]

    total = Fraction(0)
    for s in simplices(face_ids(fl)[()]):
        scale, rows = 1, []
        for w in s[:-1]:
            r = [Fraction(a) - b for a, b in zip(points[w], points[s[-1]])]
            q = lcm(*(x.denominator for x in r))
            rows.append([int(x * q) for x in r])
            scale *= q
        total += abs(Fraction(det(rows), scale))
    return total / factorial(p.dim)


class MultiPoly:
    """The class route the program replaced: a sparse polynomial in the
    facet classes v_1..v_m over the rationals, truncated by total degree.

    Terms map exponent tuples (length num_vars, total degree <= trunc) to
    nonzero rational coefficients.
    """

    def __init__(self, num_vars, trunc, terms=None):
        self.num_vars = num_vars
        self.trunc = trunc
        self.terms = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != num_vars or min(e, default=0) < 0 or sum(e) > trunc:
                raise ShapeError("exponent %r does not fit %d variables truncated at %d"
                                 % (e, num_vars, trunc))
            c = self.terms.get(e, 0) + Fraction(c)
            if c:
                self.terms[e] = c
            else:
                self.terms.pop(e, None)

    @classmethod
    def zero(cls, num_vars, trunc):
        return cls(num_vars, trunc)

    @classmethod
    def constant(cls, num_vars, trunc, value):
        return cls(num_vars, trunc, {(0,) * num_vars: value})

    def mul(self, other):
        if (self.num_vars, self.trunc) != (other.num_vars, other.trunc):
            raise ShapeError("mismatched polynomials")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                if sum(e1) + sum(e2) <= self.trunc:
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.num_vars, self.trunc, out)


def _facet_product(factors, trunc):
    """prod_i f_i(v_i) truncated at total degree, f_i given by the list of
    its coefficients."""
    m = len(factors)
    result = MultiPoly.constant(m, trunc, 1)
    for i, f in enumerate(factors):
        result = result.mul(MultiPoly(m, trunc, {
            tuple(k if j == i else 0 for j in range(m)): c
            for k, c in enumerate(f[:trunc + 1])}))
    return result


def product_over_facets(g, num_vars, trunc):
    """prod_i g(v_i) truncated at total degree, g a coefficient tuple (read
    as 0 past its end); g must have constant term 1."""
    if g[0] != 1:
        raise ShapeError("facet products need a series with constant term 1")
    return _facet_product([[g[k] if k < len(g) else 0 for k in range(trunc + 1)]]
                          * num_vars, trunc)


# The genus series by exact division of truncated exponential and
# hyperbolic series, and the series logarithm that took them apart again:
# the construction that series.genus_log and its exponential replaced.


def series_mul(a, b):
    """Product of two coefficient tuples, truncated at the lower degree."""
    d = min(len(a), len(b))
    out = [Fraction(0)] * d
    for i, x in enumerate(a[:d]):
        if x:
            for j in range(d - i):
                out[i + j] += x * b[j]
    return tuple(out)


def reciprocal(s):
    """Exact series inverse; the constant term must be nonzero."""
    c0 = s[0]
    if c0 == 0:
        raise DimensionError("cannot invert a series with zero constant term")
    out = [Fraction(1) / c0]
    for k in range(1, len(s)):
        out.append(-sum(s[j] * out[k - j] for j in range(1, k + 1)) / c0)
    return tuple(out)


def series_log(s):
    """Exact series logarithm, zero constant term; the constant term of s
    must be 1.  From s' = s (log s)': k l_k = k s_k - sum_{0<j<k} j l_j s_{k-j}."""
    if s[0] != 1:
        raise DimensionError("cannot take the log of a series with constant term %s, not 1"
                             % s[0])
    out = [Fraction(0)]
    for k in range(1, len(s)):
        out.append(s[k] - Fraction(sum(j * out[j] * s[k - j] for j in range(1, k)), k))
    return tuple(out)


def hyperbolic(degree, shift, scale=1):
    """cosh(y) (shift 0) or sinh(y)/y (shift 1) at y = x/scale, truncated:
    the coefficient of x^k is 1/((k + shift)! scale^k) for even k, else 0."""
    return tuple(Fraction(0) if k % 2 else Fraction(1, factorial(k + shift) * scale ** k)
                 for k in range(degree + 1))


def divided_genus_series(kind, degree):
    """The genus series of kind to degree, as series.genus_series gives it,
    built by division:

    Todd          x/(1 - e^-x), the reciprocal of sum (-1)^k x^k/(k+1)!
    SignatureHalf cosh(x/2) / (sinh(x/2)/(x/2))
    AHat          1 / (sinh(x/2)/(x/2))
    L             cosh(x) / (sinh(x)/x)
    """
    if degree < 0:
        raise DimensionError("degree must be nonnegative")
    if kind == "Todd":
        return reciprocal(tuple(Fraction((-1) ** k, factorial(k + 1))
                                for k in range(degree + 1)))
    if kind == "L":
        return series_mul(hyperbolic(degree, 0), reciprocal(hyperbolic(degree, 1)))
    if kind == "SignatureHalf":
        return series_mul(hyperbolic(degree, 0, 2), reciprocal(hyperbolic(degree, 1, 2)))
    if kind == "AHat":
        return reciprocal(hyperbolic(degree, 1, 2))
    raise ShapeError("unknown genus kind %r; expected one of %s" % (kind, (GENUS_KINDS,)))


def bernoulli(n):
    """Bernoulli numbers B_0..B_n with B_1 = -1/2, from the recurrence
    sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1."""
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def exp_linear(coeffs, trunc):
    """exp(sum c_i v_i) = prod_i exp(c_i v_i) truncated at total degree."""
    return _facet_product([[Fraction(c) ** k / factorial(k) for k in range(trunc + 1)]
                           for c in coeffs], trunc)


def factor_product_restriction(p, kind, twist=True, face=None):
    """The genus restriction before the exponential of power sums: (restrict,
    scale) for exp(w_P) prod_i g(v_i), one vertex at a time, as localize_rows
    takes them, or with a face as localize_face takes them, kind None
    dropping the genus factor.

    At a vertex exp(s t), s = -<x, u>, and the n factors g(w_j t) (on a
    face F, the edges in F, and n = dim F) are multiplied as n truncated
    integer series n! exp and D g, D the common denominator of g, so
    scale = n! D^n; twist False is exp(0 t) = 1.
    """
    n = p.dim if face is None else face.dim
    normal = () if face is None else face.facet_set
    g = genus_series(kind, n) if kind is not None else (1,) + (0,) * n
    d = lcm(*(c.denominator for c in g))
    scaled_g = [int(c * d) for c in g]
    scaled_exp = [factorial(n) // factorial(k) for k in range(n + 1)]
    scale = factorial(n) * d ** n

    def restrict(chart, w):
        s = -sum(p.offsets[i] * x for i, x in zip(chart.facet_set, w)) if twist else 0
        out = [c * s ** k for k, c in enumerate(scaled_exp)]
        for i, x in zip(chart.facet_set, w):
            if i in normal:
                continue
            f = [c * x ** k for k, c in enumerate(scaled_g)]
            out = [sum(map(mul, out[k::-1], f)) for k in range(n + 1)]
        return out

    return restrict, scale


def localize_face(p, u, restrict, scale, face):
    """localize summed over the vertices of a face F of face_lattice(p)
    only, in degree dim F, the route invariants._face_todd_sweep replaced:
    the Euler products take only the w_j with facet_set[j] not a facet of F
    (the edges in F), and restrict(chart, w), one vertex at a time, still
    gets all n w_j.  On the top face it is the per-vertex localize that the
    columnar one replaced.  Each degree d <= dim F sums the rows' c_d over
    the lcm of the Euler products here, apart from the program's own sum;
    a nonzero degree below dim F raises the program's chart-bug message.
    Returns the value and the per-vertex (vertex, Fraction) terms, as
    localize returns them at one vector."""
    charts, weights = chart_weights(p, u)
    data = [(charts[v], weights[v]) for v in face.vertices]
    rows = [restrict(c, w) for c, w in data]
    eulers = [prod(x for i, x in zip(c.facet_set, w) if i not in face.facet_set)
              for c, w in data]
    den = lcm(*eulers)
    nums = [sum(row[d] * (den // euler) for row, euler in zip(rows, eulers))
            for d in range(face.dim + 1)]
    low = [(d, x) for d, x in enumerate(nums[:-1]) if x]
    if low:
        raise ToricError("localization of the degree-%d part is %s, expected 0 (chart bug)"
                         % (low[0][0], Fraction(low[0][1], den * scale)))
    return Fraction(nums[-1], den * scale), tuple((c.vertex, Fraction(sum(row), euler * scale))
                                                  for (c, _), row, euler in zip(data, rows, eulers))


def weight_tables(p, vectors):
    """(charts, tables) as localize takes them: p's chart table and the
    weight table of each vector in vectors, each read by chart_weights."""
    return enumerate_vertices(p), [chart_weights(p, u)[1] for u in vectors]


def localize_rows(p, u, restrict, scale=1):
    """localize at the one vector u of a per-vertex restrict(chart, w), which
    gives the n + 1 coefficients at one vertex, lifted to the restriction
    localize takes, n + 1 columns with one entry per vertex: (value,
    per-vertex (vertex, Fraction) terms)."""
    def columns(charts, weights):
        return [list(column) for column in zip(*map(restrict, charts, weights))]

    (value,), contributions = localize(*weight_tables(p, (u,)), columns, scale, terms=True)
    return value, contributions


def genus_restriction(p, kind, twist=True):
    """(restrict, scale) for exp(w_P) prod_i g(v_i), one vertex at a time, as
    localize_face and localize_rows take them: the per-vertex form of
    invariants._genus_restriction, which the columnar one replaced.

    At a vertex exp(s t), s = -<x, u> (0 untwisted), times prod_j g(w_j t)
    is exp(A), A(t) = s t + sum_k b_k p_k t^k, p_k = sum_j w_j^k, from
    E' = A' E with one exact division per degree, scale = n! D^n."""
    n = p.dim
    scale, den, rows = _log_rows(kind, n)

    def restrict(chart, w):
        a = [0] * n  # a[j - 1] = den j A_j
        if n and twist:
            a[0] = -den * sum(p.offsets[i] * x for i, x in zip(chart.facet_set, w))
        for k, c in rows:
            a[k - 1] += c * sum(x ** k for x in w)
        out = [scale]
        for k in range(1, n + 1):
            num = sum(map(mul, a, reversed(out)))
            if num % (k * den):
                raise ToricError("the degree-%d coefficient of the genus restriction is %s, "
                                 "not an integer (chart bug)" % (k, Fraction(num, k * den)))
            out.append(num // (k * den))
        return out

    return restrict, scale


def chern_restriction(omega, w):
    """prod_k e_{omega_k}(v) at one vertex, e_k(v_1..v_m) restricting to
    e_k(w) t^k, built weight by weight up to e_{omega_1}: the per-vertex
    form of localization._chern_restriction, which the columnar one
    replaced."""
    e = [1] + [0] * omega[0]
    for x in w:
        for k in range(omega[0], 0, -1):
            e[k] += e[k - 1] * x
    return [0] * len(w) + [prod(e[k] for k in omega)]


def face_todd_restriction(p, face):
    """(restrict, scale) for the twisted Todd class of the face F as
    localize_face takes them: the restriction in degree dim F whose
    power sums run over the edges in F only, each face on its own, the
    route invariants._face_todd_sweep replaced.

    At a vertex exp(s t) prod_j Td(w_j t) over the edges in F is exp(A),
    A(t) = s t + sum_k b_k p_k t^k, from E' = A' E with one exact division
    per degree, as invariants._exponential builds it."""
    n = face.dim
    scale, den, rows = _log_rows("Todd", n)

    def restrict(chart, w):
        a = [0] * n  # a[j - 1] = den j A_j
        if n:
            a[0] = -den * sum(p.offsets[i] * x for i, x in zip(chart.facet_set, w))
        edges = [x for i, x in zip(chart.facet_set, w) if i not in face.facet_set]
        for k, c in rows:
            a[k - 1] += c * sum(x ** k for x in edges)
        out = [scale]
        for k in range(1, n + 1):
            num = sum(map(mul, a, reversed(out)))
            q, r = divmod(num, k * den)
            if r:
                raise ToricError("the degree-%d coefficient of the face restriction is %s"
                                 % (k, Fraction(num, k * den)))
            out.append(q)
        return out

    return restrict, scale


def integrate_terms(p, cls, u):
    """Integral and per-vertex contributions of an m-variable class by
    evaluating every term at every vertex chart; degrees below n must
    sum to 0."""
    n = p.dim
    by_degree = [Fraction(0)] * (n + 1)
    contributions = []
    for chart in enumerate_vertices(p):
        w = [dot(r, u) for r in chart.mu_matrix]
        at = dict(zip(chart.facet_set, w))
        euler = prod(w)
        contribution = Fraction(0)
        for e, coeff in cls.terms.items():
            if any(k and i not in at for i, k in enumerate(e)):
                continue
            value = coeff / euler
            for i, k in enumerate(e):
                value *= Fraction(at.get(i, 1)) ** k
            by_degree[sum(e)] += value
            contribution += value
        contributions.append((chart.vertex, contribution))
    assert by_degree[:n] == [0] * n
    return by_degree[n], tuple(contributions)


def elementary_symmetric(k, num_vars, trunc):
    """e_k(v_1..v_m) as a MultiPoly; zero when k exceeds the variable count."""
    if k < 0:
        raise ShapeError("negative elementary symmetric index")
    if k > num_vars or k > trunc:
        return MultiPoly.zero(num_vars, trunc)
    terms = {}
    for subset in combinations(range(num_vars), k):
        e = tuple(1 if j in subset else 0 for j in range(num_vars))
        terms[e] = 1
    return MultiPoly(num_vars, trunc, terms)


@lru_cache(maxsize=None)
def _elementary_product(parts, num_vars, degree):
    """prod_k e_{parts_k}(v_1..v_num_vars) expanded term by term, as a dict
    from exponent tuples to integer coefficients, without terms above the
    degree; parts ascending, so that the partitions of one degree share
    their products of small parts."""
    if not parts:
        return {(0,) * num_vars: 1}
    k = parts[-1]
    # the monomials of e_k: one exponent 1 on each of k distinct variables
    factor = [tuple(int(j in subset) for j in range(num_vars))
              for subset in combinations(range(num_vars), k)]
    out = {}
    for e, c in _elementary_product(parts[:-1], num_vars, degree).items():
        if sum(e) + k > degree:
            continue
        for f in factor:
            key = tuple(map(add, e, f))
            out[key] = out.get(key, 0) + c
    return out


def monomial_coefficients(omega, num_vars, degree):
    """{lam: coefficient of m_lam} in prod_k e_{omega_k}(v_1..v_num_vars),
    read off the expanded product, over partitions of degree with at most
    num_vars parts."""
    terms = _elementary_product(tuple(sorted(omega)), num_vars, degree)
    out = {}
    for lam in partitions_of(degree):
        if len(lam) <= num_vars:
            c = terms.get(lam + (0,) * (num_vars - len(lam)), 0)
            if c:
                out[lam] = c
    return out


# Route one of chern_number before Newton's identities: e_omega expanded on the
# monomial symmetric functions m_lam by 0-1 matrix counts, each m_lam evaluated
# at a vertex by a dynamic programme over the weights.


@lru_cache(maxsize=4096)
def elementary_to_monomial(omega, lam):
    """Coefficient of the monomial symmetric m_lam in e_omega = prod_k e_{omega_k}.

    It is the number of 0-1 matrices with row sums omega and column sums lam
    (Macdonald, Symmetric Functions and Hall Polynomials, I.6), the same in
    any number of variables at least the length of lam; both are tuples.
    The first row puts its 1s in some of the columns that still need one,
    and the other rows fill what those columns need then, sorted.
    """
    if not omega:
        return int(not any(lam))
    return sum(elementary_to_monomial(omega[1:], tuple(sorted(
        (x - (i in ones) for i, x in enumerate(lam)), reverse=True)))
        for ones in combinations([i for i, x in enumerate(lam) if x], omega[0]))


def chern_support(omega):
    """The partitions lam, in partitions_of's order, whose m_lam is in e_omega: by
    Gale-Ryser, those whose partial sums stay within those of omega's conjugate."""
    n = sum(omega)
    bound = list(accumulate(sum(x > i for x in omega) for i in range(n)))

    def gen(rest, cap, k):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap, bound[k] - n + rest), 0, -1):
            for tail in gen(rest - first, first, k + 1):
                yield (first,) + tail
    return list(gen(n, n, 0))


@lru_cache(maxsize=256)
def _placements(lam):
    """States of the m_lam dynamic programme (parts placed per distinct
    size), ordered by the number placed: the sizes, that number per state,
    and per state the (index, size position) of each state one part short."""
    sizes = sorted(set(lam))
    states = sorted(product(*(range(lam.count(s) + 1) for s in sizes)), key=sum)
    index = {st: i for i, st in enumerate(states)}
    return sizes, [sum(st) for st in states], [
        [(index[st[:k] + (x - 1,) + st[k + 1:]], k) for k, x in enumerate(st) if x]
        for st in states]


def monomial_symmetric(lam, w):
    """m_lam(w), each distinct monomial of shape lam in the weights once.

    Weight by weight, each takes one part of lam not yet placed or none.
    After j of the n weights only states with between l - (n - j) and j of
    the l parts placed can still finish, so only those are updated, the
    most placed first, so that each reads the values from before weight j.
    """
    sizes, placed, steps = _placements(lam)
    n, l = len(w), len(lam)
    val = [1] + [0] * (len(steps) - 1)
    for j, x in enumerate(w, 1):
        power = [x ** s for s in sizes]
        for i in range(len(steps) - 1, 0, -1):
            if l - n + j <= placed[i] <= j:
                for src, k in steps[i]:
                    val[i] += val[src] * power[k]
    return val[-1]


def fixed_point_sum(p, terms, u):
    """Sum over the vertices of sum_lam c_lam m_lam(w) / prod w for the
    (lam, c_lam) terms, through the program's vertex sum."""
    return _vertex_sum(*chart_weights(p, u), lambda _charts, weights: [
        sum(c * monomial_symmetric(lam, w) for lam, c in terms) for w in weights])


def monomial_chern_route(p, omega, u):
    """e_omega = sum_lam c_lam m_lam with c_lam counted as 0-1 matrices, each
    m_lam evaluated by the fixed point formula."""
    omega = check_partition(omega, p.dim)
    return fixed_point_sum(
        p, [(lam, elementary_to_monomial(omega, lam)) for lam in chern_support(omega)], u)


def _automorphisms(lam):
    out = 1
    for part in set(lam):
        out *= factorial(lam.count(part))
    return out


def fixed_point_partition_sum(p, lam, u):
    """Literal fixed point formula for a partition of n, through the
    m_lam dynamic programme above.

    At a vertex it sums, over ordered l-tuples of distinct incident facets
    and the parts of lam placed on them, prod w^part over the Euler product.
    Every distinct monomial arises aut(lam) times, so the value is
    aut(lam) sum_p m_lam(w_p) / prod w_p, the sum localization's Chern
    route takes for one term.
    """
    lam = check_partition(lam, p.dim)
    return fixed_point_sum(p, ((lam, _automorphisms(lam)),), u)


def permutation_partition_sum(p, lam, u):
    """The literal fixed point formula: at each vertex every sorted l-tuple
    of the n incident weights and every permutation of the parts on it."""
    n = p.dim
    lam = check_partition(lam, n)
    l = len(lam)
    num, den = 0, 1
    for w in chart_weights(p, u)[1]:
        vertex = 0
        for i1 in combinations(range(n), l):
            for sigma in permutations(range(l)):
                term = 1
                for slot, j in enumerate(i1):
                    term *= w[j] ** lam[sigma[slot]]
                vertex += term
        euler = prod(w)
        grown = lcm(den, euler)
        num = num * (grown // den) + vertex * (grown // euler)
        den = grown
    return Fraction(num, den)


def kahler_class(p):
    """The degree-1 class -sum a_i v_i carried by the offsets."""
    m = len(p.facets)
    terms = {}
    for i, a in enumerate(p.offsets):
        if a:
            e = tuple(1 if j == i else 0 for j in range(m))
            terms[e] = -a
    return MultiPoly(m, p.dim, terms)


# The degree-12 classes over six roots expanded on the monomial symmetric
# functions {lam: c of m_lam}, and the change to the p_k basis that
# agw.multiplicative_class replaced.


class ParityError(ToricError):
    """A series or symmetric polynomial violates an evenness requirement."""


def _root_partitions(xdeg):
    out = [()]
    for total in range(1, xdeg + 1):
        out.extend(lam for lam in partitions_of(total) if len(lam) <= NUM_ROOTS)
    return out


def expand_genus_product(g):
    """prod_i g(x_i) over the NUM_ROOTS roots, truncated at DEGREE.

    g is an even coefficient tuple reaching root-degree DEGREE / 2.  The
    product of one univariate series per root has coefficient prod_i c_{e_i}
    on x^e, so each monomial symmetric coefficient is a plain product over
    the padded partition.
    """
    xdeg = DEGREE // 2
    if len(g) <= xdeg:
        raise DimensionError("the genus series must reach degree %d" % xdeg)
    for k in range(1, xdeg + 1, 2):
        if g[k]:
            raise ParityError("series has a nonzero odd coefficient at degree %d" % k)
    coeffs = {}
    for lam in _root_partitions(xdeg):
        padded = lam + (0,) * (NUM_ROOTS - len(lam))
        c = Fraction(1)
        for e in padded:
            c *= g[e]
            if not c:
                break
        if c:
            coeffs[lam] = c
    return coeffs


def twisted_ahat():
    """prod_j A(x_j) times sum_j (e^{x_j} + e^{-x_j}), truncated at DEGREE.

    Distributing the character sum leaves one distinguished root carrying
    A(x) (e^x + e^-x) = 2 A(x) cosh(x) while the others carry A(x).
    """
    xdeg = DEGREE // 2
    a = genus_series("AHat", xdeg)
    d = tuple(2 * c for c in series_mul(a, hyperbolic(xdeg, 0)))
    coeffs = {}
    for lam in _root_partitions(xdeg):
        # a root of exponent 0 carries A's constant term 1, so only the
        # parts of lam multiply; the distinguished root is a part or not,
        # and with two parts where A vanishes every term vanishes
        f = [a[x] for x in lam]
        if f.count(0) > 1:
            continue
        total = (NUM_ROOTS - len(lam)) * d[0] * prod(f)
        for j, x in enumerate(lam):
            total += d[x] * prod(f[:j] + f[j + 1:])
        if total:
            coeffs[lam] = total
    return coeffs


def to_pontryagin(r):
    """Rewrite an even symmetric polynomial {lam: c} in the p_k =
    e_k(squares) basis, up to root-degree DEGREE / 2.

    Works one root-degree at a time.  In the squares, e_{lam'} (lam' the
    conjugate partition) is m_lam plus monomials lower in dominance order
    (Macdonald I.6), hence later in the decreasing lexicographic order of
    partitions_of.  So the coefficient left on m_lam, in that order, is the
    one of p_{lam'}, and e_{lam'}'s share of the later coefficients, counted
    by elementary_to_monomial, is subtracted from them.  Keys other than ()
    must be partitions.
    """
    for lam in r:
        if lam:
            check_partition(lam)
    out = {}
    for d in sorted({sum(lam) for lam, c in r.items() if c and sum(lam) <= DEGREE // 2}):
        if any(x % 2 for lam, c in r.items() if c and sum(lam) == d for x in lam):
            raise ParityError("root-degree %d part has an odd exponent" % d)
        lams = [lam for lam in partitions_of(d // 2) if len(lam) <= NUM_ROOTS]
        left = {lam: Fraction(r.get(tuple(2 * x for x in lam), 0)) for lam in lams}
        for k, lam in enumerate(lams):
            c = left[lam]
            if c:
                nu = tuple(sum(x > i for x in lam) for i in range(max(lam, default=0)))
                out[nu] = c
                for mu in lams[k + 1:]:
                    left[mu] -= c * elementary_to_monomial(nu, mu)
    return out


def render_json(data):
    """The report text as the standard library writes it: jsonable maps the
    payload onto JSON types, json.dumps sorts keys and indents by 2."""
    return json.dumps(cli.jsonable(data), sort_keys=True, indent=2)
