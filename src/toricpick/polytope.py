"""Delzant lattice polytopes presented by facet inequalities <x, lam_i> >= a_i.

The H-representation is the primary object: primitive inward normals lam_i
and integer offsets a_i, with facet order fixed by the input.  Vertices,
vertex charts (Lambda_p and its inverse M_p), whose table is the face
lattice, h-vector, exact volume and face induction are all derived from it.
"""

from bisect import bisect
from fractions import Fraction
from functools import cached_property, cmp_to_key, wraps
from itertools import combinations
from math import comb, factorial, gcd, lcm
from operator import add, mul, sub

from .errors import (BudgetError, DimensionError, InputError, NotSimpleError,
                     UnboundedError)
from .exact import dot, integers


# most phase-one pivots the search for a first vertex may take, a guard
# against a cycling bug: no corpus, test-family or benchmark input needs 10
VERTEX_SEARCH_BUDGET = 5000

# most vertex charts the walk may build, the 13-cube's 8192 among them; a chart
# costs a pivot and n - 1 ratio tests over the m rates, some 0.035 ms on the
# 13-cube (2-core VM), and up to 8 kB (the 20-cube is refused in about 1 s at
# 94 MB); a polygon, charted by a sort, takes 6 ms for 1936 charts
WALK_BUDGET = 10 ** 4

# most pairs of the face order by charge_faces's estimate (the 8-cube's is 545 308);
# closing counts over the subsets of their facet masks or gathering the facets through
# each face's vertices (volume) takes at most a step each, laying faces out or counting fewer
FACE_BUDGET = 6 * 10 ** 6


class HPolytope:
    """Lattice polytope {x : <x, lam_i> >= a_i} with primitive inward normals,
    whose integers are checked here alone, a refused one named by its facet."""

    def __init__(self, dim, facets, name=None):
        dim, = integers((dim,), InputError, "polytope dimension")
        if dim < 1:
            raise InputError("polytope dimension must be at least 1")
        cleaned, seen = [], set()
        try:
            numbered = enumerate(facets)
        except TypeError:
            raise InputError("facets are not a sequence of (normal, offset) pairs") from None
        for pos, facet in numbered:
            try:  # the position is formatted only when refused
                normal, offset = facet
            except (TypeError, ValueError):
                raise InputError("facet %d is not a (normal, offset) pair" % pos) from None
            try:
                normal = integers(normal, InputError, "normal entry")
                offset, = integers((offset,), InputError, "offset")
            except InputError as e:
                raise InputError("facet %d %s" % (pos, e)) from None
            if len(normal) != dim:
                raise InputError("normal %s has length %d, expected %d"
                                 % (normal, len(normal), dim))
            g = gcd(*normal)
            if g == 0:
                raise InputError("zero facet normal")
            if g != 1:
                raise InputError("facet normal %s is not primitive (gcd %d)" % (normal, g))
            if normal in seen:
                raise InputError("duplicate facet normal %s" % (normal,))
            seen.add(normal)
            cleaned.append((normal, offset))
        if not cleaned:
            raise InputError("polytope needs at least one facet")
        self.dim = dim
        self.facets = tuple(cleaned)
        self.normals, self.offsets = zip(*cleaned)
        self.name = name
        self._derived = {}

    def __eq__(self, other):
        return (isinstance(other, HPolytope) and self.dim == other.dim
                and self.facets == other.facets)

    def __hash__(self):
        return hash((self.dim, self.facets))

    def __repr__(self):
        return "HPolytope(dim=%d, facets=%d, name=%r)" % (
            self.dim, len(self.facets), self.name)


def derived(fn):
    """fn(p) computed once per HPolytope object and kept on it, so it lives
    exactly as long as p: equal polytopes built apart share nothing, and as
    no result refers back to p, dropping p frees it and all it holds.  A
    call that raises stores nothing; __wrapped__ computes afresh."""
    @wraps(fn)
    def once(p):
        if fn not in p._derived:
            p._derived[fn] = fn(p)
        return p._derived[fn]
    return once


class VertexChart:
    """Fixed point data at a vertex.

    facet_set lists the incident facets in ascending order, and det is the
    determinant of Lambda, the matrix with their normals as columns.
    mu_matrix is the exact integer inverse M of Lambda as a tuple of n rows
    whenever |det| = 1 (row j, dual to facet facet_set[j], gives the
    localization weight of that facet), and None otherwise.  A chart keeps
    no weights: its table does (see ChartTable).
    """

    def __init__(self, vertex, facet_set, lambda_det, mu_matrix):
        self.vertex = tuple(vertex)
        self.facet_set = tuple(facet_set)
        self.det = lambda_det
        self.mu_matrix = mu_matrix

    def __repr__(self):
        return "VertexChart(vertex=%s, facets=%s, det=%d)" % (
            self.vertex, self.facet_set, self.det)


class ChartTable(tuple):
    """The vertex charts of a polytope in vertex order (see enumerate_vertices)
    and what is read off them all, found once per table and freed with it: the
    Delzant verdict non_delzant, the first chart with |det| != 1 or None, the
    weights, and the faces, each named by its facet set.  The face order is not
    stored: g is a face of f exactly when f's facet set is a subset of g's.  A
    polytope's lattice point counts hold its one table, so both share one layout."""

    def __init__(self, charts):
        self.non_delzant = next((c for c in self if abs(c.det) != 1), None)
        self.weighed = {}

    def weigh(self, u):
        """weighed[u], the one weight store, made the first time, refused or not:
        at n integers u, the tuple <mu_{p,i_j}, u> of each Delzant chart, and the
        first chart with a weight 0, or None if u is generic."""
        if u not in self.weighed:
            weights = tuple([tuple([sum(map(mul, r, u)) for r in c.mu_matrix]) for c in self])
            self.weighed[u] = weights, next((c for c, w in zip(self, weights) if not all(w)), None)
        return self.weighed[u]

    @cached_property
    def faces(self):
        """Every face is cut out by a subset of the facets through any one
        of its vertices, so one pass over the subsets of each vertex's facet
        set finds every face with its vertices.  The certificate of
        enumerate_vertices says that such a subset cuts out a face of
        dimension n minus its size on no other facet, so the subset is the
        face's facet set and nothing is checked again.  A BudgetError (see
        charge_faces) comes first if the order may exceed FACE_BUDGET pairs.
        Only perfbench/replay.py and the tests read it (ROADMAP item 9)."""
        n = len(self[0].facet_set)
        charge_faces(len(self), n)
        found = {}
        for vid, c in enumerate(self):
            for r in range(n + 1):
                for sub in combinations(c.facet_set, r):
                    found.setdefault(sub, []).append(vid)
        faces = [Face(sub, n - len(sub), verts) for sub, verts in found.items()]
        faces.sort(key=lambda f: (f.dim, f.facet_set))
        return tuple(faces)

    @cached_property
    def f_vector(self):
        """Faces of dimension d by the distinct (n - d)-subsets of the vertices'
        facet sets (see faces), counted after the same budget, not laid out."""
        n = len(self[0].facet_set)
        charge_faces(len(self), n)
        return tuple(len(set().union(*(combinations(c.facet_set, r) for c in self)))
                     for r in range(n, -1, -1))

    @property
    def leq(self):
        """The order as pairs (g, f) of positions in faces, g a face of f.
        Only perfbench/replay.py reads it, until a benchmark change
        repoints the replay (ROADMAP item 9)."""
        at = {f.facet_set: i for i, f in enumerate(self.faces)}
        return frozenset((g, at[sub]) for g, face in enumerate(self.faces)
                         for r in range(len(face.facet_set) + 1)
                         for sub in combinations(face.facet_set, r))


class Face:
    """A face keyed by its facets, ascending and as a bit mask; vertices index the charts."""

    def __init__(self, facet_set, dim, vertices):
        self.facet_set = tuple(facet_set)
        self.mask = sum(map((1).__lshift__, self.facet_set))
        self.dim = dim
        self.vertices = tuple(vertices)

    def __repr__(self):
        return "Face(dim=%d, facets=%s)" % (self.dim, self.facet_set)


class HVector:
    """h-vector of a simple polytope, h_P(t) = sum_i f_i (t-1)^i."""

    def __init__(self, h):
        self.h = integers(h, InputError, "h-vector entry")
        n = len(self.h) - 1
        if self.h[0] != 1 or self.h[n] != 1:
            raise InputError("h-vector must start and end with 1: %s" % (self.h,))
        if any(x < 0 for x in self.h):
            raise InputError("h-vector entries must be nonnegative: %s" % (self.h,))
        if self.h != self.h[::-1]:
            raise InputError("h-vector is not palindromic: %s" % (self.h,))

    def __repr__(self):
        return "HVector(%s)" % (self.h,)


def _swap(tight, j, h):
    """The facet set `tight` (ascending) with the facet at position j
    swapped for h, and the position of h in it."""
    rest = tight[:j] + tight[j + 1:]
    pos = bisect(rest, h)
    return rest[:pos] + (h,) + rest[pos:], pos


def _pivot(tableau, j, h):
    """The tableau of the neighbour across edge j, on which facet h is tight.

    A tableau (tight, d, rows) belongs to the vertex on the facets `tight`
    (ascending) with d = det Lambda.  Row k < n is e_k followed by the rates
    <e_k, lam_i> of all m facets; row n is X followed by |d| times each
    slack.  With q = -<e_j, lam_h> != 0 the neighbour has |det| = |q|, the
    row for h is -sign(q) row_j, and every other row becomes
    sign(q) (q row_k + row_k[h] row_j) / |d|, where row_k[h] is the rate (or
    slack) of facet h.  The division is exact (Bareiss): the result is again
    the signed adjugate data of the neighbour, each edge pointing into its
    facet's side.  Its det is -sign(d) q times the parity of moving h from
    position j to its sorted place.  The walk steps onto a facet it meets
    (q > 0); the first-vertex search also onto one it crosses from the
    infeasible side (q < 0), where row_j itself is the row for h.  The one
    _swap of a pivot sorts the neighbour's facet set.

    A row with row_k[h] = 0 is only scaled, by |q| / |d|; when |q| = |d|,
    as on every step between unimodular charts, it is unchanged, and the
    neighbour shares its list with this tableau (rows are never mutated).  When
    |q| = |d| = 1 the other rows are row_k + row_k[h] sign(q) row_j, with no
    multiply by |q| and no division: a plain add or subtract where
    row_k[h] = +-1.
    """
    tight, d, rows = tableau
    scale = abs(d)
    pivot_row = rows[j]
    col = len(tight) + h
    q = -pivot_row[col]
    # sign(q) (q row_k + f row_j) = |q| row_k + f (sign(q) row_j)
    if q > 0:
        step, step_row, h_row = q, pivot_row, [-b for b in pivot_row]
    else:
        step, step_row, h_row = -q, [-b for b in pivot_row], pivot_row
    unit = step == scale == 1
    new_rows = []
    for k, row in enumerate(rows):
        if k == j:
            continue
        f = row[col]
        if not f:
            new_rows.append(row if step == scale else [step * a // scale for a in row])
        elif not unit:
            new_rows.append([(step * a + f * b) // scale for a, b in zip(row, step_row)])
        elif f * f == 1:
            new_rows.append(list(map(add if f > 0 else sub, row, step_row)))
        else:
            new_rows.append([a + f * b for a, b in zip(row, step_row)])
    tight, pos = _swap(tight, j, h)
    new_rows.insert(pos, h_row)
    sign = (-1 if d > 0 else 1) * (-1 if (pos - j) % 2 else 1)
    return tight, sign * q, new_rows


def _point(xnum, scale):
    """The point X / scale, with integer coordinates as int."""
    if scale == 1:
        return tuple(xnum)
    return tuple(c // scale if c % scale == 0 else Fraction(c, scale) for c in xnum)


def _entering(slack, rates, cols):
    """The facet that enters along an edge, facet i's slack and rate read at
    column cols[i] of the slack row and of the edge's row: of the facets
    whose rate is negative, the one at the least ratio slack / -rate, the
    smallest on a tie, or None if no rate is negative.  The walk passes its
    tableau rows unsliced, with cols n..n + m - 1."""
    # with r and best_r negative, s / -r < best_s / -best_r reads as below;
    # the start 1 / 0 ranks after every ratio
    h, best_s, best_r = None, 1, 0
    for i in cols:
        r = rates[i]
        if r < 0 and slack[i] * best_r > best_s * r:
            h, best_s, best_r = i, slack[i], r
    return None if h is None else h - cols.start


def _first_vertex(p):
    """The tableau (see _pivot) of a vertex of P, by pivots from the
    coordinate frame.

    The frame is the vertex 0 of n virtual facets -n..-1, the coordinate
    hyperplanes, with unit edges and det 1: its rates are lam_i[k] and its
    slacks -a_i.  Phase 0 swaps each virtual facet for the first facet with
    a nonzero rate along its edge; an edge with none is orthogonal to every
    normal, so the normals do not span.  With m < n facets that happens
    within m + 1 swaps, all in the first m + 1 coordinates, so the frame has
    only those.  Phase 1 raises the sum of the negative slacks by Bland's
    rule (Bland 1977): the first tight facet whose edge raises it leaves,
    and of the feasible facets whose slack falls along that edge and the
    infeasible ones whose slack rises, the one at the least ratio enters
    (see _entering).  If no edge raises the sum, it is negative on the whole
    cone of the edges, which holds P, so P is empty.  Phase 1 gives up after
    VERTEX_SEARCH_BUDGET pivots.
    """
    n = p.dim
    k = min(n, len(p.facets) + 1)
    rows = [[int(i == r) for i in range(k)] + [lam[r] for lam in p.normals]
            for r in range(k)]
    rows.append([0] * k + [-a for a in p.offsets])
    tableau = (tuple(range(-k, 0)), 1, rows)
    for _ in range(k):
        # the virtual facets sort first, so the next one is at position 0
        row = tableau[2][0]
        h = next((i for i, rate in enumerate(row[k:]) if rate), None)
        if h is None:
            edge = row[:k] + [0] * (n - k)
            g = gcd(*edge)
            if next(c for c in edge if c) < 0:
                g = -g
            raise UnboundedError("normals do not span; direction %s is unbounded"
                                 % (tuple(c // g for c in edge),))
        tableau = _pivot(tableau, 0, h)
    pivots = 0
    while True:
        rows = tableau[2]
        slack = rows[n][n:]
        short = [i for i, s in enumerate(slack) if s < 0]
        if not short:
            return tableau
        j = next((j for j in range(n) if sum(rows[j][n + i] for i in short) > 0), None)
        if j is None:
            raise InputError("inequality system has no solution (empty polytope)")
        if pivots == VERTEX_SEARCH_BUDGET:
            raise BudgetError("no vertex found after %d phase-one pivots; the search "
                              "limit is %d" % (pivots, VERTEX_SEARCH_BUDGET))
        # |slack|, rates negated where infeasible: the first slack to reach 0 enters
        h = _entering([abs(s) for s in slack],
                      [-r if s < 0 else r for s, r in zip(slack, rows[j][n:])],
                      range(len(slack)))
        tableau = _pivot(tableau, j, h)
        pivots += 1


@derived
def enumerate_vertices(p):
    """All vertex charts, sorted by vertex coordinates, in one ChartTable:
    a polygon's by an angular sort (see _planar), any other input's by the
    pivot walk (see _walk), which alone judges what fails.  Either way P is
    bounded, each vertex on exactly n facets with independent normals and
    each edge of positive length, so any k facets through a vertex cut out
    a face of dimension n - k on no other facet."""
    charts = _planar(p) if p.dim == 2 else None
    return _walk(p) if charts is None else charts


def _planar(p):
    """A polygon's ChartTable in O(m log m), or None for the walk to judge.

    The facets are sorted exactly by the angle of their normals in
    [0, 2 pi): by half plane, then by a cross product.  Corner k is on the
    k-th and the next facet, a and b, by Cramer's rule with d = cross(a, b).
    If every d > 0 and every edge runs forward (corner k has slack > 0 on
    the facet before a), the corners bound a convex polygon that turns once
    (Preparata and Shamos 1985), so P is bounded, simple and irredundant,
    and the walk's own BudgetError is raised here above WALK_BUDGET corners.
    """
    normals, offsets = p.normals, p.offsets
    lower = [y < 0 or y == 0 > x for x, y in normals]
    ring = sorted(range(len(normals)), key=cmp_to_key(lambda i, j: lower[i] - lower[j] or (
        normals[j][0] * normals[i][1] - normals[j][1] * normals[i][0])))
    charts = []
    for z, a, b in zip(ring[-1:] + ring, ring, ring[1:] + ring[:1]):
        (ax, ay), (bx, by), oa, ob = normals[a], normals[b], offsets[a], offsets[b]
        d, x = ax * by - ay * bx, (oa * by - ob * ay, ax * ob - oa * bx)
        if d <= 0 or x[0] * normals[z][0] + x[1] * normals[z][1] <= offsets[z] * d:
            return None
        mu = ((by, -bx), (-ay, ax)) if d == 1 else None  # rows dual to a and b
        s = 1 if a < b else -1  # Lambda's columns in facet-set order
        charts.append(VertexChart(_point(x, d), (a, b)[::s], s * d, mu and mu[::s]))
    if len(charts) > WALK_BUDGET:
        raise BudgetError("vertex walk reached %d charts with more to visit; "
                          "the limit is %d" % (WALK_BUDGET, WALK_BUDGET))
    return ChartTable(sorted(charts, key=lambda c: c.vertex))


def _walk(p):
    """The ChartTable of enumerate_vertices by an exact pivot walk.

    From a first vertex found by phase-one pivots (see _first_vertex), an
    exact pivot walk follows the edges of the vertex graph, which is
    connected (Balinski): along e_j the facet _entering names is tight at
    the neighbour, whose integer tableau is pivoted (see _pivot) from the
    one that pushed it, when popped; no determinant is eliminated.  Each
    popped vertex is judged once: on more than n facets it raises
    NotSimpleError.  An edge no facet blocks is a ray, named only when the
    walk has ended, so the verdicts come in one order whatever the facet
    order: normals that span, nonempty (both in _first_vertex), simple,
    bounded.  The walk gives up before it builds more than WALK_BUDGET
    charts, rays or not.

    The edge back to the vertex a chart was pivoted from is not
    ratio-tested: along it the facet that entered leaves, the facet that
    left enters (the parent was judged simple, so no other ties), and the
    parent is already charted.  So V vertices cost V - 1 pivots and
    n + (V - 1)(n - 1) ratio tests.  Charts and the queue are keyed by the
    bit mask of the facet set, so a neighbour's key is the mask with the
    leaving facet's bit cleared and the entering facet's set: its sorted
    facet set is made only by _pivot, once per vertex pivoted, and a ratio
    test reads the tableau rows in place.
    """
    n = p.dim
    cols = range(n, n + len(p.facets))
    first = _first_vertex(p)
    charts, ray = {}, None
    # lazy pivots: (neighbour's facet mask, tableau it is pivoted from, edge,
    # entering facet), the entering facet leaving along the neighbour's edge back
    queue = [(sum(1 << i for i in first[0]), first, None, None)]
    while queue:
        key, tableau, j, back = queue.pop()
        if key in charts:
            continue
        if len(charts) == WALK_BUDGET:
            raise BudgetError("vertex walk reached %d charts with more to visit; "
                              "the limit is %d" % (len(charts), WALK_BUDGET))
        if j is not None:
            tableau = _pivot(tableau, j, back)
        tight, d, rows = tableau
        scale = abs(d)
        x_row = rows[n]
        vertex = _point(x_row[:n], scale)
        slack = x_row[n:]
        if slack.count(0) > n:
            raise NotSimpleError(vertex, tuple(i for i, s in enumerate(slack) if s == 0))
        mu = tuple([tuple(r[:n]) for r in rows[:n]]) if scale == 1 else None
        charts[key] = VertexChart(vertex, tight, d, mu)
        for j in range(n):
            if tight[j] == back:
                continue
            h = _entering(x_row, rows[j], cols)
            if h is None:
                ray = ray or rows[j][:n]
                continue
            nbr = key ^ (1 << tight[j]) | (1 << h)
            if nbr not in charts:
                queue.append((nbr, tableau, j, h))
    if ray:
        g = gcd(*ray)
        raise UnboundedError("recession cone contains direction %s"
                             % (tuple(c // g for c in ray),))
    return ChartTable(sorted(charts.values(), key=lambda c: c.vertex))


def validate(p):
    """Full input check: bounded, simple, full-dimensional, irredundant.

    enumerate_vertices certifies all but irredundancy (see its docstring),
    and a facet that supports a face supports one of dimension n - 1, so
    what is left, and judged last, is that every facet lies in some chart.  Returns
    the vertex charts on success so callers do not recompute them.
    """
    charts = enumerate_vertices(p)
    used = {i for c in charts for i in c.facet_set}
    for i in range(len(p.facets)):
        if i not in used:
            raise InputError("facet %d is redundant (supports no face)" % i)
    return charts


def require_delzant(charts):
    """The Delzant gate: raise InputError naming the first vertex whose
    incident normals are not a lattice basis (|det Lambda_p| != 1), as the
    chart table's verdict has it."""
    c = charts.non_delzant
    if c is not None:
        raise InputError("polytope is not Delzant: vertex %s has det %d" % (c.vertex, c.det))


def charge_faces(vertices, n):
    """Raise BudgetError if the face order of a simple polytope with this
    many vertices in dimension n may exceed FACE_BUDGET pairs: a vertex is
    on C(n, d) faces of dimension d, each with d + 1 vertices or more and
    2^(n-d) faces above it, so V vertices give at most
    V (3^(n+1) - 2^(n+1)) / (n + 1) pairs, exactly that many for a simplex."""
    pairs = vertices * (3 ** (n + 1) - 2 ** (n + 1)) // (n + 1)
    if pairs > FACE_BUDGET:
        raise BudgetError("face order may hold about %d pairs (%d vertices in dimension "
                          "%d), over the limit of %d" % (pairs, vertices, n, FACE_BUDGET))


def face_lattice(p):
    """P's chart table, its face lattice (ChartTable.faces), kept only for perfbench/replay.py."""
    return enumerate_vertices(p)


def h_vector(fl):
    """h-vector from fl's f-vector (fl a chart table): expand sum_i f_i (t-1)^i."""
    coeffs = [0] * len(fl.f_vector)
    for i, fi in enumerate(fl.f_vector):
        for j in range(i + 1):
            coeffs[j] += fi * comb(i, j) * ((-1) ** (i - j))
    return HVector(coeffs[::-1])


def signature_from_h(hv):
    """Alternating sum h_0 - h_1 + ... = (-1)^n h_P(-1)."""
    return sum(((-1) ** k) * hk for k, hk in enumerate(hv.h))


@derived
def volume(p):
    """Exact Euclidean volume by the pyramid recursion (Lasserre 1983).

    Pulled from its least vertex b, a face F of dimension d is cut into
    pyramids over its facets G = F n H_i off b.  Measure F by the d-form
    whose contraction with a z in F's direction with <z, lam_i> = 1 is G's
    form; P's is the Euclidean one, a vertex v's is 1 / |det Lambda_v|, and
    b's height over G is its slack <b, lam_i> - a_i.  So with D and L the
    lcms of the vertex denominators and of the |det Lambda_v|, the integer
    V(F) = d! D^d L vol F is L / |det Lambda_v| at a vertex and
    sum_G (<D b, lam_i> - D a_i) V(G) above, once per face, each reached by
    its facet set with its vertices in chart order, G's those of F on facet
    i.  No face lattice or determinant is read and no chart need be Delzant;
    the face budget bounds the steps, one per vertex of F, that find facets.
    """
    charts = enumerate_vertices(p)
    charge_faces(len(charts), p.dim)
    scale = lcm(*(x.denominator for c in charts for x in c.vertex))
    unit = lcm(*(abs(c.det) for c in charts))
    points = [tuple(int(x * scale) for x in c.vertex) for c in charts]
    known = {c.facet_set: unit // abs(c.det) for c in charts}  # facet set: V(F)

    def measure(fs, verts):
        if fs not in known:
            below = {}  # facet through a vertex of F: the vertices of F on it
            for w in verts:
                for i in charts[w].facet_set:
                    below.setdefault(i, []).append(w)
            base, total = points[verts[0]], 0
            for i in below.keys() - fs:
                height = sum(map(mul, base, p.normals[i])) - scale * p.offsets[i]
                if height:
                    total += height * measure(tuple(sorted(fs + (i,))), below[i])
            known[fs] = total
        return known[fs]

    return Fraction(measure((), range(len(charts))), factorial(p.dim) * scale ** p.dim * unit)


def induce_face_polytope(p, face):
    """A proper face as a lattice polytope in its own integral affine chart.

    The chart is anchored at the face's earliest-chart vertex.  Its basis
    is the rows of that vertex's M_p dual to the facets not through the
    face: they are orthogonal to the face's normals, and since M_p is
    unimodular they are a basis of the lattice points of the face's span.
    So lattice points of the face correspond bijectively to lattice points
    of the result, whose facets are cut by those through a vertex of the
    face and not through it.  The base vertex must be Delzant.  Only
    perfbench/replay.py calls it, until a benchmark change repoints the
    replay (ROADMAP item 9).
    """
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
    for i in sorted({i for w in face.vertices for i in charts[w].facet_set}
                    .difference(face.facet_set)):
        lam, a = p.facets[i]
        nu = tuple(dot(b, lam) for b in basis)
        off = a - dot(base, lam)
        g = gcd(*nu)
        if g == 0 or off % g:
            raise InputError("induced facet from %d is not integral" % i)
        new_facets.append((tuple(x // g for x in nu), off // g))
    label = "%s/face%s" % (p.name or "polytope", "-".join(map(str, face.facet_set)))
    return HPolytope(face.dim, new_facets, name=label)
