"""Delzant lattice polytopes presented by facet inequalities <x, lam_i> >= a_i.

The H-representation is the primary object: primitive inward normals lam_i
and integer offsets a_i, with facet order fixed by the input.  Vertices,
vertex charts (Lambda_p and its inverse M_p), the face lattice, h-vector,
exact volume and face induction are all derived from it.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .errors import (DimensionError, InputError, NotSimpleError, UnboundedError)
from .exact import (IntMatrix, det, dot, frac_rank, integer_kernel_basis,
                    inverse_unimodular, solve_rational, vector_gcd)


class HPolytope:
    """Lattice polytope {x : <x, lam_i> >= a_i} with primitive inward normals."""

    def __init__(self, dim, facets, name=None):
        dim = int(dim)
        if dim < 1:
            raise InputError("polytope dimension must be at least 1")
        cleaned = []
        seen = set()
        for normal, offset in facets:
            normal = tuple(int(x) for x in normal)
            offset = int(offset)
            if len(normal) != dim:
                raise InputError("normal %s has length %d, expected %d" % (
                    (normal,), len(normal), dim))
            g = vector_gcd(normal)
            if g == 0:
                raise InputError("zero facet normal")
            if g != 1:
                raise InputError("facet normal %s is not primitive (gcd %d)" % ((normal,), g))
            if normal in seen:
                raise InputError("duplicate facet normal %s" % (normal,))
            seen.add(normal)
            cleaned.append((normal, offset))
        if not cleaned:
            raise InputError("polytope needs at least one facet")
        self.dim = dim
        self.facets = tuple(cleaned)
        self.name = name

    @property
    def normals(self):
        return tuple(nrm for nrm, _ in self.facets)

    @property
    def offsets(self):
        return tuple(off for _, off in self.facets)

    def __eq__(self, other):
        return (isinstance(other, HPolytope) and self.dim == other.dim
                and self.facets == other.facets)

    def __hash__(self):
        return hash((self.dim, self.facets))

    def __repr__(self):
        return "HPolytope(dim=%d, facets=%d, name=%r)" % (
            self.dim, len(self.facets), self.name)


class VertexChart:
    """Fixed point data at a vertex.

    lambda_matrix has the incident normals as columns in ascending facet
    order; mu_matrix is its exact integer inverse whenever |det| = 1 (rows
    are the localization weights), and None otherwise.
    """

    def __init__(self, vertex, facet_set, lambda_matrix, lambda_det, mu_matrix):
        self.vertex = tuple(vertex)
        self.facet_set = tuple(facet_set)
        self.lambda_matrix = lambda_matrix
        self.det = lambda_det
        self.mu_matrix = mu_matrix

    def __repr__(self):
        return "VertexChart(vertex=%s, facets=%s, det=%d)" % (
            self.vertex, self.facet_set, self.det)


class Face:
    """A face keyed by the facets containing it; vertices index the charts."""

    def __init__(self, facet_set, dim, vertices):
        self.facet_set = tuple(facet_set)
        self.dim = dim
        self.vertices = tuple(vertices)

    def __repr__(self):
        return "Face(dim=%d, facets=%s)" % (self.dim, self.facet_set)


class FaceLattice:
    """All faces of a simple polytope with the (transitively closed) order."""

    def __init__(self, dim, faces, leq):
        # cached per geometry, and HPolytope equality ignores the name: no polytope here
        self.dim = dim
        self.faces = tuple(faces)
        self.leq = frozenset(leq)
        counts = [0] * (dim + 1)
        for f in self.faces:
            counts[f.dim] += 1
        self.f_vector = tuple(counts)

    def faces_of_dim(self, d):
        return tuple(i for i, f in enumerate(self.faces) if f.dim == d)

    @property
    def top(self):
        return self.faces_of_dim(self.dim)[0]

    def subfaces(self, fid):
        """Ids of all faces below (or equal to) the given one."""
        return tuple(g for g, f in self.leq if f == fid)

    def children(self, fid):
        d = self.faces[fid].dim
        return tuple(g for g in self.subfaces(fid) if self.faces[g].dim == d - 1)


class HVector:
    """h-vector of a simple polytope, h_P(t) = sum_i f_i (t-1)^i."""

    def __init__(self, h):
        self.h = tuple(int(x) for x in h)
        n = len(self.h) - 1
        if self.h[0] != 1 or self.h[n] != 1:
            raise InputError("h-vector must start and end with 1: %s" % (self.h,))
        if any(x < 0 for x in self.h):
            raise InputError("h-vector entries must be nonnegative: %s" % (self.h,))
        if self.h != self.h[::-1]:
            raise InputError("h-vector is not palindromic: %s" % (self.h,))

    @property
    def n(self):
        return len(self.h) - 1

    def polynomial(self, t):
        """Evaluate h_P at an exact argument."""
        n = self.n
        return sum(Fraction(self.h[k]) * Fraction(t) ** (n - k) for k in range(n + 1))

    def __repr__(self):
        return "HVector(%s)" % (self.h,)


class DelzantVerdict:
    """Outcome of the smoothness test; names the first offending vertex."""

    def __init__(self, ok, vertex=None, det_value=None):
        self.ok = ok
        self.vertex = vertex
        self.det = det_value

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "DelzantVerdict(ok=True)"
        return "DelzantVerdict(ok=False, vertex=%s, det=%s)" % (self.vertex, self.det)


def _assert_bounded(p):
    """Reject inputs whose recession cone contains a ray.

    The cone {x : <x, lam_i> >= 0} is trivial iff no ray direction works;
    candidate directions are the integer kernels of (n-1)-subsets of the
    normals, which cover every extreme ray, plus any kernel direction of
    the whole normal set (a line in the cone).
    """
    n = p.dim
    normals = p.normals
    full_kernel = integer_kernel_basis(normals, n)
    if full_kernel:
        raise UnboundedError("normals do not span; direction %s is unbounded"
                             % (full_kernel[0],))

    def in_cone(d):
        return all(dot(d, lam) >= 0 for lam in normals)

    candidates = []
    if n == 1:
        candidates.append((1,))
    else:
        for subset in combinations(range(len(normals)), n - 1):
            kernel = integer_kernel_basis([normals[i] for i in subset], n)
            if len(kernel) == 1:
                candidates.append(kernel[0])
    for d in candidates:
        if in_cone(d):
            raise UnboundedError("recession cone contains direction %s" % (d,))
        neg = tuple(-x for x in d)
        if in_cone(neg):
            raise UnboundedError("recession cone contains direction %s" % (neg,))


@lru_cache(maxsize=None)
def enumerate_vertices(p):
    """All vertex charts, deduplicated by coordinates and sorted by them.

    Every n-subset of facets with independent normals whose intersection
    point satisfies the remaining inequalities yields a vertex; a point
    tight on more than n facets fails the simplicity requirement.
    """
    _assert_bounded(p)
    n = p.dim
    m = len(p.facets)
    seen = {}
    for subset in combinations(range(m), n):
        mat = IntMatrix.from_rows([p.normals[i] for i in subset])
        if det(mat) == 0:
            continue
        x = solve_rational(mat, [p.offsets[i] for i in subset])
        x = tuple(int(c) if c.denominator == 1 else c for c in x)
        tight = []
        feasible = True
        for i, (lam, a) in enumerate(p.facets):
            slack = dot(x, lam) - a
            if slack < 0:
                feasible = False
                break
            if slack == 0:
                tight.append(i)
        if not feasible:
            continue
        if len(tight) > n:
            raise NotSimpleError(x, tight)
        if x not in seen:
            seen[x] = tuple(tight)
    if not seen:
        raise InputError("inequality system has no solution (empty polytope)")
    charts = []
    for x in sorted(seen):
        tight = seen[x]
        lam_mat = IntMatrix.from_columns([p.normals[i] for i in tight])
        d = det(lam_mat)
        mu = inverse_unimodular(lam_mat) if d in (1, -1) else None
        charts.append(VertexChart(x, tight, lam_mat, d, mu))
    return tuple(charts)


def validate(p):
    """Full input check: bounded, simple, full-dimensional, irredundant.

    Returns the vertex charts on success so callers do not recompute them.
    """
    charts = enumerate_vertices(p)
    n = p.dim
    base = charts[0].vertex
    diffs = [tuple(a - b for a, b in zip(c.vertex, base)) for c in charts[1:]]
    if frac_rank(diffs) < n:
        raise InputError("polytope is not full-dimensional")
    for i in range(len(p.facets)):
        pts = [c.vertex for c in charts if i in c.facet_set]
        if not pts:
            raise InputError("facet %d is redundant (supports no face)" % i)
        rel = [tuple(a - b for a, b in zip(q, pts[0])) for q in pts[1:]]
        if frac_rank(rel) != n - 1:
            raise InputError("facet %d is redundant (supports a face of dimension < %d)"
                             % (i, n - 1))
    return charts


def is_delzant(p):
    """Smoothness test: |det Lambda_p| = 1 at every vertex of a simple polytope."""
    charts = enumerate_vertices(p)
    for c in charts:
        if c.det not in (1, -1):
            return DelzantVerdict(False, c.vertex, c.det)
    return DelzantVerdict(True)


@lru_cache(maxsize=None)
def face_lattice(p):
    """Faces of a simple polytope, identified by their vertex sets.

    Every face arises as the intersection of the facets through one of its
    vertices, so running over subsets of each vertex's facet set finds all
    of them.  The canonical facet set of a face is the set of facets
    containing every one of its vertices; its size must be the codimension,
    anything else means the polytope is not simple.
    """
    charts = enumerate_vertices(p)
    n = p.dim
    vertex_facets = [frozenset(c.facet_set) for c in charts]
    points = [c.vertex for c in charts]
    found = {}
    for vid, incident in enumerate(vertex_facets):
        for r in range(n + 1):
            for sub in combinations(sorted(incident), r):
                key = frozenset(w for w, fw in enumerate(vertex_facets)
                                if fw.issuperset(sub))
                if key in found:
                    continue
                found[key] = frozenset.intersection(*(vertex_facets[w] for w in key))
    faces = []
    for verts, canon in found.items():
        dim = n - len(canon)
        pts = [points[w] for w in verts]
        rel = [tuple(a - b for a, b in zip(q, pts[0])) for q in pts[1:]]
        if frac_rank(rel) != dim:
            raise NotSimpleError(pts[0], sorted(canon),
                                 "facet subset %s cuts a face of wrong dimension"
                                 % (sorted(canon),))
        faces.append(Face(sorted(canon), dim, sorted(verts)))
    faces.sort(key=lambda f: (f.dim, f.facet_set))
    leq = set()
    for gi, g in enumerate(faces):
        gset = set(g.vertices)
        for fi, f in enumerate(faces):
            if gset.issubset(f.vertices):
                leq.add((gi, fi))
    return FaceLattice(n, faces, leq)


def h_vector(fl):
    """h-vector from the f-vector: expand sum_i f_i (t-1)^i, read coefficients."""
    n = fl.dim
    coeffs = [0] * (n + 1)
    for i, fi in enumerate(fl.f_vector):
        for j in range(i + 1):
            coeffs[j] += fi * _binom(i, j) * ((-1) ** (i - j))
    return HVector(tuple(coeffs[n - k] for k in range(n + 1)))


def _binom(a, b):
    return factorial(a) // (factorial(b) * factorial(a - b))


def signature_from_h(hv):
    """Alternating sum h_0 - h_1 + ... = (-1)^n h_P(-1)."""
    return sum(((-1) ** k) * hk for k, hk in enumerate(hv.h))


@lru_cache(maxsize=None)
def volume(p):
    """Exact Euclidean volume by fanning a triangulation from a base vertex.

    Facets are triangulated recursively in dimension; each top simplex
    contributes |det of edge matrix| / n!.
    """
    fl = face_lattice(p)
    charts = enumerate_vertices(p)
    points = [c.vertex for c in charts]
    n = p.dim

    def simplices(fid):
        face = fl.faces[fid]
        if face.dim == 0:
            return [(face.vertices[0],)]
        base = min(face.vertices, key=lambda w: points[w])
        out = []
        for gid in fl.children(fid):
            if base in fl.faces[gid].vertices:
                continue
            for s in simplices(gid):
                out.append(s + (base,))
        return out

    total = Fraction(0)
    for s in simplices(fl.top):
        apex = points[s[-1]]
        edges = [tuple(a - b for a, b in zip(points[w], apex)) for w in s[:-1]]
        total += abs(_frac_det(edges))
    return total / factorial(n)


def _frac_det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    sign = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def induce_face_polytope(p, face):
    """A proper face as a lattice polytope in its own integral affine chart.

    The chart is the saturated integer kernel of the facet normals through
    the face (canonical basis rows) anchored at the face's earliest-chart
    vertex, so lattice points of the face correspond bijectively to lattice
    points of the result.
    """
    n = p.dim
    if face.dim == 0:
        raise DimensionError("a vertex needs no chart; use its point directly")
    if face.dim >= n:
        raise DimensionError("face induction expects a proper face")
    fl = face_lattice(p)
    fid = next(i for i, f in enumerate(fl.faces)
               if f.facet_set == face.facet_set and f.dim == face.dim)
    charts = enumerate_vertices(p)
    rows = [p.normals[i] for i in face.facet_set]
    basis = integer_kernel_basis(rows, n)
    if len(basis) != face.dim:
        raise NotSimpleError((), face.facet_set,
                             "face normals have deficient rank")
    base_vid = min(face.vertices, key=lambda w: charts[w].facet_set)
    base = charts[base_vid].vertex
    if any(x.denominator != 1 for x in base):
        raise InputError("face has a non-lattice vertex %s" % (base,))
    base = tuple(int(x) for x in base)
    new_facets = []
    for gid in fl.children(fid):
        extra = set(fl.faces[gid].facet_set) - set(face.facet_set)
        if len(extra) != 1:
            raise NotSimpleError((), fl.faces[gid].facet_set,
                                 "child face adds more than one facet")
        i = extra.pop()
        lam, a = p.facets[i]
        nu = tuple(dot(b, lam) for b in basis)
        off = a - dot(base, lam)
        g = vector_gcd(nu)
        if g == 0 or off % g:
            raise InputError("induced facet from %d is not integral" % i)
        new_facets.append((i, tuple(x // g for x in nu), off // g))
    new_facets.sort()
    label = "%s/face%s" % (p.name or "polytope", "-".join(map(str, face.facet_set)))
    return HPolytope(face.dim, [(nu, off) for _, nu, off in new_facets], name=label)


def unimodular_transform(p, u_matrix, shift):
    """Image polytope under x -> U x + t for unimodular U and integer t.

    Normals map by the inverse transpose and offsets pick up <t, lam'>, so
    the new system cuts out exactly the image point set.
    """
    n = p.dim
    if len(shift) != n:
        raise DimensionError("shift has wrong length")
    uinv = inverse_unimodular(u_matrix)
    facets = []
    for lam, a in p.facets:
        lam2 = tuple(dot(uinv.column(r), lam) for r in range(n))
        facets.append((lam2, a + dot(shift, lam2)))
    return HPolytope(n, facets, name=p.name)
