"""Seeded input generator for the benchmark, with closed-form references.

Builds Delzant polytopes as facet inequalities <x, lam_i> >= a_i from
dilated simplices, boxes, products of those, and polygons obtained from a
dilated triangle by corner blow-ups, then moves them by unimodular shears
and translations.  Nothing here imports toricpick: every reference value is
known from the construction, so the program's output can be checked
against it.

Reference keys of a ``Poly`` (all invariant under shear and translation):

    count     lattice points                C(n+k, n), k+1, multiplied over products
    weighted  sum over faces of relint(F) / 2^codim(F) (Pick-type count)
    volume    Euclidean volume               k^n/n!, minus d^2/2 per corner cut
    vertices  vertex count = Euler characteristic = top Chern number c_n
    f, h      f-vector and h-vector          polynomial products over factors
    face_sum  sum over all faces of their closed lattice counts
    gysin0    self-intersection D_0^n of facet 0, where known in closed form
"""

import random
from fractions import Fraction
from math import comb, factorial


class Poly:
    """A polytope in the program's input format plus its reference values."""

    def __init__(self, name, dim, facets, ref, chern, vertices):
        self.name = name
        self.dim = dim
        self.facets = [(tuple(nrm), off) for nrm, off in facets]
        self.vertices = [tuple(v) for v in vertices]
        self.ref = ref
        # chern: function partition -> Chern number, or None where unknown
        self.chern = chern

    def to_dict(self):
        return {"name": self.name, "dim": self.dim,
                "facets": [{"normal": list(nrm), "offset": off}
                           for nrm, off in self.facets]}

    def moved(self, facets, vertices):
        return Poly(self.name, self.dim, facets, self.ref, self.chern, vertices)

    def box_points(self):
        """Integer points of the bounding box, the lattice walk's search space."""
        return _box_points(self.vertices)


def _box_points(vertices):
    out = 1
    for coords in zip(*vertices):
        out *= max(coords) - min(coords) + 1
    return out


def _apply(u, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in u)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def simplex(n, k, name=None):
    """{x >= 0, sum x <= k}: the dilated standard simplex (CP^n)."""
    facets = [(tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)]
    facets.append((tuple(-1 for _ in range(n)), -k))
    ref = {
        "count": comb(n + k, n),
        "weighted": sum(Fraction(comb(n + 1, j + 1) * comb(k - 1, j), 2 ** (n - j))
                        for j in range(n + 1)),
        "volume": Fraction(k ** n, factorial(n)),
        "vertices": n + 1,
        "f": tuple(comb(n + 1, j + 1) for j in range(n + 1)),
        "h": (1,) * (n + 1),
        "face_sum": sum(comb(n + 1, j + 1) * comb(j + k, j) for j in range(n + 1)),
        "gysin0": 1,
    }

    def chern(omega):
        # c(CP^n) = (1 + H)^(n+1) and <H^n> = 1
        out = 1
        for w in omega:
            out *= comb(n + 1, w)
        return out
    vertices = [(0,) * n] + [tuple(k if j == i else 0 for j in range(n)) for i in range(n)]
    return Poly(name or "simplex%d_k%d" % (n, k), n, facets, ref, chern, vertices)


def box(sides, name=None):
    """{0 <= x_i <= k_i}: lower facets first, then upper ones ((P^1)^n)."""
    n = len(sides)
    facets = [(tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)]
    facets += [(tuple(-1 if j == i else 0 for j in range(n)), -k)
               for i, k in enumerate(sides)]
    count, volume, face_sum, f, h = 1, 1, 1, (1,), (1,)
    for k in sides:
        count *= k + 1
        volume *= k
        face_sum *= k + 3
        f = _poly_mul(f, (2, 1))
        h = _poly_mul(h, (1, 1))
    weighted = Fraction(volume)  # per side: (k - 1) + 2 * 1/2 = k
    ref = {"count": count, "weighted": weighted, "volume": Fraction(volume),
           "vertices": 2 ** n, "f": f, "h": h, "face_sum": face_sum,
           "gysin0": 1 if n == 1 else 0}

    def chern(omega):
        # c = prod (1 + 2 h_i), h_i^2 = 0: c_omega = 2^n n! / prod omega_j!
        out = 2 ** n * factorial(n)
        for w in omega:
            out //= factorial(w)
        return out
    label = "x".join(str(k) for k in sides)
    vertices = [()]
    for k in sides:
        vertices = [v + (x,) for v in vertices for x in (0, k)]
    return Poly(name or "box%s" % label, n, facets, ref, chern, vertices)


def product(p, q, name=None):
    """P x Q: facets of P (padded right) then facets of Q (padded left)."""
    n = p.dim + q.dim
    facets = [(tuple(nrm) + (0,) * q.dim, off) for nrm, off in p.facets]
    facets += [((0,) * p.dim + tuple(nrm), off) for nrm, off in q.facets]
    a, b = p.ref, q.ref
    ref = {
        "count": a["count"] * b["count"],
        "weighted": a["weighted"] * b["weighted"],
        "volume": a["volume"] * b["volume"],
        "vertices": a["vertices"] * b["vertices"],
        "f": _poly_mul(a["f"], b["f"]),
        "h": _poly_mul(a["h"], b["h"]),
        "face_sum": a["face_sum"] * b["face_sum"],
        "gysin0": 0,  # pull-back of a divisor from a lower-dimensional factor
    }

    def chern(omega):
        # only the top class is multiplicative in closed form here
        if tuple(omega) == (n,):
            return ref["vertices"]
        return None
    vertices = [v + w for v in p.vertices for w in q.vertices]
    return Poly(name or "%s*%s" % (p.name, q.name), n, facets, ref, chern, vertices)


def blown_up_polygon(k, facets_wanted, rng):
    """Dilated triangle with corner cuts until it has facets_wanted edges.

    Cutting the vertex between consecutive normals a, b by the normal a + b
    at depth d keeps the polygon Delzant (det(a, a+b) = det(a+b, b) =
    det(a, b)); it needs d below both adjacent lattice edge lengths, removes
    d(d+1)/2 lattice points and d^2/2 area, and adds an edge of length d.
    """
    for _ in range(1000):
        cut = _cut_corners(k, facets_wanted, rng)
        if cut is not None:
            break
    else:
        raise ValueError("no %d-gon from triangle %d by corner cuts" % (facets_wanted, k))
    edges, depths = cut
    count = comb(k + 2, 2) - sum(d * (d + 1) // 2 for d in depths)
    area = Fraction(k * k, 2) - sum(Fraction(d * d, 2) for d in depths)
    m = len(edges)
    perimeter = sum(e[2] for e in edges)
    # facet 0 first as given by the cut order; self-intersection from
    # u_{i-1} + u_{i+1} = -b_i u_i
    prev_n, cur_n, next_n = edges[-1][0], edges[0][0], edges[1][0]
    s = (prev_n[0] + next_n[0], prev_n[1] + next_n[1])
    comp = 0 if cur_n[0] != 0 else 1
    gysin0 = -s[comp] // cur_n[comp]
    ref = {
        "count": count,
        "weighted": count - Fraction(perimeter, 2) - Fraction(m, 4),
        "volume": area,
        "vertices": m,
        "f": (m, m, 1),
        "h": (1, m - 2, 1),
        "face_sum": count + perimeter + m + m,
        "gysin0": gysin0,
    }

    def chern(omega):
        omega = tuple(omega)
        if omega == (2,):
            return m
        if omega == (1, 1):
            return 12 - m  # Noether: c_1^2 + c_2 = 12 for a rational surface
        return None
    facets = [(e[0], e[1]) for e in edges]
    vertices = [_meet(edges[i], edges[(i + 1) % m]) for i in range(m)]
    return Poly("polygon%d_k%d" % (m, k), 2, facets, ref, chern, vertices)


def _cut_corners(k, facets_wanted, rng):
    """Edges [normal, offset, lattice length] counter-clockwise, and cut depths.

    Cuts go to a vertex whose shorter adjacent edge is among the longest,
    at a third to a half of that length, so the edges stay long enough for
    later cuts; returns None when no vertex can be cut any more.
    """
    edges = [[(0, 1), 0, k], [(-1, -1), -k, k], [(1, 0), 0, k]]
    depths = []
    while len(edges) < facets_wanted:
        m = len(edges)
        room = [min(edges[i][2], edges[(i + 1) % m][2]) for i in range(m)]
        best = max(room)
        if best < 2:
            return None
        i = rng.choice([i for i in range(m) if room[i] >= max(2, best * 2 // 3)])
        j = (i + 1) % m
        d = rng.randint(max(1, room[i] // 3), max(1, room[i] // 2))
        a, b = edges[i][0], edges[j][0]
        vertex = _meet(edges[i], edges[j])
        c = (a[0] + b[0], a[1] + b[1])
        edges[i][2] -= d
        edges[j][2] -= d
        edges.insert(i + 1, [c, c[0] * vertex[0] + c[1] * vertex[1] + d, d])
        depths.append(d)
    return edges, depths


def _meet(e1, e2):
    """Intersection point of two edge lines with unimodular normals."""
    (a1, b1), c1 = e1[0], e1[1]
    (a2, b2), c2 = e2[0], e2[1]
    det = a1 * b2 - a2 * b1
    x = (c1 * b2 - c2 * b1) // det
    y = (a1 * c2 - a2 * c1) // det
    return (x, y)


def hirzebruch():
    """Triangle 2 with the corner at (0, 2) cut at depth 1 (the bundled file)."""
    t = simplex(2, 2)
    facets = list(t.facets) + [((0, -1), -1)]
    m, perimeter = 4, 1 + 2 + 1 + 1
    count = comb(4, 2) - 1
    ref = dict(t.ref, count=count, volume=Fraction(3, 2),
               weighted=count - Fraction(perimeter, 2) - Fraction(m, 4),
               vertices=m, f=(m, m, 1), h=(1, m - 2, 1),
               face_sum=count + perimeter + 2 * m, gysin0=0)

    def chern(omega):
        return {(2,): m, (1, 1): 12 - m}.get(tuple(omega))
    vertices = [(0, 0), (2, 0), (1, 1), (0, 1)]
    return Poly("hirzebruch", 2, facets, ref, chern, vertices)


def bundled_corpus():
    """The fourteen polytopes shipped in corpus/, rebuilt with their references.

    Facet order matches the bundled files, so these are the same inputs.
    """
    polys = [
        box((1, 1, 1), "cube1"),
        hirzebruch(),
        box((1,), "interval1"), box((2,), "interval2"), box((5,), "interval5"),
        product(simplex(2, 1), box((1,)), "prism"),
        box((2, 3), "rect2x3"),
        simplex(3, 1, "simplex3_1"), simplex(3, 2, "simplex3_2"),
        box((1, 1), "square1"), box((2, 2), "square2"),
        simplex(2, 1, "triangle1"), simplex(2, 2, "triangle2"),
        simplex(2, 3, "triangle3"),
    ]
    return polys


# -- moving a polytope: unimodular shears and translations ---------------

def random_shear(n, steps, rng):
    """A product U of `steps` elementary shears I + s e_ij, as (U, U^-1)."""
    u = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    uinv = [row[:] for row in u]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        # U <- (I + s e_ij) U adds s * row j to row i; U^-1 <- U^-1 (I - s e_ij)
        # adds -s * column i to column j
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        for row in uinv:
            row[j] -= s * row[i]
    return u, uinv


def transform(poly, u, uinv, shift):
    """Image under x -> U x + t: normals by U^-T, offsets gain <t, lam'>."""
    n = poly.dim
    facets = []
    for nrm, off in poly.facets:
        lam = tuple(sum(uinv[r][c] * nrm[r] for r in range(n)) for c in range(n))
        facets.append((lam, off + sum(t * x for t, x in zip(shift, lam))))
    vertices = [tuple(x + t for x, t in zip(_apply(u, v), shift)) for v in poly.vertices]
    return poly.moved(facets, vertices)


GROW = (2.0, 3.0)


def sheared(poly, steps, rng):
    """Image of poly under `steps` seeded elementary shears that grow its
    bounding box by a factor in GROW, or the draw closest to that band
    after a fixed number of tries; this keeps the lattice walk's work
    similar from seed to seed."""
    base = poly.box_points()
    lo, hi = GROW
    best = None
    for _ in range(32):
        u, uinv = random_shear(poly.dim, steps, rng)
        factor = _box_points([_apply(u, v) for v in poly.vertices]) / base
        miss = 0 if lo <= factor <= hi else abs(factor - (lo + hi) / 2)
        if best is None or miss < best[0]:
            best = (miss, u, uinv)
        if miss == 0:
            break
    return transform(poly, best[1], best[2], [0] * poly.dim)


class Mover:
    """Hands out distinct translates of polytopes.

    Every call returns a polytope whose facet list no earlier call returned,
    so no operation can reuse another one's cached geometry.
    """

    def __init__(self, rng, spread=99):
        self.rng = rng
        self.spread = spread
        self.seen = set()

    def fresh(self, poly):
        n = poly.dim
        identity = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        spread = self.spread
        while True:
            shift = [self.rng.randint(-spread, spread) for _ in range(n)]
            moved = transform(poly, identity, identity, shift)
            key = (n, tuple(moved.facets))
            if key not in self.seen:
                self.seen.add(key)
                return moved
            spread += 1 + spread // 8  # low dimensions run out of small shifts


def rng_for(seed, label):
    """Independent stream per (seed, label), stable across Python versions."""
    return random.Random("%d/%s" % (seed, label))
