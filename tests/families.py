"""Polytope families shared by the tests.

Every generator is deterministic; those that draw random choices take a
seeded random.Random, so a test's cases are fixed by its seed.  The bundled
corpus is read from its files, corpus/*.json, which are its only source.
"""

import functools
import json
import os
import random
from math import gcd

from oracles import _cofactor_inverse
from toricpick.cli import load_polytope
from toricpick.exact import det, dot
from toricpick.polytope import HPolytope

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(os.path.dirname(HERE), "corpus")
P112 = os.path.join(HERE, "data", "p112.json")

# the bundled Delzant polytopes, in the fixed order of reports and golden file
CORPUS_NAMES = ("interval1", "interval2", "interval5", "square1", "square2",
                "rect2x3", "triangle1", "triangle2", "triangle3", "hirzebruch",
                "cube1", "simplex3_1", "simplex3_2", "prism")


def dump_polytope(p):
    """Serialize a polytope to the input file format, one facet per line."""
    lines = ["{"]
    if p.name is not None:
        lines.append('  "name": %s,' % json.dumps(p.name))
    lines.append('  "dim": %d,' % p.dim)
    lines.append('  "facets": [')
    rows = ['    {"normal": %s, "offset": %d}' % (json.dumps(list(normal)), offset)
            for normal, offset in p.facets]
    lines.append(",\n".join(rows))
    lines.extend(["  ]", "}"])
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def get(name):
    """The bundled polytope corpus/<name>.json."""
    return load_polytope(os.path.join(CORPUS_DIR, name + ".json"))


def box(lows, highs, name=None):
    """The box lows_i <= x_i <= highs_i, lower facets first."""
    n = len(lows)
    facets = [(tuple(int(j == i) for j in range(n)), a) for i, a in enumerate(lows)]
    facets += [(tuple(-int(j == i) for j in range(n)), -b) for i, b in enumerate(highs)]
    return HPolytope(n, facets, name=name)


def cube(n):
    return box((0,) * n, (1,) * n, name="cube%d" % n)


def simplex(n, k=1):
    """The standard n-simplex dilated by k."""
    facets = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    return HPolytope(n, facets + [((-1,) * n, -k)], name="simplex%d" % n)


def weighted_simplex(weights, k):
    """{x >= 0, <x, weights> <= k}: vertices k / w_i e_i, rational unless
    w_i divides k, and |det Lambda| = w_i at the vertex off facet i."""
    n = len(weights)
    facets = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    return HPolytope(n, facets + [(tuple(-w for w in weights), -k)])


def times(p, q, name=None):
    facets = [(lam + (0,) * q.dim, a) for lam, a in p.facets]
    facets += [((0,) * p.dim + lam, a) for lam, a in q.facets]
    return HPolytope(p.dim + q.dim, facets, name=name)


def simplex2_squared():
    return times(simplex(2), simplex(2, 2), name="simplex2xsimplex2")


def dilate(p, k):
    return HPolytope(p.dim, [(lam, k * a) for lam, a in p.facets])


def _blow_up(ring, j, depth):
    """The facet that cuts the corner between ring[j] and its successor:
    (lam_j + lam_k, a_j + a_k + depth), a blow-up, so a Delzant polygon stays
    Delzant while both edges at the corner are longer than depth."""
    (lj, aj), (lk, ak) = ring[j], ring[(j + 1) % len(ring)]
    return (lj[0] + lk[0], lj[1] + lk[1]), aj + ak + depth


def corner_cut_polygon(facet_count, side, rng=None):
    """A square of the given side with corners cut until it has
    `facet_count` facets.  The corner cut is one whose shorter edge is
    longest; the cut takes c, a third of that edge, from both edges there
    and adds an edge of lattice length c.  With rng, ties are broken at
    random and the facets come back in shuffled order; without, the first
    such corner is cut and the facets stay in cyclic order."""
    ring = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -side), ((0, -1), -side)]
    length = [side] * 4  # lattice length of the edge on each facet
    while len(ring) < facet_count:
        j = max(range(len(ring)), key=lambda j: (min(length[j], length[(j + 1) % len(ring)]),
                                                 rng.random() if rng else 0))
        k = (j + 1) % len(ring)
        c = min(length[j], length[k]) // 3
        length[j] -= c
        length[k] -= c
        ring.insert(j + 1, _blow_up(ring, j, c))
        length.insert(j + 1, c)
    if rng is not None:
        rng.shuffle(ring)
    return HPolytope(2, ring, name="polygon%d" % facet_count)


def cut_octagon(cuts):
    """A square of side 40 with its 4 corners cut at depth 8, then `cuts`
    of the octagon's corners cut at depth 2, facets in cyclic order."""
    ring = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -40), ((0, -1), -40)]
    # descending positions, so each cut leaves the earlier corners in place
    for pos in (3, 2, 1, 0):
        ring.insert(pos + 1, _blow_up(ring, pos, 8))
    for pos in reversed(range(cuts)):
        ring.insert(pos + 1, _blow_up(ring, pos, 2))
    return HPolytope(2, ring, name="polygon%d" % len(ring))


def unimodular_transform(p, u_rows, shift):
    """Image polytope under x -> U x + t for U of det +-1, given by rows,
    and integer t.

    Normals map by the inverse transpose, U^-1 = det(U) adj(U) (a cofactor
    inverse), and offsets pick up <t, lam'>, so the new system cuts out
    exactly the image point set.
    """
    d = det(u_rows)
    if d not in (1, -1):
        raise ValueError("U is not unimodular (det = %d)" % d)
    inverse = _cofactor_inverse(u_rows, d)
    facets = []
    for lam, a in p.facets:
        lam2 = tuple(dot(col, lam) for col in zip(*inverse))
        facets.append((lam2, a + dot(shift, lam2)))
    return HPolytope(p.dim, facets, name=p.name)


def random_shear(n, rng, steps_per_dim=3, coeffs=(-2, -1, 1, 2)):
    """A unimodular matrix, as rows: the identity after steps_per_dim * n
    random row additions with multipliers drawn from coeffs."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps_per_dim * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return rows


def shear(p, rng):
    """p under a random shear of 2n row additions by +-1, then shifted by
    an integer vector in [-9, 9]^n."""
    u = random_shear(p.dim, rng, 2, (-1, 1))
    shift = tuple(rng.randint(-9, 9) for _ in range(p.dim))
    return unimodular_transform(p, u, shift)


def shuffled(p, rng):
    """p with its facets listed in a random order."""
    facets = list(p.facets)
    rng.shuffle(facets)
    return HPolytope(p.dim, facets, name=p.name)


def weighted_family(rng, max_dim=5):
    """(name, polytope) simple inputs that are not Delzant, with rational
    vertices: a weighted simplex in each dimension 2..max_dim at dilations
    1, 5 and 12, weights drawn from 1..7 with gcd 1, then the product of
    each with the next and with a triangle, then a unimodular shear of
    every one of these."""
    simplices = []
    for n in range(2, max_dim + 1):
        for k in (1, 5, 12):
            w = [rng.randint(1, 7) for _ in range(n)]
            if gcd(*w) != 1:
                w[rng.randrange(n)] = 1
            simplices.append(("weighted%s (%d)" % (tuple(w), k), weighted_simplex(w, k)))
    out = simplices + [("%s x %s" % (a, b), times(p, q))
                       for (a, p), (b, q) in zip(simplices, simplices[1:])]
    out += [("%s x triangle2" % a, times(p, get("triangle2"))) for a, p in simplices]
    for a, p in list(out):
        shift = tuple(rng.randint(-9, 9) for _ in range(p.dim))
        out.append(("%s sheared" % a, unimodular_transform(p, random_shear(p.dim, rng), shift)))
    return out


def delzant_family(max_dim=8):
    """(name, polytope) Delzant inputs up to max_dim: the corpus, cubes and
    dilated simplices, products, dilations, unimodular images, corner-cut
    polygons and shuffled facet orders."""
    rng = random.Random(53)
    out = [(name, get(name)) for name in CORPUS_NAMES]
    out += [("cube%d" % n, cube(n)) for n in range(4, 9)]
    out += [("simplex%d (%d)" % (n, k), simplex(n, k)) for n in range(4, 9) for k in (1, 2)]
    out += [("simplex2 x simplex2", simplex2_squared()),
            ("hirzebruch x prism", times(get("hirzebruch"), get("prism"))),
            ("prism x prism", times(get("prism"), get("prism")))]
    for name in ("hirzebruch", "prism", "simplex3_2"):
        out.append(("%s dilated 3" % name, dilate(get(name), 3)))
        out.append(("%s sheared" % name, shear(get(name), rng)))
    out += [("polygon%d" % k, corner_cut_polygon(k, 120, rng)) for k in (8, 20)]
    out += [("%s shuffled" % name, shuffled(p, rng))
            for name, p in (("cube4", cube(4)),
                            ("prism x triangle2", times(get("prism"), get("triangle2"))))]
    return [(name, p) for name, p in out if p.dim <= max_dim]
