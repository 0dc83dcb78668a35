"""Brute-force lattice point enumeration and the weighted face sums.

Counting walks the integer bounding box and assigns each point to the face
whose relative interior contains it (the face cut out by the inequalities
tight at the point).  This route shares no machinery with the localization
engine it is used to validate.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, floor

from .errors import DimensionError
from .exact import dot
from .polytope import enumerate_vertices, face_lattice


class FaceCounts:
    """Closed and relative-interior lattice point counts for every face."""

    def __init__(self, lattice, closed, relint):
        self.lattice = lattice
        self.closed = dict(closed)
        self.relint = dict(relint)

    @property
    def total(self):
        """Number of lattice points of the whole polytope."""
        return self.closed[self.lattice.top]

    def closed_by_dim(self, d):
        return sum(self.closed[i] for i in self.lattice.faces_of_dim(d))

    def relint_by_dim(self, d):
        return sum(self.relint[i] for i in self.lattice.faces_of_dim(d))


@lru_cache(maxsize=None)
def count_points(p):
    """Enumerate integer points of the bounding box and classify by face."""
    fl = face_lattice(p)
    charts = enumerate_vertices(p)
    n = p.dim
    lo = [floor(min(c.vertex[k] for c in charts)) for k in range(n)]
    hi = [ceil(max(c.vertex[k] for c in charts)) for k in range(n)]
    by_facet_set = {frozenset(f.facet_set): i for i, f in enumerate(fl.faces)}
    relint = {i: 0 for i in range(len(fl.faces))}
    for point in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        tight = []
        feasible = True
        for i, (lam, a) in enumerate(p.facets):
            slack = dot(point, lam) - a
            if slack < 0:
                feasible = False
                break
            if slack == 0:
                tight.append(i)
        if feasible:
            relint[by_facet_set[frozenset(tight)]] += 1
    closed = {}
    for fid in range(len(fl.faces)):
        closed[fid] = sum(relint[g] for g in fl.subfaces(fid))
    return FaceCounts(fl, closed, relint)


def weighted_sum_closed(fc):
    """Closed-count formulation: #(P) + sum_k (-1/2)^k sum_{dim F = n-k} #(F)."""
    n = fc.lattice.dim
    total = Fraction(fc.total)
    for k in range(1, n + 1):
        total += Fraction(-1, 2) ** k * fc.closed_by_dim(n - k)
    return total


def weighted_sum_relint(fc):
    """Interior formulation: relint(P) + sum_k (1/2)^k over faces of codim k."""
    n = fc.lattice.dim
    total = Fraction(fc.relint_by_dim(n))
    for k in range(1, n + 1):
        total += Fraction(1, 2) ** k * fc.relint_by_dim(n - k)
    return total


def pick_rhs_3d(fc):
    """Int + Fac/2 + Edg/4 + Vert/8 from relative-interior counts; 3D only."""
    if fc.lattice.dim != 3:
        raise DimensionError("the tetrahedron-style sum is defined in dimension 3")
    return (Fraction(fc.relint_by_dim(3))
            + Fraction(fc.relint_by_dim(2), 2)
            + Fraction(fc.relint_by_dim(1), 4)
            + Fraction(fc.relint_by_dim(0), 8))
