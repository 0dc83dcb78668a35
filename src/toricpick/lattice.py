"""Exact lattice point counting by fibers and the weighted face sums.

Counting walks the integer box of every coordinate but the widest one, k.
Along each such fiber facet i reads s_i + lam_i[k] x_k >= 0, so the lattice
points of P on it form one integer interval, found by floor division.  A
facet with lam_i[k] != 0 is tight at one x_k at most; only those points need
their own lookup, and the rest of the fiber belongs to the face of the facets
with lam_i[k] = 0 that are tight along all of it.  Each point is credited to
the face whose relative interior contains it (the face cut out by the facets
tight at the point).  This route shares no machinery with the localization
engine it is used to validate.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, floor
from operator import mul

from .errors import BudgetError
from .polytope import enumerate_vertices, face_lattice

# most fiber-facet steps (fibers x facets) one count may take; at about
# 1 us a step that is some 10 s
COUNT_BUDGET = 10 ** 7


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


@lru_cache(maxsize=256)
def count_points(p):
    """Count lattice points fiber by fiber and classify each by its face.

    Raises BudgetError, before any walking, when the fibers times the
    facets exceed COUNT_BUDGET.
    """
    fl = face_lattice(p)
    charts = enumerate_vertices(p)
    n, m = p.dim, len(p.facets)
    lo = [floor(min(c.vertex[j] for c in charts)) for j in range(n)]
    hi = [ceil(max(c.vertex[j] for c in charts)) for j in range(n)]
    k = max(range(n), key=lambda j: hi[j] - lo[j])  # the first of the widest
    others = [j for j in range(n) if j != k]
    fibers = 1
    for j in others:
        fibers *= hi[j] - lo[j] + 1
    if fibers * m > COUNT_BUDGET:
        raise BudgetError("lattice count needs about %d fiber-facet steps "
                          "(%d fibers x %d facets), over the limit of %d"
                          % (fibers * m, fibers, m, COUNT_BUDGET))
    rows = [(i, tuple(lam[j] for j in others), lam[k], a)
            for i, (lam, a) in enumerate(p.facets)]
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
                relint[fl.face_id[tuple(sorted(whole + extra))]] += 1
            plain = high - low + 1 - len(tight_at)
            if plain:
                relint[fl.face_id[tuple(whole)]] += plain
    # each point is in the closure of every face above its own
    closed = [0] * len(fl.faces)
    for gid, c in enumerate(relint):
        if c:
            for fid in fl.above(gid):
                closed[fid] += c
    return FaceCounts(fl, enumerate(closed), enumerate(relint))


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
