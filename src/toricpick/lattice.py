"""Exact lattice point counting slab by slab and the weighted face sums.

Each integer point of P's exact projection to the outer axes fixes a slab, a
polygon over the two widest axes swept along u: each stretch of columns
between breakpoints of the lower and upper envelopes, and each end or integer
breakpoint column alone, is counted in closed form.  Each point is credited to
the face cut out by its tight facets; counting shares no machinery with
localization."""

from fractions import Fraction
from math import ceil, floor, gcd, prod

from .errors import BudgetError
from .polytope import derived, enumerate_vertices, face_lattice

# most steps one count may take: a slab costs one per row of the projection
# (facets included), which bounds its sweep too, and a projected row pair one
COUNT_BUDGET = 10 ** 6


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


def floor_sum(n, a, b, c):
    """sum_{i<n} floor((a i + b) / c) for c > 0, in O(log) Euclid-like steps."""
    total = 0
    while n > 0:
        q, a = divmod(a, c)
        r, b = divmod(b, c)
        total += q * (n * (n - 1) // 2) + r * n
        n, b, c, a = *divmod(a * n + b, c), a, c
    return total


def progression_count(s, c, d, first, last):
    """How many integers u in first..last make s + c u divisible by d > 0."""
    g = gcd(c, d)
    if s % g:
        return 0
    step = d // g
    r = -s // g * pow(c // g, -1, step) % step
    return (last - r) // step - (first - 1 - r) // step


def _charge(slabs, rows, pairs):
    if slabs * rows + pairs > COUNT_BUDGET:
        raise BudgetError("lattice count needs about %d steps (%d slabs x %d rows and %d "
                          "row pairs of the projection), over the limit of %d"
                          % (slabs * rows + pairs, slabs, rows, pairs, COUNT_BUDGET))


def _project(rows, tight, slabs):
    """Fourier-Motzkin with Chernikov's rule: the facet rows, then for each axis
    0 < j < n - 1 the rows of P's projection to axes 0..j that bound j (axis 0
    keeps its box), as columns and starting slacks -a, and each axis's rows.
    tight[i] is the bit mask of the vertices on facet i; a row is tight where
    both rows it combines are, and one tight at no vertex is dropped."""
    n = len(rows[0][0])
    system = [(lam, a, 1 << i, t) for i, ((lam, a), t) in enumerate(zip(rows, tight))]
    pool, levels, pairs = list(rows), [], 0
    for k in range(n - 1, 1, -1):
        pos, neg = ([r for r in system if sign * r[0][k] > 0] for sign in (1, -1))
        pairs += len(pos) * len(neg)
        _charge(slabs, len(pool), pairs)
        kept = dict.fromkeys((lam[:k], a, h, t) for lam, a, h, t in system if not lam[k])
        for lp, ap, hp, tp in pos:
            for ln, an, hn, tn in neg:
                cp, cn = lp[k], -ln[k]
                lam = tuple(cn * x + cp * y for x, y in zip(lp, ln[:k]))
                # Chernikov: after n - k eliminations a row of more facets is redundant
                if any(lam) and tp & tn and bin(hp | hn).count("1") <= n - k + 1:
                    g = gcd(*lam, cn * ap + cp * an)
                    kept[tuple(x // g for x in lam), (cn * ap + cp * an) // g, hp | hn,
                         tp & tn] = None
        system = list(kept)
        level = [(lam + (0,) * (n - k), a) for lam, a, *_ in system if lam[-1]]
        levels.insert(0, range(len(pool), len(pool) + len(level)))
        pool += level
    _charge(slabs, len(pool), pairs)
    return list(zip(*(lam for lam, _ in pool))), [()] + levels, [-a for _, a in pool]


def _sections(cols, levels, lo, hi, slack, j=0):
    """(slack, ulo, uhi) for each slab that meets P: row r (facets first) then
    reads slack[r] + (terms in u and v) >= 0, and ulo..uhi is the u-range."""
    low, high, col = lo[j], hi[j], cols[j]
    for r in levels[j]:
        if col[r] > 0:
            low = max(low, -(slack[r] // col[r]))
        else:
            high = min(high, slack[r] // -col[r])
    if j == len(levels) - 1:
        if low <= high:
            yield slack, low, high
        return
    for x in range(low, high + 1):
        yield from _sections(cols, levels, lo, hi, [k + c * x for k, c in zip(slack, col)], j + 1)


def _stretch(first, last, lower, upper, whole, relint, face_id):
    """Credit the columns first..last, bounded by the lines of lower (v >= -(s
    + c u) / d) and upper (v <= (s + c u) / d) alone, each (i, s, c, d), and
    tight on the facets of whole; a point on both sides is on both their
    lines, as on a slab that is a segment or pinched to one point."""
    (_, sa, ca, da), (_, sb, cb, db) = lower[0], upper[0]
    if first == last:  # one column: the lines' values there, as lines of slope 0
        sa, sb, ca, cb = sa + ca * first, sb + cb * first, 0, 0
        total, on_a, on_b = 1 + sa // da + sb // db, sa % da == 0, sb % db == 0
    else:
        cols = last - first + 1
        total = (cols + floor_sum(cols, ca, sa + ca * first, da)
                 + floor_sum(cols, cb, sb + cb * first, db))
        on_a = progression_count(sa, ca, da, first, last)
        on_b = progression_count(sb, cb, db, first, last)
    both = total if sa * db + sb * da == 0 and ca * db + cb * da == 0 else 0
    for lines, k in ((lower + upper, both), (lower, on_a - both), (upper, on_b - both),
                     ((), total - on_a - on_b + both)):
        if k:
            relint[face_id[tuple(sorted(whole + [x[0] for x in lines]))]] += k


def _envelope(slack, classes, end):
    """The pieces, left to right, of the least (s + c u) / d over the lines (i,
    s = slack[i], c, d > 0) of classes ((i, c, d) of one slope, steepest first):
    (key, lines through the left end, lines of the piece), the left end at u =
    key / 2 (an odd key: between two columns); a last (end, None, None) closes
    the list."""
    stack = []
    for ids in classes:
        group = []  # the lines of least s / d in the class
        for i, c, d in ids:
            x = (i, slack[i], c, d)
            t = x[1] * group[0][3] - group[0][1] * x[3] if group else -1
            group = [x] if t < 0 else group + [x] if t == 0 else group
        x, through = group[0], None
        # a line that meets the new one on its own left end is no piece: the
        # end keeps the lines through it, and a line below it drops them
        while len(stack) > 1:
            p, q, lines, (y, *_) = stack[-1]
            t = (x[1] * q + x[2] * p) * y[3] - (y[1] * q + y[2] * p) * x[3]
            if t > 0:
                break
            stack.pop()
            through = lines if t == 0 else None
        if stack:
            y = stack[-1][3][0]
            p, q = x[1] * y[3] - y[1] * x[3], y[2] * x[3] - x[2] * y[3]
            stack.append((p, q, (through or stack[-1][3]) + group, group))
        else:
            stack.append((0, 1, None, group))
    stack.append((end, 2, None, None))
    return [(2 * (p // q) + (p % q > 0), lines, group) for p, q, lines, group in stack]


def _slab(slack, sides, flat, ulo, uhi, relint, face_id):
    """Credit the points of the columns ulo..uhi of one slab, where facet i
    reads slack[i] + c u + d v >= 0: sides holds the lower (d > 0) and upper
    facets' slope classes with |d|, as in _envelope, and flat (i, c) the rest."""
    # lower lines v >= -(s + c u) / d and upper ones v <= (s + c u) / |d|: the
    # least of each side bounds v, and a stretch ends where that one changes;
    # a facet with d = 0 is tight on the whole slab or on an end column alone
    whole = {u: [i for i, c in flat if slack[i] + c * u == 0] for u in (ulo, ulo + 1, uhi)}
    low, high = (_envelope(slack, side, 2 * uhi) for side in sides)
    u, a, b = ulo, 0, 0
    while u <= uhi:
        while low[a + 1][0] < 2 * u:
            a += 1
        while high[b + 1][0] < 2 * u:
            b += 1
        t = min(2 * uhi, low[a + 1][0], high[b + 1][0]) if u > ulo else 2 * u
        if u <= (t - 1) // 2:
            _stretch(u, (t - 1) // 2, low[a][2], high[b][2], whole[ulo + 1], relint, face_id)
        if t % 2 == 0:
            _stretch(t // 2, t // 2, low[a + 1][0] == t and low[a + 1][1] or low[a][2],
                     high[b + 1][0] == t and high[b + 1][1] or high[b][2],
                     whole.get(t // 2, whole[ulo + 1]), relint, face_id)
        u = t // 2 + 1


@derived
def count_points(p):
    """Count lattice points slab by slab and classify each by its face; raises
    BudgetError, before walking, when the steps would pass COUNT_BUDGET."""
    fl = face_lattice(p)
    charts = enumerate_vertices(p)
    n, m = p.dim, len(p.facets)
    box = [(ceil(min(x)), floor(max(x))) for x in zip(*(c.vertex for c in charts))]
    # v then u: the widest axes, the first of a tie; the outer axes narrowest first
    by_width = sorted(range(n), key=lambda j: (box[j][0] - box[j][1], j))
    axes = sorted(by_width[2:], key=lambda j: (box[j][1] - box[j][0], j)) + by_width[1::-1]
    lo, hi = zip(*(box[j] for j in axes))
    rows = [(tuple(lam[j] for j in axes), a) for lam, a in p.facets]
    if n == 1:  # a segment is the slab over the point u = 0
        rows, lo, hi = [((0,) + lam, a) for lam, a in rows], (0,) + lo, (0,) + hi
    tight = [0] * m
    for v, c in enumerate(charts):
        for i in c.facet_set:
            tight[i] |= 1 << v
    cols, levels, slack = _project(rows, tight,
                                   prod(hi[j] - lo[j] + 1 for j in range(len(lo) - 2)))
    slopes, flat = ({}, {}), []
    for i, c, d in zip(range(m), cols[-2], cols[-1]):
        if d:
            slopes[d < 0].setdefault(Fraction(c, abs(d)), []).append((i, c, abs(d)))
        else:
            flat.append((i, c))
    sides = [[side[k] for k in sorted(side, reverse=True)] for side in slopes]
    relint = [0] * len(fl.faces)
    for slack, ulo, uhi in _sections(cols, levels, lo, hi, slack):
        _slab(slack, sides, flat, ulo, uhi, relint, fl.face_id)
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
