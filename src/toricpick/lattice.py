"""Exact lattice point counting slab by slab and the weighted face sums.

Each integer point of P's exact projection to the outer axes fixes a slab, a
polygon over the two widest axes swept along u: each stretch of columns
between breakpoints of the lower and upper envelopes, and each end or integer
breakpoint column alone, is counted in closed form.  Each point is credited
to the bit mask of its tight facets, and the per-face counts are closed over
its subsets only when they are read.  Counting shares no machinery with
localization."""

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import ceil, comb, floor, gcd, lcm
from operator import add

from .errors import BudgetError, ToricError
from .polytope import charge_faces, derived, enumerate_vertices

# most steps one count may take: a slab costs one per row of the projection
# (facets included), which bounds its sweep too, a projected row pair one, and
# each range of the outer axes one
COUNT_BUDGET = 10 ** 6


class FaceCounts:
    """Lattice points by their tight facets, the histogram first.

    by_mask maps the bit mask of a facet set to the number of points tight
    on exactly those facets, and hist[k] counts the points on k facets.  P is
    simple (the vertex walk certifies it), so a point on k facets lies in the
    relative interior of a face of codimension k, which lies in C(k, j)
    faces of codimension j: the counts by dimension, closed_by_mask and
    face_rows need no face lattice.  relint and closed read by_mask and
    closed_by_mask by face id, which lays out the faces of charts, p's own
    chart table.  Each of these raises on points whose facets cut out no face.
    """

    def __init__(self, p, by_mask):
        self.dim, self.by_mask = p.dim, by_mask
        hist = self.hist = [0] * (p.dim + 1)
        for mask, c in by_mask.items():
            hist[mask.bit_count()] += c
        self.charts, self._vertices = enumerate_vertices(p), facet_vertices(p)

    @property
    def total(self):
        """Number of lattice points of the whole polytope."""
        return sum(self.hist)

    def relint_by_dim(self, d):
        return self.hist[self.dim - d]

    def closed_by_dim(self, d):
        return sum(h * comb(k, self.dim - d) for k, h in enumerate(self.hist))

    @cached_property
    def _on_faces(self):
        """by_mask, once each mask cuts out a face: its facets, all of P's, share a vertex;
        in increasing order, from its mask less its lowest facet when that holds points."""
        vertices, m, common = self._vertices, len(self._vertices), {}
        for mask in sorted(self.by_mask):
            shared = 0 if mask >> m else common.get(mask & mask - 1)
            if shared is None:
                shared, rest = -1, mask
                while rest and shared:
                    shared &= vertices[(rest & -rest).bit_length() - 1]
                    rest &= rest - 1
            elif shared:
                shared &= vertices[(mask & -mask).bit_length() - 1]
            if not shared:
                raise ToricError("%d lattice points lie on facets %s, which cut out no face" % (
                    self.by_mask[mask], facets_of(mask)))
            common[mask] = shared
        return self.by_mask

    @cached_property
    def closed_by_mask(self):
        """Closed counts by facet mask of the faces that hold a point, which
        lies in each face whose facet set is a subset of its own: at most a
        step per pair of the face order, so the face budget comes first."""
        charge_faces(len(self.charts), self.dim)
        above = {0: self.total}
        for mask, c in self._on_faces.items():
            sub = mask
            while sub:
                above[sub] = above.get(sub, 0) + c
                sub = (sub - 1) & mask
        return above

    def face_rows(self):
        """(dim, facets, closed, relint, mask) of every face, by dim and facets: each face holds
        a point, so is a key of closed_by_mask, or a vertex off the lattice (not in hist[n])."""
        closed, relint, masks = self.closed_by_mask, self._on_faces, set(self.closed_by_mask)
        for c in self.charts if self.hist[self.dim] < len(self.charts) else ():
            mask = sum(1 << i for i in c.facet_set)
            sub = 0 if mask in relint else mask
            while sub:
                masks.add(sub)
                sub = (sub - 1) & mask
        return sorted((self.dim - m.bit_count(), facets_of(m), closed.get(m, 0),
                       relint.get(m, 0), m) for m in masks)

    @cached_property
    def relint(self):
        """by_mask by face id; only perfbench/replay.py and the tests read it (ROADMAP item 9)."""
        return {fid: self._on_faces.get(f.mask, 0) for fid, f in enumerate(self.charts.faces)}

    @cached_property
    def closed(self):
        """closed_by_mask by face id; only perfbench/replay.py and the tests read it."""
        return {fid: self.closed_by_mask.get(f.mask, 0)
                for fid, f in enumerate(self.charts.faces)}


def facets_of(mask):
    """The facets of a bit mask, ascending."""
    facets = []
    while mask:
        facets.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(facets)


@derived
def facet_vertices(p):
    """The bit mask of the vertices on each facet, in chart order."""
    tight = [0] * len(p.facets)
    for v, c in enumerate(enumerate_vertices(p)):
        for i in c.facet_set:
            tight[i] |= 1 << v
    return tuple(tight)


def floor_sum(n, a, b, c):
    """sum_{i<n} floor((a i + b) / c) for c > 0, in O(log) Euclid-like steps."""
    if c == 1 and n > 0:
        return a * (n * (n - 1) // 2) + b * n
    total = 0
    while n > 0:
        q, a = divmod(a, c)
        r, b = divmod(b, c)
        total += q * (n * (n - 1) // 2) + r * n
        n, b, c, a = *divmod(a * n + b, c), a, c
    return total


def progression_count(s, c, d, first, last):
    """How many integers u in first..last make s + c u divisible by d > 0."""
    if d == 1:
        return last - first + 1
    g = gcd(c, d)
    if s % g:
        return 0
    step = d // g
    r = -s // g * pow(c // g, -1, step) % step
    return (last - r) // step - (first - 1 - r) // step


def _charge(slabs, rows, pairs, ranges):
    steps = slabs * rows + pairs + ranges
    if steps > COUNT_BUDGET:
        raise BudgetError("lattice count needs at least %d steps (%d slabs x %d rows, %d row "
                          "pairs and %d outer ranges of the projection), over the limit of %d"
                          % (steps, slabs, rows, pairs, ranges, COUNT_BUDGET))


def _project(rows, tight):
    """Fourier-Motzkin with Chernikov's rule: the facet rows, then for each axis
    0 < j < n - 1 the rows of P's projection to axes 0..j that bound j (axis 0
    keeps its box), as columns and starting slacks -a, each axis's rows, and
    the row pairs formed.  tight[i] is the bit mask of the vertices on facet
    i; a row is tight where both rows it combines are, and only rows tight at
    a common vertex are paired."""
    n = len(rows[0][0])
    system = [(lam, a, 1 << i, t) for i, ((lam, a), t) in enumerate(zip(rows, tight))]
    pool, levels, pairs = list(rows), [], 0
    for k in range(n - 1, 1, -1):
        pos, neg = [r for r in system if r[0][k] > 0], [r for r in system if r[0][k] < 0]
        meeting = [(rp, rn) for rp in pos for rn in neg if rp[3] & rn[3]]
        pairs += len(meeting)
        _charge(0, len(pool), pairs, 0)
        kept = dict.fromkeys((lam[:k], a, h, t) for lam, a, h, t in system if not lam[k])
        for (lp, ap, hp, tp), (ln, an, hn, tn) in meeting:
            cp, cn = lp[k], -ln[k]
            lam = tuple([cn * x + cp * y for x, y in zip(lp, ln[:k])])
            # Chernikov: after n - k eliminations a row of more facets is redundant
            if any(lam) and (hp | hn).bit_count() <= n - k + 1:
                g = gcd(*lam, cn * ap + cp * an)
                kept[tuple([x // g for x in lam]), (cn * ap + cp * an) // g, hp | hn,
                     tp & tn] = None
        system = list(kept)
        level = [(lam + (0,) * (n - k), a) for lam, a, *_ in system if lam[-1]]
        levels.insert(0, range(len(pool), len(pool) + len(level)))
        pool += level
    return list(zip(*[lam for lam, _ in pool])), [()] + levels, [-a for _, a in pool], pairs


def _bounds(col, rows, low, high, slack):
    """low..high narrowed by the rows that bound an axis of column col."""
    for r in rows:
        c = col[r]
        if c > 0:
            if -(slack[r] // c) > low:
                low = -(slack[r] // c)
        elif slack[r] // -c < high:
            high = slack[r] // -c
    return low, high


def _sections(cols, levels, lo, hi, slack, last, j=0):
    """(slack, low, high) wherever the walk over P's projection stops: at
    each point of the axes before `last`, with low..high the range of axis
    last, or at an empty range of an earlier axis.  Row r (facets first)
    then reads slack[r] + (terms in the later axes) >= 0.  Each axis steps
    its slacks by adding its column; count_points steps the slabs of each
    range of its innermost outer axis itself."""
    low, high = _bounds(cols[j], levels[j], lo[j], hi[j], slack)
    if j == last or low > high:
        yield slack, low, high
        return
    col, slack = cols[j], [k + c * low for k, c in zip(slack, cols[j])]
    for _ in range(low, high + 1):
        yield from _sections(cols, levels, lo, hi, slack, last, j + 1)
        slack = [k + c for k, c in zip(slack, col)]


def _stretch(first, last, lower, upper, whole, counts):
    """Credit the columns first..last, bounded by the line lower (v >= -(s +
    c u) / d) and the line upper (v <= (s + c u) / d) alone, each (mask of
    its facets, s, c, d), to the facet masks whole | lower's, whole |
    upper's and whole; a point on both sides is on both lines, as on a slab
    that is a segment or pinched to one point."""
    ma, sa, ca, da = lower
    mb, sb, cb, db = upper
    if first == last:  # one column: the lines' values there, as lines of slope 0
        sa, sb, ca, cb = sa + ca * first, sb + cb * first, 0, 0
        total, on_a, on_b = 1 + sa // da + sb // db, sa % da == 0, sb % db == 0
    else:
        cols = last - first + 1
        total = (cols + floor_sum(cols, ca, sa + ca * first, da)
                 + floor_sum(cols, cb, sb + cb * first, db))
        on_a = progression_count(sa, ca, da, first, last)
        on_b = progression_count(sb, cb, db, first, last)
    if sa * db + sb * da == 0 and ca * db + cb * da == 0:  # one line: all on both
        if total > 0:
            counts[whole | ma | mb] += total
        return
    if on_a:
        counts[whole | ma] += on_a
    if on_b:
        counts[whole | mb] += on_b
    if total - on_a - on_b:
        counts[whole] += total - on_a - on_b


def _envelope(slack, classes, end):
    """The pieces, left to right, of the least (s + c u) / d over the lines
    (bit, i, c, d > 0; s = slack[i]) of classes (the lines of one slope,
    steepest first): (key, line through the left end, line of the piece),
    each line (mask of its facets, s, c, d), the left end at u = key / 2 (an
    odd key: between two columns); a last (end, None, None) closes the
    list."""
    stack = []
    for ids in classes:
        x = None  # the lines of least s / d in the class
        for bit, i, c, d in ids:
            s = slack[i]
            if x is None or s * x[3] < x[1] * d:
                x = [bit, s, c, d]
            elif s * x[3] == x[1] * d:
                x[0] |= bit
        if len(classes) == 1:  # all lines parallel: one piece
            return [(0, None, x), (end, None, None)]
        through = None
        # a line that meets the new one on its own left end is no piece: the
        # end keeps the lines through it, and a line below it drops them
        while len(stack) > 1:
            p, q, ends, y = stack[-1]
            t = (x[1] * q + x[2] * p) * y[3] - (y[1] * q + y[2] * p) * x[3]
            if t > 0:
                break
            stack.pop()
            through = ends[0] if t == 0 else None
        if stack:
            y = stack[-1][3]
            p, q = x[1] * y[3] - y[1] * x[3], y[2] * x[3] - x[2] * y[3]
            stack.append((p, q, ((through or y[0]) | x[0], *x[1:]), x))
        else:
            stack.append((0, 1, None, x))
    stack.append((end, 2, None, None))
    return [(2 * (p // q) + (p % q > 0), ends, x) for p, q, ends, x in stack]


def _slab(slack, sides, flat, ulo, uhi, counts):
    """Credit the points of the columns ulo..uhi of one slab, where facet i
    reads slack[i] + c u + d v >= 0: sides holds the lower (d > 0) and upper
    facets' slope classes with |d|, as in _envelope, and flat (bit, i, c) the
    rest.  A slab whose envelopes are one line each is its first column, its
    interior and its last column; _sweep_slab takes any other."""
    # a facet with d = 0 is tight on the whole slab or on an end column alone
    whole = first = final = 0
    for bit, i, c in flat:
        s = slack[i]
        if s + c * ulo == 0:
            first |= bit
        if s + c * uhi == 0:
            final |= bit
        if not (c or s):
            whole |= bit
    low, high = _envelope(slack, sides[0], 2 * uhi), _envelope(slack, sides[1], 2 * uhi)
    if len(low) > 2 or len(high) > 2:
        _sweep_slab(low, high, ulo, uhi, (first, whole, final), counts)
        return
    lower, upper = low[0][2], high[0][2]
    _stretch(ulo, ulo, lower, upper, first, counts)
    if ulo + 1 < uhi:
        _stretch(ulo + 1, uhi - 1, lower, upper, whole, counts)
    if ulo < uhi:
        _stretch(uhi, uhi, lower, upper, final, counts)


def _sweep_slab(low, high, ulo, uhi, ends, counts):
    """Credit a slab of _slab stretch by stretch between the breakpoints of
    its envelopes low and high (_envelope), its end columns and any integer
    breakpoint alone; ends holds the masks of _slab's first, whole and final."""
    # lower lines v >= -(s + c u) / d and upper ones v <= (s + c u) / |d|: the
    # least of each side bounds v, and a stretch ends where that one changes
    (first, whole, final), u, a, b = ends, ulo, 0, 0
    while u <= uhi:
        while low[a + 1][0] < 2 * u:
            a += 1
        while high[b + 1][0] < 2 * u:
            b += 1
        t = min(2 * uhi, low[a + 1][0], high[b + 1][0]) if u > ulo else 2 * u
        if u <= (t - 1) // 2:
            _stretch(u, (t - 1) // 2, low[a][2], high[b][2], whole, counts)
        if t % 2 == 0:
            _stretch(t // 2, t // 2, low[a + 1][0] == t and low[a + 1][1] or low[a][2],
                     high[b + 1][0] == t and high[b + 1][1] or high[b][2],
                     first if t == 2 * ulo else final if t == 2 * uhi else whole, counts)
        u = t // 2 + 1


def _slope_classes(us, vs):
    """Facet i, reading c u + d v in a slab (c = us[i], d = vs[i]), as _slab takes it: (bit, i,
    c, |d|) in classes by its reduced slope c / |d|, per sign of d, ordered by c L / |d| (L the
    lcm of the |d|), steepest first; (bit, i, c) where d = 0."""
    slopes, flat = ({}, {}), []
    for i, (c, d) in enumerate(zip(us, vs)):
        if d:
            g = gcd(c, d)
            slopes[d < 0].setdefault((c // g, abs(d) // g), []).append((1 << i, i, c, abs(d)))
        else:
            flat.append((1 << i, i, c))
    scale = lcm(*[d for side in slopes for _, d in side])
    return [[side[k] for k in sorted(side, key=lambda k: k[0] * (scale // k[1]), reverse=True)]
            for side in slopes], flat


@derived
def count_points(p):
    """Count lattice points slab by slab by their tight facets (see
    FaceCounts); raises BudgetError, before sweeping, when the steps would
    pass COUNT_BUDGET.  The sweep steps each range of the innermost outer
    axis (_sections) itself, one slack list per slab."""
    charts = enumerate_vertices(p)
    n, m = p.dim, len(p.facets)
    box = [(ceil(min(x)), floor(max(x))) for x in zip(*[c.vertex for c in charts])]
    # v then u: the widest axes, the first of a tie; the outer axes narrowest first
    by_width = sorted(range(n), key=lambda j: (box[j][0] - box[j][1], j))
    axes = sorted(by_width[2:], key=lambda j: (box[j][1] - box[j][0], j)) + by_width[1::-1]
    lo, hi = zip(*(box[j] for j in axes))
    rows = [(tuple([lam[j] for j in axes]), a) for lam, a in p.facets]
    if n == 1:  # a segment is the slab over the point u = 0
        rows, lo, hi = [((0,) + lam, a) for lam, a in rows], (0,) + lo, (0,) + hi
    cols, levels, slack, pairs = _project(rows, facet_vertices(p))
    # the slabs the sweep visits, the points of the projection to the outer
    # axes 0..last - 1, counted level by level; each range of axis last - 1 a step
    last, slabs, ranges = len(levels) - 1, 0, 0
    for _, low, high in _sections(cols, levels, lo, hi, slack, last - 1) if last else ():
        slabs, ranges = slabs + max(0, high - low + 1), ranges + 1
        _charge(slabs, len(slack), pairs, ranges)
    _charge(slabs if last else 1, len(slack), pairs, ranges)
    sides, flat = _slope_classes(cols[-2][:m], cols[-1][:m])
    counts = defaultdict(int)
    # each range stepped slab by slab; with no outer axis, one range of one slab
    outer = _sections(cols, levels, lo, hi, slack, last - 1) if last else [(slack, 0, 0)]
    col, ucol, urows = cols[last - 1], cols[last], levels[last]
    for slack, low, high in outer:
        slack = [k + c * low for k, c in zip(slack, col)]
        for _ in range(low, high + 1):
            ulo, uhi = _bounds(ucol, urows, lo[last], hi[last], slack)
            if ulo <= uhi:
                _slab(slack, sides, flat, ulo, uhi, counts)
            slack = list(map(add, slack, col))
    return FaceCounts(p, dict(counts))


def weighted_sum_closed(fc):
    """Closed-count formulation: #(P) + sum_k (-1/2)^k sum_{dim F = n-k} #(F),
    summed over the faces that hold a point, by facet mask."""
    return Fraction(sum((-1) ** m.bit_count() * 2 ** (fc.dim - m.bit_count()) * c
                        for m, c in fc.closed_by_mask.items()), 2 ** fc.dim)


def weighted_sum_relint(fc):
    """Interior formulation: relint(P) + sum_k (1/2)^k over faces of codim k,
    from the histogram."""
    n = fc.dim
    return Fraction(sum(h * 2 ** (n - k) for k, h in enumerate(fc.hist)), 2 ** n)
