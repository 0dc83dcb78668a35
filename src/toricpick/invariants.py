"""Identity checks tying counting, combinatorics and localization together.

Each check computes its two sides by fully independent code paths
(enumeration vs. fixed points, h-vector vs. genus series) and returns a
Report whose verdict is exact rational equality.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, lcm, prod
from operator import add, floordiv, mod, mul, or_, sub

from .errors import ShapeError, ToricError
from .lattice import count_points, weighted_sum_closed, weighted_sum_relint
from .localization import _fixed_point_value, chart_weights, localize
from .polytope import (charge_faces, enumerate_vertices, h_vector, require_delzant,
                       signature_from_h, volume)
from .series import genus_log


class Report:
    """Verification result: both sides exactly, a verdict, and a breakdown."""

    def __init__(self, identity, polytope, lhs, rhs, holds, breakdown, generic_vectors):
        self.identity = identity
        self.polytope = polytope
        self.lhs = lhs
        self.rhs = rhs
        self.holds = holds
        self.breakdown = breakdown
        self.generic_vectors = tuple(tuple(u) for u in generic_vectors)

    def __repr__(self):
        return "Report(%s on %s: lhs=%s rhs=%s holds=%s)" % (
            self.identity, self.polytope, self.lhs, self.rhs, self.holds)


@lru_cache(maxsize=64)  # face-todd asks once per dimension 0..n
def _log_rows(kind, n):
    """(scale, den, rows) for kind in degree n: log g = sum_k b_k x^k with
    rows the pairs (k, k b_k den) for b_k != 0, den the common denominator
    of the b_k (1 for kind None, no genus factor), and scale = n! den^n."""
    b = genus_log(kind, n) if kind else ()
    den = lcm(*(c.denominator for c in b))
    return factorial(n) * den ** n, den, tuple((k, int(k * c * den)) for k, c in enumerate(b) if c)


def _power_sums(columns, degrees):
    """The power sums p_k = sum_j w_j^k of the weight columns, a column per k in degrees."""
    return [list(map(sum, zip(*[map(pow, column, repeat(k)) for column in columns])))
            for k in degrees]


def _exponential(n, log_rows, s, sums):
    """The columns E_0..E_n of scale times exp(A) at each pair, A(t) = s t +
    sum_k b_k p_k t^k, (scale, den, rows) = log_rows, s the twist column and
    sums the p_k columns of the k of rows in order (more may follow), from
    E' = A' E: k E_k = sum_j j A_j E_{k-j}, one exact division per degree."""
    scale, den, rows = log_rows
    a = {1: list(map(mul, s, repeat(den)))} if n and any(s) else {}  # a[j] = den j A_j, if not 0
    for (k, c), p_k in zip(rows, sums):
        term = list(map(mul, p_k, repeat(c)))
        a[k] = list(map(add, a[k], term)) if k in a else term
    out, zero = [[scale] * len(s)], [0] * len(s)
    for k in range(1, n + 1):
        total = None
        for j, column in a.items():
            if j <= k and out[k - j] is not zero:
                term = map(mul, column, out[k - j])
                total = term if total is None else map(add, total, term)
        if total is None:
            out.append(zero)
            continue
        total, kd = list(total), k * den
        if any(map(mod, total, repeat(kd))):
            raise ToricError("the degree-%d coefficient of the genus restriction is %s, "
                             "not an integer (chart bug)"
                             % (k, Fraction(next(x for x in total if x % kd), kd)))
        out.append(list(map(floordiv, total, repeat(kd))))
    return out


def _genus_restriction(p, kind, twist=True):
    """(restrict, scale) for exp(w_P) prod_i g(v_i), as localize() takes
    them; kind None drops the genus factor.

    At a vertex x the twist exp(-sum a_i v_i) becomes exp(s t) with
    s = -<x, u>, and g(v_{i_j}) becomes g(w_j t); twist False sets s = 0.
    As log g = sum_k b_k x^k, the class restricts to exp(A) (see
    _exponential), p_k = sum_j w_j^k the power sums of the weights, times
    scale = n! den^n, den the common denominator of the b_k (see _log_rows):
    each A_j has a denominator dividing den, so the degree-k coefficient of
    exp(A) has one dividing k! den^k, and every coefficient is integral.
    """
    n, offset, log_rows = p.dim, p.offsets.__getitem__, _log_rows(kind, p.dim)
    degrees = [k for k, _ in log_rows[2]]

    def restrict(charts, weights):
        s = ([-sum(map(mul, map(offset, c.facet_set), w)) for c, w in zip(charts, weights)]
             if twist else [0] * len(weights))
        return _exponential(n, log_rows, s, _power_sums(list(zip(*weights)), degrees))

    return restrict, log_rows[0]


def _prelude(p, u, count):
    """The first steps of every localized check: chart_weights (the gate and
    count generic vectors, u first when given), then the face budget (see
    charge_faces), before anything is counted or localized.

    The face budget is charged whether or not the check lays out faces: its
    bound, V 3^(n+1) / (n + 1) roughly, grows with n far faster than V
    localizations in degree n, so it bounds them too, and todd, whose count
    reads no face lattice, is refused where pick and signature are.
    """
    charts, vectors, tables = chart_weights(p, u, count)
    charge_faces(len(charts), p.dim)
    return charts, vectors, tables


def _localize_once(p, kind, u, terms):
    """The class of _genus_restriction at u, or at the first generic vector,
    after the prelude, and its (vertex, Fraction) terms if terms, else None."""
    charts, _, tables = _prelude(p, u, 1)
    (value,), contributions = localize(charts, tables, *_genus_restriction(p, kind), terms=terms)
    return value, contributions


def twisted_todd_breakdown(p, u=None, terms=True):
    """<exp(w_P) prod Td(v_i), [M_P]>, the lattice point count, and its vertex terms."""
    return _localize_once(p, "Todd", u, terms)


def twisted_signature_breakdown(p, u=None, terms=True):
    """<exp(w_P) prod (v_i/2)/tanh(v_i/2), [M_P]> and its per-vertex terms."""
    return _localize_once(p, "SignatureHalf", u, terms)


def volume_breakdown(p, u=None):
    """Euclidean volume by fixed points with per-vertex contributions."""
    return _localize_once(p, None, u, True)


def per_vertex_breakdown(terms):
    """Per-vertex (vertex, Fraction) terms keyed by the rendered point "(x,y,...)"."""
    return {"(%s)" % ",".join(str(x) for x in v): c for v, c in terms}


def _localized_check(identity, p, u, kind, twist, independent):
    """The skeleton of every check whose left side is localized.

    In this order: the prelude (gate, two generic vectors, face budget);
    independent() computes the right side under its own budgets and
    returns (rhs, extra, breakdown); the class is localized at both
    vectors; and the identity holds when extra does and both localized
    values equal rhs.
    """
    charts, (u1, u2), tables = _prelude(p, u, 2)
    rhs, extra, breakdown = independent()
    (lhs, lhs2), terms = localize(charts, tables, *_genus_restriction(p, kind, twist), terms=True)
    breakdown["lhs_at_second_vector"] = lhs2
    breakdown["per_vertex"] = per_vertex_breakdown(terms)
    return Report(identity, p.name, lhs, rhs, extra and lhs == rhs == lhs2,
                  breakdown, (u1, u2))


def _closed_by_dim(fc, n):
    return {str(d): fc.closed_by_dim(d) for d in range(n + 1)}


def check_pick(p, u=None):
    """Weighted lattice point count against the twisted signature.

    The left side is evaluated at two distinct generic vectors (both are
    reported); the right side is the closed-face weighted sum, cross-checked
    against the relative-interior formulation.  In the plane the breakdown
    adds classical Pick for the triangulated area.
    """
    def independent():
        fc = count_points(p)
        rhs = weighted_sum_closed(fc)
        rhs_relint = weighted_sum_relint(fc)
        breakdown = {"relint_formulation_rhs": rhs_relint,
                     "closed_count_by_dim": _closed_by_dim(fc, p.dim)}
        if p.dim == 2:
            area = volume(p)
            interior = fc.relint_by_dim(2)
            boundary = fc.total - interior
            breakdown.update(area=area, interior_points=interior, boundary_points=boundary,
                             classical_pick_holds=area == interior + Fraction(boundary, 2) - 1)
        return rhs, rhs_relint == rhs, breakdown

    return _localized_check("pick", p, u, "SignatureHalf", True, independent)


def check_todd(p, u=None):
    """Twisted Todd genus against the brute-force lattice point count."""
    def independent():
        fc = count_points(p)
        return Fraction(fc.total), True, {"closed_count_by_dim": _closed_by_dim(fc, p.dim)}

    return _localized_check("todd", p, u, "Todd", True, independent)


def check_untwisted_signature(p, u=None):
    """Constant-twist genus term against the h-vector signature over 2^n."""
    def independent():
        hv = h_vector(enumerate_vertices(p))
        sigma = signature_from_h(hv)
        breakdown = {"h_vector": list(hv.h), "signature": sigma}
        if p.dim == 2:
            breakdown["four_minus_m"] = 4 - len(p.facets)
        return Fraction(sigma, 2 ** p.dim), True, breakdown

    return _localized_check("signature", p, u, "SignatureHalf", False, independent)


def check_tetrahedron(p):
    """Interior-weighted count against Vol(P) - sum a_j / 3 for n = 3, m = 4."""
    if p.dim != 3 or len(p.facets) != 4:
        raise ShapeError("expected a 3-dimensional polytope with 4 facets, got dim %d with %d"
                         % (p.dim, len(p.facets)))
    require_delzant(enumerate_vertices(p))
    fc = count_points(p)
    lhs = weighted_sum_relint(fc)
    vol = volume(p)
    offset_term = Fraction(sum(p.offsets), 3)
    rhs = vol - offset_term
    breakdown = {
        "volume": vol,
        "offset_sum_over_3": offset_term,
        "relint_by_dim": {str(d): fc.relint_by_dim(d) for d in range(4)},
    }
    holds = lhs == rhs
    return Report("tetrahedron", p.name, lhs, rhs, holds, breakdown, ())


def _face_todd_sweep(p, charts, weights):
    """The twisted Todd genus of every face F by facet mask, at the vector
    of the weight table weights on P's charts, summed over the vertices of F
    with the Euler products of the weights of its edges, as the per-face
    oracle tests/oracles.localize_face sums it: the faces through a vertex
    are the subsets S of its facet positions, each S taken at all vertices
    at once and built from S less its lowest position j (its power sums drop
    the w_j^k, its Euler products w_j, its masks gain facet j), holding only
    the subsets on the way to S; each vertex's row is added to its mask's
    integer numerators over den, the lcm of the full Euler products; the
    vector pairs nonzero with every edge of P, so it is generic for all."""
    n = p.dim
    logs = [_log_rows("Todd", d) for d in range(n + 1)]
    degrees = [k for k, _ in logs[n][2]]  # those of dim F are the first ones
    columns, offset = list(zip(*weights)), p.offsets.__getitem__
    bits = [[1 << i for i in facets] for facets in zip(*(c.facet_set for c in charts))]
    drops = [_power_sums([column], degrees) for column in columns]
    twist = [-sum(map(mul, map(offset, c.facet_set), w)) for c, w in zip(charts, weights)]
    eulers = list(map(prod, weights))
    den, totals = lcm(*eulers), {}

    def visit(low, d, masks, sums, shares):
        terms = [list(map(mul, column, shares)) for column in _exponential(d, logs[d], twist, sums)]
        for mask, row in zip(masks, zip(*terms)):
            total = totals.get(mask)
            totals[mask] = row if total is None else list(map(add, total, row))
        for j in range(low):
            visit(j, d - 1, list(map(or_, masks, bits[j])),
                  [list(map(sub, q, dq)) for q, dq in zip(sums, drops[j])],
                  list(map(mul, shares, columns[j])))

    visit(n, n, [0] * len(charts), _power_sums(columns, degrees), [den // e for e in eulers])
    return {mask: _fixed_point_value(nums, den, logs[n - mask.bit_count()][0])
            for mask, nums in totals.items()}


def check_face_todd(p):
    """Twisted Todd of every face against its closed lattice count: each face
    localized as a submanifold of the toric manifold of P at one generic
    vector for P (see _face_todd_sweep), each count closed over facet masks
    and read by FaceCounts.face_rows, so no face lattice is laid out."""
    charts, _, (weights,) = _prelude(p, None, 1)
    rows, todd = count_points(p).face_rows(), _face_todd_sweep(p, charts, weights)
    faces = [(d, facets, todd[mask], closed) for d, facets, closed, _, mask in rows]
    by_face = {"dim%d/facets(%s)" % (d, ",".join(map(str, facets))):
               {"twisted_todd": lhs, "lattice_count": Fraction(rhs)}
               for d, facets, lhs, rhs in faces}
    holds, rhs = all(f[2] == f[3] for f in faces), Fraction(sum(f[3] for f in faces))
    # equal terms have equal sums, so the left side is summed only when they differ
    return Report("face-todd", p.name, rhs if holds else sum(f[2] for f in faces), rhs, holds,
                  {"faces": by_face}, ())
