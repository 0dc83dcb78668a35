"""Identity checks tying counting, combinatorics and localization together.

Each check computes its two sides by fully independent code paths
(enumeration vs. fixed points, h-vector vs. genus series) and returns a
Report whose verdict is exact rational equality.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, lcm
from operator import mul

from .errors import ShapeError, ToricError
from .lattice import count_points, weighted_sum_closed, weighted_sum_relint
from .localization import choose_generic, localize
from .polytope import (charge_faces, enumerate_vertices, face_lattice, h_vector,
                       require_delzant, signature_from_h, volume)
from .series import genus_log, genus_series


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


@lru_cache(maxsize=64)  # face-todd asks once per face, for a few dimensions
def _log_rows(kind, n):
    """(scale, den, rows) for kind in degree n: scale = n! D^n, D the common
    denominator of g, and log g = sum_k b_k x^k with rows the pairs
    (k, k b_k den) for b_k != 0, den the common denominator of the b_k."""
    if kind is None:
        return factorial(n), 1, ()
    d = lcm(*(c.denominator for c in genus_series(kind, n)))
    b = genus_log(kind, n)
    den = lcm(*(c.denominator for c in b))
    return factorial(n) * d ** n, den, tuple((k, int(k * c * den)) for k, c in enumerate(b) if c)


def _genus_restriction(p, kind, twist=True, face=None):
    """(restrict, scale) for exp(w_P) prod_i g(v_i), as localize() takes
    them; kind None drops the genus factor.

    At a vertex x the twist exp(-sum a_i v_i) becomes exp(s t) with
    s = -<x, u>, and g(v_{i_j}) becomes g(w_j t); twist False sets s = 0.
    A multiplicative class is fixed by its logarithm log g = sum_k b_k x^k,
    so the class restricts to E = exp(A), A(t) = s t + sum_k b_k p_k t^k,
    p_k = sum_j w_j^k the power sums of the weights.  restrict gives scale
    times E truncated at degree n, with scale = n! D^n and D the common
    denominator of g: that is the product of n! exp(s t) and the n factors
    D g(w_j t), so it is integral.  Its coefficients follow from E' = A' E,
    k E_k = sum_j j A_j E_{k-j}, with one exact division per degree.  On a
    face F the power sums run over the edges in F and n is dim F.
    """
    n = p.dim if face is None else face.dim
    normal = () if face is None else face.facet_set
    scale, den, rows = _log_rows(kind, n)

    def restrict(chart, w):
        a = [0] * n  # a[j - 1] = den j A_j
        if twist and n:
            a[0] = -den * sum(map(mul, map(p.offsets.__getitem__, chart.facet_set), w))
        if normal:
            w = [x for i, x in zip(chart.facet_set, w) if i not in normal]
        for k, c in rows:
            a[k - 1] += c * sum(map(pow, w, repeat(k)))
        out = [scale]
        for k in range(1, n + 1):
            num = sum(map(mul, a, reversed(out)))
            q, r = divmod(num, k * den)
            if r:
                raise ToricError("the degree-%d coefficient of the genus restriction is %s, "
                                 "not an integer (chart bug)" % (k, Fraction(num, k * den)))
            out.append(q)
        return out

    return restrict, scale


def _localize_once(p, kind, u):
    """The class of _genus_restriction at u, or at the first generic vector,
    and its (vertex, Fraction) terms, after the gate and the face budget."""
    charts = enumerate_vertices(p)
    require_delzant(charts)
    charge_faces(len(charts), p.dim)
    value, contributions = localize(p, choose_generic(charts) if u is None else u,
                                    *_genus_restriction(p, kind))
    return value, _vertex_terms(contributions)


def twisted_todd_breakdown(p, u=None):
    """<exp(w_P) prod Td(v_i), [M_P]>, the lattice point count, and its vertex terms."""
    return _localize_once(p, "Todd", u)


def twisted_signature_breakdown(p, u=None):
    """<exp(w_P) prod (v_i/2)/tanh(v_i/2), [M_P]> and its per-vertex terms."""
    return _localize_once(p, "SignatureHalf", u)


def volume_breakdown(p, u=None):
    """Euclidean volume by fixed points with per-vertex contributions."""
    return _localize_once(p, None, u)


def _vertex_terms(contributions):
    """localize's (vertex, numerator, denominator) triples as (vertex,
    Fraction) pairs, built only where a breakdown is returned or printed."""
    return tuple((v, Fraction(num, den)) for v, num, den in contributions)


def per_vertex_breakdown(terms):
    """Per-vertex (vertex, Fraction) terms keyed by the rendered point "(x,y,...)"."""
    return {"(%s)" % ",".join(str(x) for x in v): c for v, c in terms}


def _localized_check(identity, p, u, kind, twist, independent):
    """The skeleton of every check whose left side is localized.

    In this order: the gate picks both generic vectors (u first, when
    given), which refuses a non-Delzant chart; the face budget is charged
    (see charge_faces); independent() computes the right side under its
    own budgets and returns (rhs, extra, breakdown); the class is localized
    at both vectors; and the identity holds when extra does and both
    localized values equal rhs.

    The face budget is charged whether or not the right side lays out the
    faces: its bound, V 3^(n+1) / (n + 1) roughly, grows with n far faster
    than V localizations in degree n, so it bounds them too, and todd,
    whose count reads no face lattice, is refused where pick and signature
    are.
    """
    charts = enumerate_vertices(p)
    u1 = tuple(u) if u is not None else choose_generic(charts)
    u2 = choose_generic(charts, exclude=(u1,))
    charge_faces(len(charts), p.dim)
    rhs, extra, breakdown = independent()
    restrict, scale = _genus_restriction(p, kind, twist)
    lhs, per_vertex = localize(p, u1, restrict, scale)
    lhs2, _ = localize(p, u2, restrict, scale)
    breakdown["lhs_at_second_vector"] = lhs2
    breakdown["per_vertex"] = per_vertex_breakdown(_vertex_terms(per_vertex))
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
        hv = h_vector(face_lattice(p))
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


def check_face_todd(p):
    """Twisted Todd of every face against its closed lattice count.

    Each face is localized as a submanifold of the toric manifold of P at
    one generic vector for P, which pairs nonzero with every edge of P.
    """
    u = choose_generic(enumerate_vertices(p))
    # the face budget is charged here, before anything is counted
    faces = face_lattice(p).faces
    fc = count_points(p)
    got = [localize(p, u, *_genus_restriction(p, "Todd", face=f), face=f)[0] for f in faces]
    expected = [Fraction(fc.closed[fid]) for fid in range(len(faces))]
    by_face = {"dim%d/facets(%s)" % (f.dim, ",".join(map(str, f.facet_set))):
               {"twisted_todd": lhs, "lattice_count": rhs}
               for f, lhs, rhs in zip(faces, got, expected)}
    return Report("face-todd", p.name, sum(got), sum(expected), got == expected,
                  {"faces": by_face}, ())
