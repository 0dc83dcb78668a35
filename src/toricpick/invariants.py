"""Identity checks tying counting, combinatorics and localization together.

Each check computes its two sides by fully independent code paths
(enumeration vs. fixed points, h-vector vs. genus series) and returns a
Report whose verdict is exact rational equality.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .errors import InputError, ShapeError
from .lattice import count_points, weighted_sum_closed, weighted_sum_relint
from .localization import choose_generic, localize
from .polytope import (enumerate_vertices, face_lattice, h_vector, is_delzant,
                       signature_from_h, volume)
from .series import genus_series


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


def _require_delzant(p):
    verdict = is_delzant(p)
    if not verdict:
        raise InputError(
            "polytope %s is not Delzant: vertex %s has det %d"
            % (p.name or "", verdict.vertex, verdict.det))


def _genus_restriction(p, kind, twist=True, face=None):
    """(restrict, scale) for exp(w_P) prod_i g(v_i), as localize() takes
    them; kind None drops the genus factor.

    At a vertex x the twist exp(-sum a_i v_i) becomes exp(-sum_j a_{i_j} w_j t)
    = exp(-<x, u> t) and g(v_{i_j}) becomes g(w_j t), so the class restricts
    to a product of n univariate series truncated at degree n.  They are
    multiplied over the integers as n! exp and D g, D the common denominator
    of g, so restrict gives scale = n! D^n times the class; twist False is
    exp(0 t) = 1.  On a face F, g runs over the edges in F and n is dim F.
    """
    n = p.dim if face is None else face.dim
    normal = () if face is None else face.facet_set
    g = genus_series(kind, n) if kind is not None else (1,) + (0,) * n
    d = lcm(*(c.denominator for c in g))
    scaled_g = [int(c * d) for c in g]
    scaled_exp = [factorial(n) // factorial(k) for k in range(n + 1)]
    scale = factorial(n) * d ** n

    def restrict(chart, w):
        s = -sum(p.offsets[i] * x for i, x in zip(chart.facet_set, w)) if twist else 0
        out = [c * s ** k for k, c in enumerate(scaled_exp)]
        for i, x in zip(chart.facet_set, w):
            if i in normal:
                continue
            f = [c * x ** k for k, c in enumerate(scaled_g)]
            out = [sum(map(mul, out[k::-1], f)) for k in range(n + 1)]
        return out

    return restrict, scale


def _twisted_genus(p, kind, u):
    _require_delzant(p)
    if u is None:
        u = choose_generic(enumerate_vertices(p))
    return localize(p, u, *_genus_restriction(p, kind))


def twisted_todd_breakdown(p, u=None):
    """<exp(w_P) prod Td(v_i), [M_P]>, the lattice point count, and its vertex terms."""
    return _twisted_genus(p, "Todd", u)


def twisted_signature_breakdown(p, u=None):
    """<exp(w_P) prod (v_i/2)/tanh(v_i/2), [M_P]> and its per-vertex terms."""
    return _twisted_genus(p, "SignatureHalf", u)


def volume_breakdown(p, u=None):
    """Euclidean volume by fixed points with per-vertex contributions."""
    return _twisted_genus(p, None, u)


def per_vertex_breakdown(contributions):
    """Per-vertex contributions keyed by the rendered point "(x,y,...)"."""
    return {"(%s)" % ",".join(str(x) for x in v): c for v, c in contributions}


def _localize_twice(p, u, restrict, scale):
    """Both generic vectors, the class at each, and the per-vertex breakdown
    at the first (u, when given)."""
    _require_delzant(p)
    charts = enumerate_vertices(p)
    u1 = u if u is not None else choose_generic(charts)
    u2 = choose_generic(charts, exclude=(tuple(u1),))
    lhs, per_vertex = localize(p, u1, restrict, scale)
    lhs2, _ = localize(p, u2, restrict, scale)
    return (u1, u2), lhs, lhs2, per_vertex_breakdown(per_vertex)


def check_pick(p, u=None):
    """Weighted lattice point count against the twisted signature.

    The left side is evaluated at two distinct generic vectors (both are
    reported); the right side is the closed-face weighted sum, cross-checked
    against the relative-interior formulation.
    """
    vectors, lhs, lhs2, per_vertex = _localize_twice(
        p, u, *_genus_restriction(p, "SignatureHalf"))
    fc = count_points(p)
    rhs = weighted_sum_closed(fc)
    rhs_relint = weighted_sum_relint(fc)
    n = p.dim
    breakdown = {
        "lhs_at_second_vector": lhs2,
        "relint_formulation_rhs": rhs_relint,
        "closed_count_by_dim": {str(d): fc.closed_by_dim(d) for d in range(n + 1)},
        "per_vertex": per_vertex,
    }
    if n == 2:
        area = volume_breakdown(p, vectors[0])[0]
        interior = fc.relint_by_dim(2)
        boundary = fc.total - interior
        breakdown["area"] = area
        breakdown["interior_points"] = interior
        breakdown["boundary_points"] = boundary
        breakdown["classical_pick_holds"] = area == interior + Fraction(boundary, 2) - 1
    holds = lhs == rhs and lhs2 == lhs and rhs_relint == rhs
    return Report("pick", p.name, lhs, rhs, holds, breakdown, vectors)


def check_todd(p, u=None):
    """Twisted Todd genus against the brute-force lattice point count."""
    vectors, lhs, lhs2, per_vertex = _localize_twice(p, u, *_genus_restriction(p, "Todd"))
    fc = count_points(p)
    rhs = Fraction(fc.total)
    breakdown = {
        "lhs_at_second_vector": lhs2,
        "closed_count_by_dim": {str(d): fc.closed_by_dim(d) for d in range(p.dim + 1)},
        "per_vertex": per_vertex,
    }
    holds = lhs == rhs and lhs2 == lhs
    return Report("todd", p.name, lhs, rhs, holds, breakdown, vectors)


def check_untwisted_signature(p, u=None):
    """Constant-twist genus term against the h-vector signature over 2^n."""
    vectors, lhs, lhs2, per_vertex = _localize_twice(
        p, u, *_genus_restriction(p, "SignatureHalf", twist=False))
    hv = h_vector(face_lattice(p))
    sigma = signature_from_h(hv)
    n = p.dim
    rhs = sigma / 2 ** n
    breakdown = {
        "lhs_at_second_vector": lhs2,
        "h_vector": list(hv.h),
        "signature": sigma,
        "per_vertex": per_vertex,
    }
    if n == 2:
        breakdown["four_minus_m"] = 4 - len(p.facets)
    holds = lhs == rhs and lhs2 == lhs
    return Report("signature", p.name, lhs, rhs, holds, breakdown, vectors)


def check_tetrahedron(p):
    """Interior-weighted count against Vol(P) - sum a_j / 3 for n = 3, m = 4."""
    if p.dim != 3 or len(p.facets) != 4:
        raise ShapeError("expected a 3-dimensional polytope with 4 facets, got dim %d with %d"
                         % (p.dim, len(p.facets)))
    _require_delzant(p)
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
    _require_delzant(p)
    fl = face_lattice(p)
    fc = count_points(p)
    u = choose_generic(enumerate_vertices(p))
    got = [localize(p, u, *_genus_restriction(p, "Todd", face=f), face=f)[0]
           for f in fl.faces]
    expected = [Fraction(fc.closed[fid]) for fid in range(len(fl.faces))]
    faces = {"dim%d/facets(%s)" % (f.dim, ",".join(map(str, f.facet_set))):
             {"twisted_todd": lhs, "lattice_count": rhs}
             for f, lhs, rhs in zip(fl.faces, got, expected)}
    return Report("face-todd", p.name, sum(got), sum(expected), got == expected,
                  {"faces": faces}, ())
