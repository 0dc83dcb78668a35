"""Fixed point integration over the toric manifold of a Delzant polytope.

At the vertex p the facet class v_i restricts to <mu_{p,i}, u> when facet i
passes through p and to 0 otherwise; the equivariant Euler class is the
product of the n incident restrictions.  Restricting a class to each vertex
as a series in one variable and summing restriction/Euler quotients gives
the pairing with the fundamental class, independent of the generic vector u.
Monomials, genus classes and Chern classes all integrate through that one
sum, localize; no class is expanded in the m facet classes.  Gysin powers
and the fixed point Chern route sum their own weights, independently.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, lcm, prod
from operator import mul

from .errors import (BudgetError, DimensionError, GenericityError, InputError,
                     RouteDisagreementError, ToricError)
from .exact import det, integers
from .polytope import derived, enumerate_vertices, require_delzant
from .series import elementary_to_monomial

# most steps chern_number's fixed point route may take by its estimate (see there); it
# admits every partition on the n-simplex up to n = 18 (1^18: 4.2 10^6 steps, some 2 s) and
# the n-cube up to n = 10, and (26) on the 26-simplex, but not 1^26, which would run 42 s
CHERN_BUDGET = 5 * 10 ** 6


def _primes():
    found = []
    q = 2
    while True:
        if all(q % f for f in found):
            found.append(q)
            yield q
        q += 1 if q == 2 else 2


def _candidate_vectors(n):
    """Injective stream of candidates: (1, t, t^2, ...) over primes t.

    In dimension 1 that family is the constant (1,), so there the stream
    walks (1,), (2,), (3,), ... instead; any nonzero entry is generic.
    """
    if n == 1:
        k = 1
        while True:
            yield (k,)
            k += 1
    else:
        for t in _primes():
            yield tuple(t ** k for k in range(n))


def choose_generic(charts, exclude=()):
    """First candidate u = (1, t, t^2, ...) that avoids every weight row.

    Each bad hyperplane <mu, u> = 0 excludes finitely many t, so the search
    terminates for any finite chart list.  The charts pass the Delzant
    gate, require_delzant, first.
    """
    if not charts:
        raise InputError("no vertex charts to choose a generic vector for")
    require_delzant(charts)
    n = len(charts[0].vertex)
    skip = {tuple(e) for e in exclude}
    for u in _candidate_vectors(n):
        if u not in skip and all(all(_weights(c, u)) for c in charts):
            return u


def _weights(c, u):
    """<mu_{p,i_j}, u> for the facets i_j through a Delzant chart's vertex,
    computed once per chart and u and kept on the chart for every reader."""
    if u not in c.weights:
        c.weights[u] = tuple(sum(map(mul, r, u)) for r in c.mu_matrix)
    return c.weights[u]


@derived  # a sweep over the faces of p at one u reuses them
def _chart_weights(p, u):
    """Per-chart weight tuples <mu_{p,i_j}, u> with genericity enforced; u
    is a tuple of integers; P passes the Delzant gate first."""
    charts = enumerate_vertices(p)
    require_delzant(charts)
    u = integers(u, DimensionError, "generic vector entry")
    n = p.dim
    if len(u) != n:
        raise DimensionError("generic vector has length %d, expected %d" % (len(u), n))
    data = []
    for c in charts:
        w = _weights(c, u)
        if not all(w):
            raise GenericityError(
                "u = %s pairs to zero with a weight at vertex %s; pick another vector"
                % (u, c.vertex))
        data.append((c, w))
    return tuple(data)


def assert_generic(p, u):
    """Check a candidate vector against every weight; raise if any pairs to zero."""
    _chart_weights(p, tuple(u))


def localize(p, u, restrict, scale=1, face=None):
    """Fixed point sum of a class given by its restrictions to the vertices.

    restrict(chart, w) returns the integer coefficients c_0..c_k of scale
    times the class at the chart's vertex as a series in t, where the j-th
    incident facet class restricts to w_j t and every other facet class to
    0.  Degree d sums c_d / (scale prod w) over the vertices, accumulated
    as an integer numerator over the lcm of the Euler products and divided
    once; every degree below k must sum to exactly 0, and a nonzero value
    there signals a chart bug, not a user error.  Returns the degree-k
    value and the per-vertex contributions, each summed over all degrees,
    as integer triples (vertex, numerator, denominator), not reduced.

    k is n, or dim F for a face F of face_lattice(p): the sum is then over
    the vertices of F, its Euler products take only the w_j with facet_set[j]
    not a facet of F (the edges in F), and restrict still gets all n w_j.
    """
    data = _chart_weights(p, tuple(u))
    k = p.dim
    if face is not None:
        data = [data[v] for v in face.vertices]
        k = face.dim
    nums = [0] * (k + 1)
    den = 1
    contributions = []
    for c, w in data:
        coeffs = restrict(c, w)
        euler = prod(w if face is None else
                     (x for i, x in zip(c.facet_set, w) if i not in face.facet_set))
        grown = lcm(den, euler)
        if grown != den:
            nums = [x * (grown // den) for x in nums]
            den = grown
        share = den // euler
        for d, cd in enumerate(coeffs):
            if cd:
                nums[d] += cd * share
        contributions.append((c.vertex, sum(coeffs), euler * scale))
    for d in range(k):
        if nums[d]:
            raise ToricError(
                "localization of the degree-%d part is %s, expected 0 (chart bug)"
                % (d, Fraction(nums[d], den * scale)))
    return Fraction(nums[k], den * scale), tuple(contributions)


def integrate_monomial(p, exponents, u):
    """Localization sum for one monomial in the facet classes.

    At a vertex the monomial restricts to the product of the weight powers
    of its facets in degree sum(e), or to 0 when one of them misses the
    vertex.  Degrees below n sum to exactly 0, degree n gives the
    intersection number.
    """
    exponents = integers(exponents, DimensionError, "exponent")
    if len(exponents) != len(p.facets):
        raise DimensionError("exponent vector length %d, expected %d" % (
            len(exponents), len(p.facets)))
    if any(e < 0 for e in exponents):
        raise DimensionError("negative exponent")
    degree = sum(exponents)
    if degree > p.dim:
        raise DimensionError("monomial degree exceeds the polytope dimension")
    powers = [(i, k) for i, k in enumerate(exponents) if k]

    def restrict(chart, w):
        at = dict(zip(chart.facet_set, w))
        if not all(i in at for i, _ in powers):
            return ()
        return [0] * degree + [prod(at[i] ** k for i, k in powers)]

    return localize(p, u, restrict)[0]


def _vertex_sum(p, u, numerator):
    """Sum over the vertices of numerator(chart, w) / prod w, an integer
    numerator accumulated over the lcm of the Euler products and divided
    once; the fixed point routes' own sum, apart from localize."""
    num, den = 0, 1
    for c, w in _chart_weights(p, tuple(u)):
        euler = prod(w)
        grown = lcm(den, euler)
        num = num * (grown // den) + numerator(c, w) * (grown // euler)
        den = grown
    return Fraction(num, den)


def gysin_power(p, facet, k, u):
    """Direct fixed point sum for the n-th power of one facet class.

    Sums <mu_{p,i}, u>^(n-1) over the product of the other incident weights,
    across the vertices on facet i; equals integrate_monomial at n*delta_i.
    """
    n = p.dim
    if k != n:
        raise DimensionError("the direct sum is stated for the top power k = n")
    if not 0 <= facet < len(p.facets):
        raise DimensionError("facet index %d out of range" % facet)
    # w_i^(n-1) / prod_{j != i} w_j = w_i^n / prod w
    return _vertex_sum(p, u, lambda c, w: (
        w[c.facet_set.index(facet)] ** n if facet in c.facet_set else 0))


def gysin_power_v3(p, facet, u):
    """3D evaluation of the same sum from raw normals via triple products.

    Writing <a, b, c> for det[a b c], each vertex on facet i with other
    facets j, k contributes <u, lam_j, lam_k>^2 divided by
    <u, lam_k, lam_i> <u, lam_i, lam_j>; the chart inverse never appears.
    """
    if p.dim != 3:
        raise DimensionError("triple product form is specific to dimension 3")
    if not 0 <= facet < len(p.facets):
        raise DimensionError("facet index %d out of range" % facet)
    uu = tuple(u)
    total = Fraction(0)
    for c in enumerate_vertices(p):
        if facet not in c.facet_set:
            continue
        others = [i for i in c.facet_set if i != facet]
        lam_i = p.normals[facet]
        lam_j, lam_k = p.normals[others[0]], p.normals[others[1]]
        a = det((uu, lam_j, lam_k))
        b = det((uu, lam_k, lam_i))
        cden = det((uu, lam_i, lam_j))
        if b == 0 or cden == 0:
            raise GenericityError("u = %s is not generic at vertex %s" % (uu, c.vertex))
        total += Fraction(a * a, b * cden)
    return total


def partitions_of(n):
    """All partitions of n as weakly decreasing tuples, largest part first."""
    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return tuple(gen(n, n))


def check_partition(omega, n=None):
    """Canonicalize a partition; optionally require a given total."""
    omega = integers(omega, DimensionError, "partition part")
    if not omega or any(w < 1 for w in omega):
        raise DimensionError("partition parts must be positive: %s" % (omega,))
    if tuple(sorted(omega, reverse=True)) != omega:
        raise DimensionError("partition must be weakly decreasing: %s" % (omega,))
    if n is not None and sum(omega) != n:
        raise DimensionError("partition %s does not sum to %d" % (omega, n))
    return omega


@lru_cache(maxsize=256)
def _placements(lam):
    """States of the m_lam dynamic programme (parts placed per distinct
    size), ordered by the number placed: the sizes, that number per state,
    and per state the (index, size position) of each state one part short."""
    sizes = sorted(set(lam))
    states = sorted(product(*(range(lam.count(s) + 1) for s in sizes)), key=sum)
    index = {st: i for i, st in enumerate(states)}
    return sizes, [sum(st) for st in states], [
        [(index[st[:k] + (x - 1,) + st[k + 1:]], k) for k, x in enumerate(st) if x]
        for st in states]


def _monomial_symmetric(lam, w):
    """m_lam(w), each distinct monomial of shape lam in the weights once.

    Weight by weight, each takes one part of lam not yet placed or none.
    After j of the n weights only states with between l - (n - j) and j of
    the l parts placed can still finish, so only those are updated, the
    most placed first, so that each reads the values from before weight j.
    """
    sizes, placed, steps = _placements(lam)
    n, l = len(w), len(lam)
    val = [1] + [0] * (len(steps) - 1)
    for j, x in enumerate(w, 1):
        power = [x ** s for s in sizes]
        for i in range(len(steps) - 1, 0, -1):
            if l - n + j <= placed[i] <= j:
                for src, k in steps[i]:
                    val[i] += val[src] * power[k]
    return val[-1]


def _fixed_point_sum(p, terms, u):
    """Sum over the vertices of sum_lam c_lam m_lam(w) / prod w for the
    (lam, c_lam) terms."""
    return _vertex_sum(p, u, lambda _c, w: sum(
        c * _monomial_symmetric(lam, w) for lam, c in terms))


def _chern_support(omega):
    """The partitions lam, in partitions_of's order, whose m_lam is in e_omega: by
    Gale-Ryser, those whose partial sums stay within those of omega's conjugate."""
    n = sum(omega)
    bound = list(accumulate(sum(x > i for x in omega) for i in range(n)))

    def gen(rest, cap, k):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap, bound[k] - n + rest), 0, -1):
            for tail in gen(rest - first, first, k + 1):
                yield (first,) + tail
    return list(gen(n, n, 0))


def _chern_fixed_point(p, omega, u):
    """Route one: e_omega = sum_lam c_lam m_lam with c_lam counted as 0-1
    matrices, each m_lam evaluated by the fixed point formula."""
    terms = [(lam, elementary_to_monomial(omega, lam)) for lam in _chern_support(omega)]
    return _fixed_point_sum(p, terms, u)


def _chern_restriction(omega, w):
    """prod_k e_{omega_k}(v) at a vertex; e_k(v_1..v_m) restricts to e_k(w) t^k."""
    e = [1] + [0] * len(w)
    for x in w:
        for k in range(len(w), 0, -1):
            e[k] += e[k - 1] * x
    return [0] * len(w) + [prod(e[k] for k in omega)]


def chern_number(p, omega, u=None):
    """Chern number for a partition of n, computed two independent ways.

    Route one expands the elementary symmetric product into monomial
    symmetric functions by integer counts and evaluates each by the literal
    fixed point formula, without the e_k of the weights; route two localizes
    prod_j e_{w_j}(v_1..v_m), restricted at each vertex to prod_j e_{w_j} of
    the n weights.  Any disagreement or non-integrality is reported as an
    error, never patched.  A BudgetError comes first if route one may pass
    CHERN_BUDGET steps.
    """
    n = p.dim
    omega = check_partition(omega, n)
    charts = enumerate_vertices(p)
    if u is None:
        u = choose_generic(charts)
    # route one updates each state of the m_lam programme, prod (multiplicity + 1)
    # of them for each lam in the support, once per weight at each vertex, and counts
    # c_lam by C(len(lam), omega_1) first-row choices, each of about omega_1 steps
    steps = sum(n * len(charts) * prod(lam.count(s) + 1 for s in set(lam))
                + omega[0] * comb(len(lam), omega[0]) for lam in _chern_support(omega))
    if steps > CHERN_BUDGET:
        raise BudgetError("Chern number may take about %d steps (%d vertices in dimension "
                          "%d), over the limit of %d" % (steps, len(charts), n, CHERN_BUDGET))
    route_fixed = _chern_fixed_point(p, omega, u)
    route_classes, _ = localize(p, u, lambda _c, w: _chern_restriction(omega, w))
    if route_fixed != route_classes:
        raise RouteDisagreementError(
            "fixed point route %s disagrees with class route %s for partition %s"
            % (route_fixed, route_classes, omega))
    if route_fixed.denominator != 1:
        raise RouteDisagreementError(
            "Chern number %s for partition %s is not an integer" % (route_fixed, omega))
    return route_fixed
