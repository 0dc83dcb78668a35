"""Fixed point integration over the toric manifold of a Delzant polytope.

At the vertex p the facet class v_i restricts to <mu_{p,i}, u> when facet i
passes through p and to 0 otherwise; the equivariant Euler class is the
product of the n incident restrictions.  Restricting a class to each vertex
as a series in one variable and summing restriction/Euler quotients gives
the pairing with the fundamental class, independent of the generic vector u.
Monomials, genus classes and Chern classes all integrate through that one
sum, localize; no class is expanded in the m facet classes.  Gysin powers
and the fixed point Chern route sum their own weights, independently; that
route takes the elementary symmetric functions of the weights from their
power sums by Newton's identities.
"""

from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from operator import add, attrgetter, floordiv, mul, neg

from .errors import (BudgetError, DimensionError, GenericityError, InputError,
                     RouteDisagreementError, ToricError)
from .exact import det, integers
from .polytope import enumerate_vertices, require_delzant

# most steps chern_number's fixed point route may take by its estimate (see there), 9-13 ns
# each on a 2-core VM: it admits every partition on the n-simplex up to n = 79 and on each cube
# the walk admits; the first (n) refused on the n-simplex is (80), 1.04 10^8 steps, about 1 s
CHERN_BUDGET = 10 ** 8


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
    terminates for any finite chart list.  The charts, a ChartTable, pass
    the Delzant gate, require_delzant, first; each candidate weighs them all.
    """
    if not charts:
        raise InputError("no vertex charts to choose a generic vector for")
    require_delzant(charts)
    skip = {tuple(e) for e in exclude}
    for u in _candidate_vectors(len(charts[0].vertex)):
        if u not in skip and charts.weigh(u)[1] is None:
            return u


def _vector(p, u):
    """u as n = dim P ints, or a DimensionError naming a non-integer entry or the length."""
    u = integers(u, DimensionError, "generic vector entry")
    if len(u) != p.dim:
        raise DimensionError("generic vector has length %d, expected %d" % (len(u), p.dim))
    return u


def _chart_weights(p, u):
    """P's chart table and its weight tuples <mu_{p,i_j}, u>, genericity
    enforced; every read passes the Delzant gate and checks that u is n
    integers before it looks u up, since 1.0 == 1 (see ChartTable.weigh)."""
    charts = enumerate_vertices(p)
    require_delzant(charts)
    u = _vector(p, u)
    weights, zero = charts.weigh(u)
    if zero is not None:
        raise GenericityError("u = %s pairs to zero with a weight at vertex %s; pick another "
                              "vector" % (u, zero.vertex))
    return charts, weights


def assert_generic(p, u):
    """Check a candidate vector against every weight; raise if any pairs to zero."""
    _chart_weights(p, tuple(u))


def _fixed_point_value(nums, den, scale):
    """The degree-n value nums[-1] / (den scale) of a sum of restriction/Euler
    quotients, nums its integer numerators by degree 0..n over den, the lcm
    of the Euler products; a nonzero degree below n signals a chart bug."""
    if any(nums[:-1]):
        d, x = next((d, x) for d, x in enumerate(nums) if x)
        raise ToricError("localization of the degree-%d part is %s, expected 0 "
                         "(chart bug)" % (d, Fraction(x, den * scale)))
    return Fraction(nums[-1], den * scale)


def localize(p, vectors, restrict, scale=1, terms=False):
    """Fixed point sums of a class given by its restrictions to the vertices,
    at every generic vector of vectors in one pass.

    The (vector, vertex) pairs run over the vertices of P at vectors[0],
    then at vectors[1], and so on.  restrict(charts, weights) gets the chart
    and the weight tuple w of every pair, the j-th incident facet class
    restricting to w_j t and every other facet class to 0, and returns n + 1
    integer columns c_0..c_n, one per degree with one entry per pair: the
    coefficients of scale times the class as a series in t.  At each vector,
    degree d sums c_d / (scale prod w) over the vertices under one lcm; the
    degrees below n must vanish.  Returns the degree-n value at each
    vector, in order, and, only if terms, the per-vertex contributions at
    vectors[0], each summed over all degrees, as (vertex, Fraction) pairs;
    None otherwise, so a caller that reads only values divides once.
    """
    charts = enumerate_vertices(p)
    weights = [w for u in vectors for w in _chart_weights(p, tuple(u))[1]]
    columns, eulers = restrict(charts * len(vectors), weights), list(map(prod, weights))
    values, size = [], len(charts)
    for start in range(0, len(eulers), size):
        batch = eulers[start:start + size]
        den = lcm(*batch)
        shares = list(map(floordiv, repeat(den), batch))
        nums = [sum(map(mul, column[start:start + size], shares)) for column in columns]
        values.append(_fixed_point_value(nums, den, scale))
    if not terms:
        return tuple(values), None
    return tuple(values), tuple(zip(map(attrgetter("vertex"), charts), map(
        Fraction, map(sum, zip(*columns)), map(mul, eulers, repeat(scale)))))


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

    def restrict(charts, weights):
        column = [prod(w[c.facet_set.index(i)] ** k for i, k in powers)
                  if all(i in c.facet_set for i, _ in powers) else 0
                  for c, w in zip(charts, weights)]
        zero = [0] * len(column)
        return [zero] * degree + [column] + [zero] * (p.dim - degree)

    return localize(p, (u,), restrict)[0][0]


def _vertex_sum(charts, weights, numerator):
    """Sum over the vertices of numerator / prod w, numerator(charts, weights)
    a column of one integer per vertex, over the lcm of the Euler products
    and divided once; the fixed point routes' own sum, apart from localize."""
    eulers = list(map(prod, weights))
    den = lcm(*eulers)
    return Fraction(sum(map(mul, numerator(charts, weights), map(floordiv, repeat(den), eulers))),
                    den)


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
    return _vertex_sum(*_chart_weights(p, tuple(u)), lambda charts, weights: [
        w[c.facet_set.index(facet)] ** n if facet in c.facet_set else 0
        for c, w in zip(charts, weights)])


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
    uu = _vector(p, u)
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


def _chern_fixed_point(omega, charts, weights):
    """Route one: prod_k e_{omega_k}(w) / prod w summed over the vertices, each
    e_k from the power sums of the weights by Newton's identities,
    k e_k = sum_{i <= k} (-1)^(i-1) e_{k-i} p_i (Macdonald, Symmetric Functions
    and Hall Polynomials, I.2), each division exact."""
    top = omega[0]

    def numerator(_charts, weights):
        # q_i = (-1)^(i-1) p_i(w), kept as -sum (-w_j)^i, a column over the vertices
        minus = [list(map(neg, column)) for column in zip(*weights)]
        powers, q = [[-1] * len(weights)] * len(minus), [None]
        for _ in range(top):
            powers = [list(map(mul, a, b)) for a, b in zip(powers, minus)]
            q.append(list(map(sum, zip(*powers))))
        e = [[1] * len(weights)]
        for k in range(1, top + 1):
            terms = zip(*[map(mul, e[k - i], q[i]) for i in range(1, k + 1)])
            e.append(list(map(floordiv, map(sum, terms), repeat(k))))
        return map(prod, zip(*(e[k] for k in omega)))
    return _vertex_sum(charts, weights, numerator)


def _chern_restriction(omega, weights):
    """prod_k e_{omega_k}(v) at each vertex as the n + 1 columns localize takes;
    e_k(v_1..v_m) restricts to e_k(w) t^k, built weight by weight."""
    size, top = len(weights), omega[0]
    e = [[1] * size] + [[0] * size] * top
    for j, column in enumerate(zip(*weights), 1):
        for k in range(min(j, top), 0, -1):
            e[k] = list(map(add, e[k], map(mul, e[k - 1], column)))
    return [[0] * size] * len(weights[0]) + [list(map(prod, zip(*(e[k] for k in omega))))]


def chern_number(p, omega, u=None):
    """Chern number for a partition of n, computed two independent ways.

    Route one sums prod_j e_{omega_j}(w) / prod w over the vertices by the
    fixed point formula, each e_k of the n weights w from their power sums by
    Newton's identities; route two localizes prod_j e_{omega_j}(v_1..v_m),
    restricted at each vertex to prod_j e_{omega_j} of the weights, built
    factor by factor up to e_{omega_1}.  Any disagreement or non-integrality is
    reported as an error, never patched.  A BudgetError comes first if route
    one may pass CHERN_BUDGET steps.
    """
    n = p.dim
    omega = check_partition(omega, n)
    if u is None:
        u = choose_generic(enumerate_vertices(p))
    charts, weights = _chart_weights(p, tuple(u))  # the budget's and route one's
    # route one takes n omega_1 products for the power sums and omega_1^2 for Newton's
    # identities at each vertex, on numbers of up to omega_1 b bits, b the largest weight's
    top = omega[0]
    bits = max(abs(x) for w in weights for x in w).bit_length()
    steps = len(charts) * (n * top + top * top) * -(-top * bits // 64)
    if steps > CHERN_BUDGET:
        raise BudgetError("Chern number may take about %d steps (%d vertices in dimension "
                          "%d), over the limit of %d" % (steps, len(charts), n, CHERN_BUDGET))
    route_fixed = _chern_fixed_point(omega, charts, weights)
    (route_classes,), _ = localize(p, (u,), lambda _c, w: _chern_restriction(omega, w))
    if route_fixed != route_classes:
        raise RouteDisagreementError(
            "fixed point route %s disagrees with class route %s for partition %s"
            % (route_fixed, route_classes, omega))
    if route_fixed.denominator != 1:
        raise RouteDisagreementError(
            "Chern number %s for partition %s is not an integer" % (route_fixed, omega))
    return route_fixed
