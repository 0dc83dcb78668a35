"""Chern numbers: route one by Newton's identities against the m_lam route.

Route one of `chern_number` takes e_k of the weights at each vertex from
their power sums by Newton's identities.  Here it is held to the route it
replaced, kept in tests/oracles.py: e_omega expanded on the monomial
symmetric functions m_lam by 0-1 matrix counts over the Gale-Ryser support,
each m_lam evaluated by a dynamic programme.  That route is held in turn to
every ordered index tuple and permutation of the parts and to the product
of elementary symmetric polynomials expanded term by term, and the Chern
numbers to closed forms that need no oracle.  Run as a script, the
differential test sweeps every partition of delzant_family(8) at two
generic vectors:

    PYTHONPATH=src python tests/test_chern_dp.py
"""

import inspect
import time
from math import comb, factorial, prod

import pytest

from families import cube, delzant_family, simplex
from oracles import (chern_support, elementary_to_monomial,
                     fixed_point_partition_sum, monomial_chern_route,
                     monomial_coefficients, permutation_partition_sum, weight_table)
from toricpick import localization
from toricpick.errors import BudgetError
from toricpick.localization import (chern_number, choose_generic, gysin_power,
                                    integrate_monomial, partitions_of)
from toricpick.polytope import enumerate_vertices

SMALL = delzant_family(6)


def two_vectors(p):
    charts = enumerate_vertices(p)
    u1 = choose_generic(charts)
    return u1, choose_generic(charts, exclude=(u1,))


def newton_matches_the_monomial_route(p):
    """Route one against the m_lam oracle for every partition of n at both
    generic vectors; the number of pairs compared."""
    pairs = 0
    for u in two_vectors(p):
        for omega in partitions_of(p.dim):
            fixed = localization._chern_fixed_point(omega, *weight_table(p, u))
            assert fixed == monomial_chern_route(p, omega, u), (omega, u)
            pairs += 1
    return pairs


@pytest.mark.parametrize("name,p", SMALL, ids=[name for name, _ in SMALL])
def test_newton_route_matches_the_monomial_oracle(name, p):
    newton_matches_the_monomial_route(p)


@pytest.mark.parametrize("name,p", SMALL, ids=[name for name, _ in SMALL])
def test_partition_sum_matches_the_permutation_oracle(name, p):
    for u in two_vectors(p):
        for lam in partitions_of(p.dim):
            assert fixed_point_partition_sum(p, lam, u) == permutation_partition_sum(p, lam, u), (
                lam, u)


def test_family_reaches_dimension_six():
    assert {p.dim for _, p in SMALL} == {1, 2, 3, 4, 5, 6}
    assert len(SMALL) >= 30


@pytest.mark.parametrize("d", range(1, 9))
def test_zero_one_matrix_counts_match_the_multipoly_expansion(d):
    for omega in partitions_of(d):
        expanded = monomial_coefficients(omega, d, d)
        counted = {lam: elementary_to_monomial(omega, lam) for lam in partitions_of(d)}
        assert counted == {lam: expanded.get(lam, 0) for lam in partitions_of(d)}, omega


@pytest.mark.parametrize("d", range(1, 9))
def test_zero_one_matrix_counts_in_six_roots(d):
    """The restriction the Pontryagin rewrite of tests/oracles.py uses: six
    variables, so e_k with k > 6 vanishes and only lam with at most six
    parts occur."""
    for omega in partitions_of(d):
        expanded = monomial_coefficients(omega, 6, d)
        counted = {lam: elementary_to_monomial(omega, lam)
                   for lam in partitions_of(d) if len(lam) <= 6}
        assert counted == {lam: expanded.get(lam, 0) for lam in counted}, omega


def test_zero_one_matrix_count_edge_cases():
    assert elementary_to_monomial((), ()) == 1
    assert elementary_to_monomial((1,) * 8, (1,) * 8) == factorial(8)
    assert elementary_to_monomial((3,), (1, 1, 1)) == 1
    assert elementary_to_monomial((3,), (2, 1)) == 0
    assert elementary_to_monomial((2, 1), (1, 1, 1)) == 3
    assert elementary_to_monomial((1, 2), (1, 1, 1)) == 3
    assert elementary_to_monomial((2,), (1, 1, 0)) == 1
    assert elementary_to_monomial((2,), (1,)) == 0
    # row and column sums that differ leave a column short: no matrix
    assert elementary_to_monomial((), (1,)) == 0
    assert elementary_to_monomial((1,), (1, 1)) == 0
    assert elementary_to_monomial((2, 1), (2, 2)) == 0


@pytest.mark.parametrize("n", [6, 7, 8])
def test_projective_space_chern_numbers(n):
    """c(CP^n) = (1 + h)^(n+1) and h^n = 1."""
    p = simplex(n, 2)
    for omega in partitions_of(n):
        assert chern_number(p, omega) == prod(comb(n + 1, k) for k in omega), omega


@pytest.mark.parametrize("n", range(1, 9))
def test_product_of_projective_lines_chern_numbers(n):
    """c((P^1)^n) = prod (1 + 2 x_i) with x_i^2 = 0 and x_1..x_n = 1, so
    c_omega counts ordered splittings of the n factors, times 2^n."""
    p = cube(n)
    omegas = partitions_of(n) if n < 8 else [(1,) * 8, (2, 2, 2, 1, 1), (4, 3, 1), (8,)]
    values = {omega: chern_number(p, omega) for omega in omegas}
    for omega, value in values.items():
        assert value == 2 ** n * factorial(n) // prod(factorial(k) for k in omega), omega
    if n == 8:
        assert values[(1,) * 8] == 10321920


@pytest.mark.parametrize("n", range(1, 11))
def test_chern_support_is_the_gale_ryser_set(n):
    """m_lam has a nonzero coefficient in e_omega exactly when lam is
    dominated by the conjugate of omega; the support keeps partitions_of's
    order."""
    for omega in partitions_of(n):
        assert chern_support(omega) == [
            lam for lam in partitions_of(n) if elementary_to_monomial(omega, lam)], omega


@pytest.mark.parametrize("name,p", delzant_family(8), ids=[name for name, _ in delzant_family(8)])
def test_top_chern_number_is_the_euler_characteristic(name, p):
    assert chern_number(p, (p.dim,)) == len(enumerate_vertices(p))


@pytest.mark.parametrize("n", [26, 40, 60])
def test_simplex_chern_numbers_in_closed_form(n):
    """c(CP^n) = (1 + h)^(n+1): c_1^n = (n+1)^n and c_k^2 = C(n+1, k)^2."""
    p = simplex(n)
    assert chern_number(p, (1,) * n) == (n + 1) ** n
    k = n // 2
    assert chern_number(p, (k, k)) == comb(2 * k + 1, k) ** 2


def forbidden(*_args, **_kw):
    raise AssertionError("a route ran past the budget")


def test_chern_budget_boundary(monkeypatch):
    """Route one's estimate on the 3-simplex at u = (1, 2, 4), whose largest
    weight 4 has 3 bits: for (1, 1, 1), 4 vertices times n omega_1 + omega_1^2
    = 4 products on one 64-bit word, 16 steps; a refusal comes before either
    route."""
    p = simplex(3)
    assert choose_generic(enumerate_vertices(p)) == (1, 2, 4)
    with monkeypatch.context() as m:
        m.setattr(localization, "CHERN_BUDGET", 15)
        m.setattr(localization, "_chern_fixed_point", forbidden)
        m.setattr(localization, "localize", forbidden)
        with pytest.raises(BudgetError, match=r"^Chern number may take about 16 steps "
                                              r"\(4 vertices in dimension 3\), over the "
                                              r"limit of 15$"):
            chern_number(p, (1, 1, 1))
    monkeypatch.setattr(localization, "CHERN_BUDGET", 16)
    assert chern_number(p, (1, 1, 1)) == 4 ** 3


def test_chern_budget_charges_the_word_length(monkeypatch):
    """At u = (1, 2^40, 2^80) the largest weight on the 3-simplex has 81
    bits, so e_3 reaches 243 bits, 4 words: (3) costs 4 vertices times
    3 * 3 + 3^2 products times 4, 288 steps."""
    p = simplex(3)
    u = (1, 2 ** 40, 2 ** 80)
    with monkeypatch.context() as m:
        m.setattr(localization, "CHERN_BUDGET", 287)
        m.setattr(localization, "_chern_fixed_point", forbidden)
        m.setattr(localization, "localize", forbidden)
        with pytest.raises(BudgetError, match=r"about 288 steps \(4 vertices in dimension 3\)"):
            chern_number(p, (3,), u)
    monkeypatch.setattr(localization, "CHERN_BUDGET", 288)
    assert chern_number(p, (3,), u) == 4


def test_fixed_point_route_shares_nothing_with_the_class_route(monkeypatch):
    """No permutation enumeration and no m-variable polynomial; route one
    and the Gysin powers run with the class route disabled."""
    source = inspect.getsource(localization)
    assert "permutations" not in source
    assert "MultiPoly" not in source

    def forbidden(*_args, **_kw):
        raise AssertionError("route one reached the class route")

    p = dict(SMALL)["prism x prism"]
    u = two_vectors(p)[0]
    expected = {omega: chern_number(p, omega, u) for omega in partitions_of(p.dim)}
    powers = [integrate_monomial(p, [p.dim * (i == f) for i in range(len(p.facets))], u)
              for f in range(len(p.facets))]
    monkeypatch.setattr(localization, "_chern_restriction", forbidden)
    monkeypatch.setattr(localization, "localize", forbidden)
    for omega, value in expected.items():
        assert localization._chern_fixed_point(omega, *weight_table(p, u)) == value
        for lam in partitions_of(p.dim):
            fixed_point_partition_sum(p, lam, u)
    for f, value in enumerate(powers):
        assert gysin_power(p, f, p.dim, u) == value, f


def test_class_route_restricts_once_per_vertex(monkeypatch):
    """Inside chern_number only route two restricts e_omega to the vertices:
    one restriction call for its one localize, one entry per vertex."""
    calls, localized = [], []
    original, localize = localization._chern_restriction, localization.localize

    def counted(omega, weights):
        columns = original(omega, weights)
        calls.append((len(weights), [len(column) for column in columns]))
        return columns

    monkeypatch.setattr(localization, "_chern_restriction", counted)
    monkeypatch.setattr(localization, "localize",
                        lambda charts, tables, *args: localized.append(tables) or
                        localize(charts, tables, *args))
    p = cube(5)
    chern_number(p, (2, 2, 1))
    vertices = len(enumerate_vertices(p))
    assert calls == [(vertices, [vertices] * (p.dim + 1))]
    assert len(localized) == 1 and len(localized[0]) == 1


if __name__ == "__main__":
    start = time.perf_counter()
    family = delzant_family(8)
    pairs = sum(newton_matches_the_monomial_route(p) for _, p in family)
    print("%d (polytope, partition, vector) triples of %d polytopes agree with the m_lam "
          "route in %.1f s" % (pairs, len(family), time.perf_counter() - start))
