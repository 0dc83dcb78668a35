"""Chern numbers by integer symmetric-function counts.

Route one of `chern_number` evaluates each monomial symmetric function m_lam
at a vertex by a dynamic programme over the weights, and takes the
coefficient of m_lam in e_omega as a count of 0-1 matrices.  Here both are
held to the routes they replaced (every ordered index tuple and permutation
of the parts; the product of elementary symmetric polynomials expanded
term by term), and the Chern numbers to closed forms that need no oracle.
"""

import inspect
from math import comb, factorial, prod

import pytest

from families import cube, delzant_family, simplex
from oracles import (fixed_point_partition_sum, monomial_coefficients,
                     permutation_partition_sum)
from toricpick import localization
from toricpick.errors import BudgetError
from toricpick.localization import (chern_number, choose_generic, gysin_power,
                                    integrate_monomial, partitions_of)
from toricpick.polytope import enumerate_vertices
from toricpick.series import elementary_to_monomial

SMALL = delzant_family(6)


def two_vectors(p):
    charts = enumerate_vertices(p)
    u1 = choose_generic(charts)
    return u1, choose_generic(charts, exclude=(u1,))


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
        assert localization._chern_support(omega) == [
            lam for lam in partitions_of(n) if elementary_to_monomial(omega, lam)], omega


def test_chern_budget_boundary(monkeypatch):
    """Route one's estimate on the 3-simplex: every partition of 3 is in the
    support of e_(1,1,1); (3), (2, 1) and (1, 1, 1) have 2 + 4 + 4 states,
    each updated once per weight at each of the 4 vertices, 120 steps, and
    1 + 2 + 3 first-row choices of one column each, charged 1 step each,
    126 steps in all; a refusal comes before either route."""
    def forbidden(*_args):
        raise AssertionError("a route ran past the budget")

    p = simplex(3)
    with monkeypatch.context() as m:
        m.setattr(localization, "CHERN_BUDGET", 125)
        m.setattr(localization, "_chern_fixed_point", forbidden)
        m.setattr(localization, "localize", forbidden)
        with pytest.raises(BudgetError, match=r"^Chern number may take about 126 steps "
                                              r"\(4 vertices in dimension 3\), over the "
                                              r"limit of 125$"):
            chern_number(p, (1, 1, 1))
    monkeypatch.setattr(localization, "CHERN_BUDGET", 126)
    assert chern_number(p, (1, 1, 1)) == 4 ** 3


def test_chern_budget_charges_only_the_support(monkeypatch):
    """e_3 = m_(1,1,1): on the 3-simplex route one's estimate is the 4
    states of (1, 1, 1), once per weight at each of the 4 vertices, and the
    one first-row choice of all three columns, charged 3 steps, 51 steps in
    all; the 6 states of (3) and (2, 1), whose coefficients are 0, are not
    charged."""
    p = simplex(3)
    monkeypatch.setattr(localization, "CHERN_BUDGET", 50)
    with pytest.raises(BudgetError, match=r"about 51 steps \(4 vertices in dimension 3\)"):
        chern_number(p, (3,))
    monkeypatch.setattr(localization, "CHERN_BUDGET", 51)
    assert chern_number(p, (3,)) == 4


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
        assert localization._chern_fixed_point(p, omega, u) == value
        for lam in partitions_of(p.dim):
            fixed_point_partition_sum(p, lam, u)
    for f, value in enumerate(powers):
        assert gysin_power(p, f, p.dim, u) == value, f


def test_class_route_restricts_once_per_vertex(monkeypatch):
    """Inside chern_number only route two restricts e_omega to a vertex."""
    calls = []
    original = localization._chern_restriction

    def counted(omega, w):
        calls.append(w)
        return original(omega, w)

    monkeypatch.setattr(localization, "_chern_restriction", counted)
    p = cube(5)
    chern_number(p, (2, 2, 1))
    assert len(calls) == len(enumerate_vertices(p))
