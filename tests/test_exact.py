"""Integer and rational linear algebra against brute-force oracles."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from families import get, unimodular_transform
from oracles import (_cofactor_inverse, _cramer, frac_rank, frac_solve,
                     hermite_rows, identity, integer_kernel_basis, mat_mul)
from toricpick.errors import DimensionError
from toricpick.exact import det, dot


def permutation_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def random_unimodular(n, rng, shears=8):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return [[rng.choice([-1, 1])]]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    with pytest.raises(DimensionError):
        dot((1, 2), (1, 2, 3))


def test_det_small_cases():
    assert det(identity(0)) == 1
    assert det(identity(3)) == 1
    assert det([(2,)]) == 2
    assert det([(1, 2), (3, 4)]) == -2
    assert det([(0, 1), (1, 0)]) == -1
    assert det([(1, 2), (2, 4)]) == 0
    with pytest.raises(DimensionError):
        det([(1, 2, 3), (4, 5, 6)])
    # the rows passed in are not changed
    rows = [[0, 1], [1, 0]]
    det(rows)
    assert rows == [[0, 1], [1, 0]]


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(rows) == permutation_det(rows)


def test_inverse_unimodular():
    """det(U) adj(U), by cofactors, is the inverse of U when det(U) = +-1:
    the inverse the test families' unimodular_transform maps normals with."""
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = random_unimodular(n, rng)
            d = det(m)
            assert d in (1, -1)
            inv = _cofactor_inverse(m, d)
            assert mat_mul(m, inv) == identity(n)
            assert mat_mul(inv, m) == identity(n)
    with pytest.raises(ValueError, match="det = 2"):
        unimodular_transform(get("square1"), [(2, 0), (0, 1)], (0, 0))


def cramer_solve(rows, b):
    """x_j = det(A with column j replaced by b) / det(A), the solve the
    subset scan oracle is built on; None when det(A) = 0."""
    if det(rows) == 0:
        return None
    return _cramer(rows, b)


def test_solve_rational():
    rows = [(2, 1), (1, 3)]
    assert cramer_solve(rows, (5, 10)) == (Fraction(1), Fraction(3)) == frac_solve(rows, (5, 10))
    assert cramer_solve([(1, 2), (2, 4)], (1, 1)) is None
    with pytest.raises(ValueError, match="singular"):
        frac_solve([(1, 2), (2, 4)], (1, 1))


def test_solve_agrees_with_fraction_elimination():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = random_unimodular(n, rng)
        b = [rng.randint(-9, 9) for _ in range(n)]
        assert cramer_solve(rows, b) == frac_solve(rows, b)
    # |det| > 1: the division by det is a genuine rational one
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        x = cramer_solve(rows, b)
        if x is None:
            with pytest.raises(ValueError, match="singular"):
                frac_solve(rows, b)
        else:
            assert x == frac_solve(rows, b)


def test_frac_rank():
    assert frac_rank([]) == 0
    assert frac_rank([(1, 2), (2, 4)]) == 1
    assert frac_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert frac_rank([(Fraction(1, 2), 0), (0, 1)]) == 2
    assert frac_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1
    assert frac_rank([(0, 0, 5), (0, 2, 1), (0, 4, Fraction(7, 3))]) == 2
    assert frac_rank([(0, 0), (0, 0)]) == 0


def test_hermite_rows_canonical():
    assert hermite_rows([]) == ()
    assert hermite_rows([(2, 4), (1, 1)]) == ((1, 1), (0, 2))
    assert hermite_rows([(-1, 0), (0, -1)]) == ((1, 0), (0, 1))
    # row order and signs of the input do not change the canonical form
    assert hermite_rows([(1, 1), (2, 4)]) == hermite_rows([(-2, -4), (1, 1)])


def test_integer_kernel_basis_is_saturated():
    assert integer_kernel_basis([], 2) == ((1, 0), (0, 1))
    assert integer_kernel_basis([(2, 4)], 2) == ((2, -1),)
    assert integer_kernel_basis([(1, 0), (0, 1)], 2) == ()
    basis = integer_kernel_basis([(1, 1, 1)], 3)
    assert len(basis) == 2
    for b in basis:
        assert dot(b, (1, 1, 1)) == 0
    # the primitive direction (1, 0, -1) must be an integer combination
    rows = hermite_rows(list(basis) + [(1, 0, -1)])
    assert rows == hermite_rows(basis)


def test_integer_kernel_basis_random_saturation():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        vectors = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        basis = integer_kernel_basis(vectors, n)
        for b in basis:
            assert all(dot(b, v) == 0 for v in vectors)
            assert gcd(*b) == 1
        assert len(basis) == n - frac_rank(vectors)
        # saturation: scaling the constraints must not change the kernel
        scaled = [tuple(3 * x for x in v) for v in vectors]
        assert integer_kernel_basis(scaled, n) == basis
