"""Integer and rational linear algebra against brute-force oracles."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from toricpick.errors import (DimensionError, NotUnimodularError,
                              SingularSystemError)
from toricpick.exact import (IntMatrix, det, det_adjugate, dot, frac_rank,
                             frac_solve, hermite_rows, integer_kernel_basis,
                             inverse_unimodular, solve_rational, vector_gcd)


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
        return IntMatrix.from_rows([[rng.choice([-1, 1])]])
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows)


def test_dot_and_gcd():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    with pytest.raises(DimensionError):
        dot((1, 2), (1, 2, 3))
    assert vector_gcd((0, 0)) == 0
    assert vector_gcd((4, -6)) == 2
    assert vector_gcd((3, 5)) == 1


def test_matrix_shape_and_access():
    m = IntMatrix.from_rows([(1, 2, 3), (4, 5, 6)])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1, 2] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.column(1) == (2, 5)
    assert m.transpose().row(1) == (2, 5)
    assert IntMatrix.from_columns([(1, 4), (2, 5), (3, 6)]) == m
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([(1, 2), (3,)])


def test_matrix_product():
    a = IntMatrix.from_rows([(1, 2), (3, 4)])
    b = IntMatrix.from_rows([(0, 1), (1, 0)])
    assert a.mul(b) == IntMatrix.from_rows([(2, 1), (4, 3)])
    with pytest.raises(DimensionError):
        a.mul(IntMatrix.from_rows([(1, 2, 3)]))


def test_det_small_cases():
    assert det(IntMatrix.identity(0)) == 1
    assert det(IntMatrix.identity(3)) == 1
    assert det(IntMatrix.from_rows([(2,)])) == 2
    assert det(IntMatrix.from_rows([(1, 2), (3, 4)])) == -2
    assert det(IntMatrix.from_rows([(0, 1), (1, 0)])) == -1
    assert det(IntMatrix.from_rows([(1, 2), (2, 4)])) == 0


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(IntMatrix.from_rows(rows)) == permutation_det(rows)


def test_det_adjugate_identity():
    rng = random.Random(29)
    singular = swapped = 0
    for n in range(6):
        for _ in range(60):
            # many zeros, so leading pivots vanish and rows must be swapped
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)]
                    for _ in range(n)]
            if n >= 2 and rng.random() < 0.25:
                # a dependent row makes the matrix singular
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            d, adj = det_adjugate(rows)
            assert d == permutation_det(rows)
            if d == 0:
                assert adj is None
                singular += 1
                continue
            swapped += n > 0 and rows[0][0] == 0
            for i in range(n):
                for j in range(n):
                    assert sum(adj[i][k] * rows[k][j] for k in range(n)) == d * (i == j)
    assert singular > 20 and swapped > 20
    assert det_adjugate([]) == (1, ())
    with pytest.raises(DimensionError):
        det_adjugate([(1, 2)])


def test_inverse_unimodular():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = random_unimodular(n, rng)
            inv = inverse_unimodular(m)
            assert m.mul(inv) == IntMatrix.identity(n)
            assert inv.mul(m) == IntMatrix.identity(n)
    with pytest.raises(NotUnimodularError) as err:
        inverse_unimodular(IntMatrix.from_rows([(2, 0), (0, 1)]))
    assert err.value.det == 2


def test_solve_rational():
    a = IntMatrix.from_rows([(2, 1), (1, 3)])
    x = solve_rational(a, (5, 10))
    assert x == (Fraction(1), Fraction(3))
    with pytest.raises(SingularSystemError):
        solve_rational(IntMatrix.from_rows([(1, 2), (2, 4)]), (1, 1))


def test_solve_agrees_with_fraction_elimination():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_unimodular(n, rng)
        rows = [m.row(i) for i in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        assert solve_rational(m, b) == frac_solve(rows, b)


def test_frac_rank():
    assert frac_rank([]) == 0
    assert frac_rank([(1, 2), (2, 4)]) == 1
    assert frac_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert frac_rank([(Fraction(1, 2), 0), (0, 1)]) == 2


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
            assert vector_gcd(b) == 1
        assert len(basis) == n - frac_rank(vectors)
        # saturation: scaling the constraints must not change the kernel
        scaled = [tuple(3 * x for x in v) for v in vectors]
        assert integer_kernel_basis(scaled, n) == basis
