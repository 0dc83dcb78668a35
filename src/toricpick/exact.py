"""Exact integer linear algebra on matrices given as lists of rows.

Everything downstream (vertex coordinates, fixed point sums, genus
coefficients) stays in exact arithmetic: rationals are fractions.Fraction
and matrix entries are arbitrary-precision integers.  No floating point
enters the computation path.
"""

from math import gcd

from .errors import DimensionError


def dot(u, v):
    """Exact scalar product of two equal-length vectors."""
    if len(u) != len(v):
        raise DimensionError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def vector_gcd(v):
    """gcd of the absolute entries; 0 for the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def det(rows):
    """Exact determinant of a square integer matrix given by rows, by
    fraction-free (Bareiss) elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise DimensionError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_adjugate(rows):
    """Determinant and adjugate of a square integer matrix given by rows.

    One fraction-free Gauss-Jordan elimination of [A | I]: every entry stays
    a minor of the augmented matrix, so each division is exact, and at the
    end the left block is det(PA) I and the right block det(PA) A^-1, where
    P is the row permutation of the pivoting.  Returns (det, adj) with adj
    a tuple of rows, adj A = det I; adj is None when det = 0.
    """
    n = len(rows)
    a = [[int(x) for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    if any(len(r) != 2 * n for r in a):
        raise DimensionError("det_adjugate needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in a)


def kernel_vector(rows, n):
    """A primitive integer d != 0 in Z^n with <d, r> = 0 for every row, or
    None when the rows span Q^n.

    One fraction-free Gauss-Jordan elimination (as in det_adjugate) brings
    the pivot columns to D I, D the last pivot; the first free column f
    then gives d_f = D and d_c = -a[i][f] at the pivot c of row i, the
    other free columns 0.  d is divided by its gcd and signed so that its
    first nonzero entry is positive, which fixes it when the kernel is a
    line.
    """
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise DimensionError("kernel_vector: rows must have length %d" % n)
    pivots = []
    prev = 1
    for c in range(n):
        k = len(pivots)
        piv = next((i for i in range(k, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        pivot_row = a[k]
        pivot = pivot_row[c]
        for i in range(len(a)):
            if i != k:
                f = a[i][c]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
        pivots.append(c)
    if len(pivots) == n:
        return None
    f = next(c for c in range(n) if c not in pivots)
    d = [0] * n
    d[f] = prev
    for i, c in enumerate(pivots):
        d[c] = -a[i][f]
    g = vector_gcd(d)
    if next(x for x in d if x) < 0:
        g = -g
    return tuple(x // g for x in d)
