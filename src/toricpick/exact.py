"""Exact integer linear algebra on matrices given as lists of rows.

Everything downstream (vertex coordinates, fixed point sums, genus
coefficients) stays in exact arithmetic: rationals are fractions.Fraction
and matrix entries are arbitrary-precision integers.  No floating point
enters the computation path.
"""

from operator import index

from .errors import DimensionError


def integers(values, error, what):
    """values as a tuple of ints, the library's one integer test: what
    operator.index refuses (floats and Fractions, whole or not) and bools,
    which it takes as 0 and 1, are refused, the first of them named in an
    error, as is values itself when it is not a sequence."""
    try:
        values = tuple(values)
        if bool not in map(type, values):
            return tuple(map(index, values))
    except TypeError:
        if not isinstance(values, tuple):
            raise error("expected a sequence of %s integers, got %r" % (what, values)) from None
    bad = next(x for x in values if type(x) is bool or not hasattr(type(x), "__index__"))
    raise error("%s %r is not an integer" % (what, bad))


def dot(u, v):
    """Exact scalar product of two equal-length vectors."""
    if len(u) != len(v):
        raise DimensionError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


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
