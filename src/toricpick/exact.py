"""Exact rational arithmetic and small integer linear algebra.

Everything downstream (vertex coordinates, fixed point sums, genus
coefficients) stays in exact arithmetic: rationals are fractions.Fraction
and matrices carry arbitrary-precision integers.  No floating point enters
the computation path.
"""

from fractions import Fraction
from math import gcd

from .errors import DimensionError, NotUnimodularError, SingularSystemError

# Rational values are plain fractions.Fraction: always in lowest terms,
# positive denominator, canonical zero.  The alias fixes the name used
# throughout the package.
Rational = Fraction


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


class IntMatrix:
    """Dense integer matrix, row major, immutable."""

    def __init__(self, rows, cols, entries):
        entries = tuple(int(x) for x in entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                "IntMatrix: expected %d entries, got %d" % (rows * cols, len(entries)))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("IntMatrix.from_rows: ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def from_columns(cls, cols):
        return cls.from_rows(list(zip(*cols)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self):
        return IntMatrix.from_rows([self.column(j) for j in range(self.cols)])

    def mul(self, other):
        if self.cols != other.rows:
            raise DimensionError("matrix product: %dx%d times %dx%d" % (
                self.rows, self.cols, other.rows, other.cols))
        ent = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                ent.append(dot(r, other.column(j)))
        return IntMatrix(self.rows, other.cols, ent)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "IntMatrix(%r)" % [list(self.row(i)) for i in range(self.rows)]


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [[m[i, j] for j in range(n)] for i in range(n)]
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


def inverse_unimodular(m):
    """Exact integer inverse of a matrix with determinant +-1 (adjugate)."""
    d, adj = det_adjugate([m.row(i) for i in range(m.rows)])
    if d not in (1, -1):
        raise NotUnimodularError(d)
    return IntMatrix(m.rows, m.cols, [d * x for r in adj for x in r])


def solve_rational(a, b):
    """Solve a*x = b exactly as x = adj(a) b / det(a); entries are rationals."""
    if a.rows != len(b):
        raise DimensionError("solve: %d equations, %d right-hand entries" % (a.rows, len(b)))
    d, adj = det_adjugate([a.row(i) for i in range(a.rows)])
    if d == 0:
        raise SingularSystemError("system matrix is singular")
    return tuple(Fraction(dot(r, b), d) for r in adj)


def frac_rank(rows):
    """Rank over the rationals of a list of vectors."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def frac_solve(rows, rhs):
    """Solve a square rational system exactly by Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(rhs[i])] for i, r in enumerate(rows)]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            raise SingularSystemError("system matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


def _echelon_transform(mat, width):
    """Integer row echelon form via unimodular row operations.

    Returns (h, u, pivots) with u * mat = h, u unimodular and h in echelon
    shape; pivots lists the pivot column of each nonzero row of h.
    """
    h = [list(r) for r in mat]
    k = len(h)
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    r = 0
    pivots = []
    for c in range(width):
        if r == k:
            break
        while True:
            live = [i for i in range(r, k) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            for i in range(r + 1, k):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    if q:
                        h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            if all(h[i][c] == 0 for i in range(r + 1, k)):
                pivots.append(c)
                r += 1
                break
    return h, u, pivots


def hermite_rows(rows):
    """Canonical row form of an integer lattice basis.

    Unimodular row operations only, so the row lattice is unchanged:
    echelon shape, positive pivots, entries above each pivot reduced.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    h, _u, pivots = _echelon_transform(rows, len(rows[0]))
    h = h[:len(pivots)]
    for idx in range(len(pivots)):
        c = pivots[idx]
        if h[idx][c] < 0:
            h[idx] = [-x for x in h[idx]]
        for above in range(idx):
            q = h[above][c] // h[idx][c]
            if q:
                h[above] = [a - q * b for a, b in zip(h[above], h[idx])]
    return tuple(tuple(r) for r in h)


def integer_kernel_basis(vectors, n):
    """Basis of the saturated integer kernel {d in Z^n : <d, v> = 0 for all v}.

    Carrying a unimodular transform to echelon form makes the result a basis
    of every integer point of the rational kernel, not merely a finite-index
    sublattice.  Rows come back in canonical (Hermite) form.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    mat = [[v[i] for v in vectors] for i in range(n)]
    h, u, _pivots = _echelon_transform(mat, len(vectors))
    basis = [tuple(u[i]) for i in range(n) if all(x == 0 for x in h[i])]
    return hermite_rows(basis)
