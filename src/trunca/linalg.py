"""Small exact linear-algebra toolkit over Q and Z.

Everything in this package is exact: vectors are tuples of ``int`` or
``Fraction`` entries, matrices are tuples of row tuples acting on column
vectors, and there is no floating point anywhere.  ``dot``, and the matrix
products built on it, keep their entries' type, so integer vectors pair to
an ``int`` without building a ``Fraction``, and refuse a float result;
``vec``, ``vscale`` and the eliminations coerce through ``frac``, which
rejects floats.  The sizes involved are tiny (ambient dimension <= 8), so
the implementations are straightforward textbook ones; clarity wins over
asymptotics.

The integer half is the Smith normal form, which backs the lattice
computations: the quotient structure of one lattice inside another.

>>> mat_inverse(((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2))))
((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def frac(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (floats are rejected)."""
    if isinstance(x, float):
        raise TypeError("floating point is banned here; use Fraction")
    return Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def vadd(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(c, u) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def dot(u, v):
    """Pairing of a covector with a vector (or plain dot product), in the
    entries' own arithmetic: integer vectors give an ``int``.  A float entry
    makes the sum a float, which is rejected.

    >>> dot((1, 2), (3, Fraction(1, 2)))
    Fraction(4, 1)
    >>> dot((1, 2), (3, -1))
    1
    """
    if len(u) != len(v):
        raise ValueError(f"cannot pair vectors of lengths {len(u)} and {len(v)}")
    total = sum(map(mul, u, v))
    if type(total) is float:
        raise TypeError("floating point is banned here; use Fraction")
    return total


def zero_vec(n) -> Vec:
    return (Fraction(0),) * n


def basis_vec(n, i) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def matvec(m, v) -> Vec:
    """m acting on the column vector v."""
    return tuple(dot(row, v) for row in m)


def vecmat(row, m) -> Vec:
    """Row vector (covector) times matrix: the pullback of ``row`` along m."""
    return tuple(dot(row, col) for col in zip(*m))


def matmul(a, b) -> Mat:
    return tuple(vecmat(row, b) for row in a)


def identity_matrix(n) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def _gauss(rows, width):
    """Row-reduce in place (list of lists of Fractions); returns pivot cols."""
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def mat_inverse(m) -> Mat:
    """Inverse of a square matrix; raises ValueError if singular.

    >>> mat_inverse(((1, 1), (0, 1)))
    ((Fraction(1, 1), Fraction(-1, 1)), (Fraction(0, 1), Fraction(1, 1)))
    """
    n = len(m)
    rows = [[frac(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(m)]
    pivots = _gauss(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def solve(m, b) -> Vec:
    """Unique solution of m x = b for square invertible m."""
    return matvec(mat_inverse(m), b)


def lcm_den(values) -> int:
    """lcm of the denominators of an iterable of rationals (1 if empty)."""
    out = 1
    for v in values:
        out = math.lcm(out, frac(v).denominator)
    return out


def scaled_int_vec(v, scale) -> tuple[int, ...]:
    """v * scale as machine ints; scale must clear all denominators."""
    out = []
    for x in v:
        f = frac(x) * scale
        if f.denominator != 1:
            raise ValueError(f"scale {scale} does not clear denominator of {x}")
        out.append(f.numerator)
    return tuple(out)


# --- integer normal forms -------------------------------------------------
#
# Conventions: integer_smith takes a matrix of machine ints and returns
# its transforms as full matrices, so callers can push coordinates around
# without re-deriving them.


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _addmul_row(m, dst, src, c):
    m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]


def integer_smith(m):
    """Smith normal form of an integer matrix.

    Returns (d, U, V): U*m*V is diagonal with diagonal d, each d[i] >= 0 and
    d[i] | d[i+1], U and V unimodular.

    >>> d, U, V = integer_smith(((2, 0), (0, 3)))
    >>> d
    (1, 6)
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    a = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def addmul_col(mat, dst, src, c):
        for row in mat:
            row[dst] += c * row[src]

    def swap_cols(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < min(nrows, ncols):
        # find a nonzero pivot in the lower-right block
        piv = None
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        _swap_rows(a, k, piv[0])
        _swap_rows(u, k, piv[0])
        swap_cols(a, k, piv[1])
        swap_cols(v, k, piv[1])
        # clear row and column k by Euclid
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    _addmul_row(a, i, k, -q)
                    _addmul_row(u, i, k, -q)
                    if a[i][k] != 0:
                        _swap_rows(a, k, i)
                        _swap_rows(u, k, i)
                        dirty = True
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    addmul_col(a, j, k, -q)
                    addmul_col(v, j, k, -q)
                    if a[k][j] != 0:
                        swap_cols(a, k, j)
                        swap_cols(v, k, j)
                        dirty = True
        # enforce divisibility d_k | a[i][j] for the rest
        offender = None
        for i in range(k + 1, nrows):
            for j in range(k + 1, ncols):
                if a[i][j] % a[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _addmul_row(a, k, offender, 1)
            _addmul_row(u, k, offender, 1)
            continue  # redo pivot k
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    d = tuple(a[i][i] if i < ncols else 0 for i in range(min(nrows, ncols)))
    return d, tuple(map(tuple, u)), tuple(map(tuple, v))


def is_positive_definite(m) -> bool:
    """Sylvester's criterion on a symmetric rational matrix: every leading
    minor is positive, that is every pivot of elimination without row swaps
    (the k-th pivot is the k-th leading minor over the one before it).

    >>> is_positive_definite(((2, -1), (-1, 2)))
    True
    >>> is_positive_definite(((2, -2), (-2, 2)))
    False
    """
    rows = [[frac(x) for x in row] for row in m]
    for c, pivot_row in enumerate(rows):
        if pivot_row[c] <= 0:
            return False
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / pivot_row[c]
            rows[i] = [x - f * y for x, y in zip(rows[i], pivot_row)]
    return True


def enumerate_box(lo, hi):
    """All integer tuples n with lo[i] <= n[i] <= hi[i].

    >>> list(enumerate_box((0, 0), (1, 1)))
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """
    ranges = [range(a, b + 1) for a, b in zip(lo, hi, strict=True)]
    return itertools.product(*ranges)
