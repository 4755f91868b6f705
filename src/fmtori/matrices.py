"""Exact matrices over the integers and rationals.

Everything downstream (lattices, tori, slope subvarieties, audits) runs on
exact arithmetic: Python ints and ``fractions.Fraction``.  ``Mat`` is a small
immutable matrix type; the module-level functions supply the integer normal
forms (the column Hermite form and the Smith invariant factors; no caller
reads a unimodular transform, so none is built), saturated integer kernels,
and exact linear solvers.  No floating point appears anywhere in the package.

The arithmetic is fraction-free: a rational matrix is handled as an integer
matrix over one common denominator, products and eliminations run on
Python ints alone (Bareiss 1968; Nakos, Turner and Williams 1997 for the
Gauss-Jordan form), and ``Fraction`` objects are made only for result
entries, one exact division each.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Scalar = int | Fraction
Vec = tuple[Scalar, ...]


def _exact(x: Scalar) -> Scalar:
    # normalize Fraction(n, 1) down to int so reprs and hashes stay clean;
    # a bool becomes a plain int, so entry type checks can test int exactly
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


def _normalized(data: tuple[tuple, ...]) -> tuple[tuple[Scalar, ...], ...]:
    """Rows with every entry passed through ``_exact``; data itself when every
    entry is already an int (the common case, checked without copying)."""
    for row in data:
        for x in row:
            if type(x) is not int:
                return tuple(tuple(map(_exact, row)) for row in data)
    return data


def _over(x: int, d: int) -> Scalar:
    """x / d as an exact scalar: an int when d divides x."""
    q, r = divmod(x, d)
    return q if r == 0 else Fraction(x, d)


def _int_rows(data: Sequence[Sequence[Scalar]], d: int) -> tuple[tuple[int, ...], ...]:
    """The rows of d * data as ints, for d a common denominator of the entries."""
    if d == 1:
        return data
    return tuple(
        tuple(x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row)
        for row in data
    )


def _denominator(rows: Iterable[Sequence[Scalar]]) -> int:
    """lcm of the entry denominators (1 when every entry is an int)."""
    d = 1
    for row in rows:
        for x in row:
            if type(x) is not int:
                d = lcm(d, x.denominator)
    return d


class Mat:
    """Immutable exact matrix (entries int or Fraction).

    ``Mat(rows)`` is the input boundary: it normalizes every entry and infers
    the shape from the rows.  Results whose entries are already exact are
    built with ``Mat._make``, which trusts its rows and takes the shape
    explicitly, so zero-width matrices keep it (``Mat.zeros(0, 3)`` is 0x3).
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[Scalar]]):
        d = _normalized(tuple(map(tuple, data)))
        cols = len(d[0]) if d else 0
        for row in d:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "rows", len(d))
        object.__setattr__(self, "cols", cols)

    @staticmethod
    def _make(data: tuple[tuple[Scalar, ...], ...], rows: int, cols: int) -> "Mat":
        """A Mat on a tuple of ``rows`` row tuples of length ``cols`` whose
        entries are already exact ints or non-integral Fractions."""
        m = object.__new__(Mat)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        return m

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Mat is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._make(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n, n
        )

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat._make(((0,) * c,) * r, r, c)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[Scalar]]) -> "Mat":
        if not cols:
            raise ValueError("need at least one column")
        n = len(cols[0])
        return Mat([[col[i] for col in cols] for i in range(n)])

    @staticmethod
    def hstack(*mats: "Mat") -> "Mat":
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise ValueError("row count mismatch in hstack")
        data = tuple(sum((m.data[i] for m in mats), ()) for i in range(r))
        return Mat._make(data, r, sum(m.cols for m in mats))

    @staticmethod
    def vstack(*mats: "Mat") -> "Mat":
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise ValueError("column count mismatch in vstack")
        data = tuple(row for m in mats for row in m.data)
        return Mat._make(data, len(data), c)

    @staticmethod
    def block(rows_of_blocks: Sequence[Sequence["Mat"]]) -> "Mat":
        return Mat.vstack(*[Mat.hstack(*row) for row in rows_of_blocks])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(self.data[i][j] for i in range(self.rows))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Mat":
        d = self.data
        return Mat._make(
            tuple(tuple(d[i][j] for j in cols) for i in rows), len(rows), len(cols)
        )

    @property
    def T(self) -> "Mat":
        if not self.rows:
            return Mat._make(((),) * self.cols, self.cols, 0)
        return Mat._make(tuple(zip(*self.data)), self.cols, self.rows)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)
        )
        return Mat._make(_normalized(data), self.rows, self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat._make(
            tuple(tuple(-x for x in row) for row in self.data), self.rows, self.cols
        )

    def __rmul__(self, c: Scalar) -> "Mat":
        # (n / dc) * (a / da) with a integral: integer products, then one
        # exact division per entry
        n, da = c.numerator, self.denominator()
        data = tuple(tuple(n * x for x in row) for row in _int_rows(self.data, da))
        d = c.denominator * da
        if d != 1:
            data = tuple(tuple(_over(x, d) for x in row) for row in data)
        return Mat._make(data, self.rows, self.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        # (a / da) @ (b / db) with a, b integral: integer products, then one
        # exact division per entry
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        da, db = self.denominator(), other.denominator()
        b = _int_rows(other.data, db)
        bt = tuple(zip(*b)) if b else ((),) * other.cols
        data = tuple(
            tuple(sum(map(mul, row, col)) for col in bt) for row in _int_rows(self.data, da)
        )
        d = da * db
        if d != 1:
            data = tuple(tuple(_over(x, d) for x in row) for row in data)
        return Mat._make(data, self.rows, other.cols)

    def apply(self, v: Sequence[Scalar]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.data]})"

    # -- predicates and scalar invariants ------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_integral(self) -> bool:
        return all(type(x) is int for row in self.data for x in row)

    def is_alternating(self) -> bool:
        return self.is_square and self.T == -self

    def denominator(self) -> int:
        """lcm of entry denominators (1 for an integer matrix)."""
        return _denominator(self.data)

    def cleared(self) -> tuple["Mat", int]:
        """(d * self, d): the integral multiple over the denominator d."""
        d = self.denominator()
        return Mat._make(_int_rows(self.data, d), self.rows, self.cols), d

    def content(self) -> int:
        """gcd of the absolute entries of an integral matrix (0 if zero)."""
        if not self.is_integral():
            raise ValueError("content is defined for integral matrices")
        g = 0
        for row in self.data:
            for x in row:
                g = gcd(g, abs(x))
        return g

    def to_int(self) -> "Mat":
        if not self.is_integral():
            raise ValueError("matrix is not integral")
        return self

    def det(self) -> Scalar:
        """Determinant by Bareiss elimination over a cleared denominator.

        With d the lcm of the entry denominators, d * self is an integer
        matrix; fraction-free Bareiss elimination (Sylvester's identity,
        every division exact) gives its determinant in integers alone, and
        det(self) = det(d * self) / d**n.
        """
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        d = self.denominator()
        a = list(map(list, _int_rows(self.data, d)))
        sign, prev = 1, 1
        for k in range(n - 1):
            if a[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if piv is None:
                    return 0
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            rk = a[k]
            p = rk[k]
            for i in range(k + 1, n):
                ri = a[i]
                f = ri[k]
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * p - f * rk[j]) // prev
            prev = p
        bareiss = sign * a[n - 1][n - 1] if n else 1
        return _exact(Fraction(bareiss, d**n))

    def inverse(self) -> "Mat":
        """(a / d)^-1 = d * a^-1: fraction-free Gauss-Jordan on [a | I]
        leaves [p*I | p*a^-1], so each entry is d * x / p."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        d = self.denominator()
        a = [
            list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(_int_rows(self.data, d))
        ]
        pivots, p = _gauss_jordan(a, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return Mat._make(tuple(tuple(_over(d * x, p) for x in row[n:]) for row in a), n, n)

    def rank(self) -> int:
        rows = list(map(list, _int_rows(self.data, self.denominator())))
        return len(_gauss_jordan(rows, self.cols)[0])


def _gauss_jordan(a: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows of a, in
    place, pivoting only in the first ncols columns; returns the pivot
    columns and the last pivot p.

    Each step is the update row_i = (p*row_i - f*row_r) // prev for every
    row but the pivot row r, exact by Sylvester's identity (Bareiss 1968;
    Nakos, Turner and Williams 1997).  The rows stay p times those of the
    rational reduced row echelon form, so pivots are chosen exactly where
    it chooses them (the first nonzero entry of the column), and at the
    end every pivot row holds p in its pivot column and 0 in the others.
    Later columns ride along, which is how inverse and solve_exact carry
    an augmented block through the elimination.
    """
    rows = len(a)
    pivots: list[int] = []
    prev = 1
    for j in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        ar = a[r]
        p = ar[j]
        for i in range(rows):
            if i != r:
                f = a[i][j]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], ar)]
        prev = p
        pivots.append(j)
    return pivots, prev


# -- vector helpers ---------------------------------------------------------


def vec_is_integral(v: Sequence[Scalar]) -> bool:
    return all(type(x) is int for x in v)


def combination_map(basis: Sequence[Mat], rows: int, cols: int):
    """The map taking integer coefficients c to sum_k c[k] * basis[k], for a
    basis of integer rows x cols matrices.

    The basis matrices are flattened once, so each combination is a few
    integer vector sums, built as a plain ``Mat._make`` matrix.  Nothing
    about the result is checked: it is as valid as the basis it combines.
    """
    flats = [[x for row in m.data for x in row] for m in basis]

    def combine(coeffs: Sequence[int]) -> Mat:
        flat = [0] * (rows * cols)
        for c, f in zip(coeffs, flats):
            if c:
                flat = [x + c * y for x, y in zip(flat, f)]
        return Mat._make(
            tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows)), rows, cols
        )

    return combine


# -- normal forms -------------------------------------------------------------


def _row_echelon(a: list[list[int]], ncols: int, reduce: bool) -> int:
    """Bring the integer rows of a, in place, to row echelon form in their
    first ncols columns; returns the number of pivot rows.

    Pivots are made positive.  With reduce, the entries above each pivot
    are reduced into [0, pivot) as well, which over all columns gives the
    canonical row Hermite form: pivot columns strictly increasing, zero
    rows last.
    """
    m = len(a)
    pr = 0
    for col in range(ncols):
        if pr == m:
            break
        while True:
            nz = [i for i in range(pr, m) if a[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][col]), i))
            if i0 != pr:
                a[pr], a[i0] = a[i0], a[pr]
            p = a[pr][col]
            done = True
            for i in range(pr + 1, m):
                if a[i][col] != 0:
                    q = a[i][col] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[pr])]
                    if a[i][col] != 0:
                        done = False  # remainder left, need a smaller pivot
            if done:
                break
        if a[pr][col] != 0:
            if a[pr][col] < 0:
                a[pr] = [-x for x in a[pr]]
            if reduce:
                p = a[pr][col]
                for i in range(pr):
                    q = a[i][col] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[pr])]
            pr += 1
    return pr


def _row_hnf(a: list[list[int]]) -> list[list[int]]:
    """Reduce the integer rows of a, in place, to their row Hermite form."""
    _row_echelon(a, len(a[0]) if a else 0, reduce=True)
    return a


def hnf_columns(m: Mat) -> Mat:
    """Column Hermite normal form h of an integral matrix: the canonical
    basis of its column span, with any zero columns at the end."""
    mt = [list(m.col(j)) for j in range(m.cols)]
    for row in mt:
        for x in row:
            if not isinstance(x, int):
                raise ValueError("hermite form needs an integral matrix")
    h = _row_hnf(mt)
    return Mat._make(tuple(map(tuple, h)), m.cols, m.rows).T


def snf(m: Mat) -> tuple[int, ...]:
    """Invariant factors of an integral matrix: the min(rows, cols) diagonal
    entries of its Smith normal form, nonnegative and forming a
    divisibility chain d1 | d2 | ... (zeros last).  Pivots are chosen by
    minimal absolute value.
    """
    if not m.is_integral():
        raise ValueError("smith form needs an integral matrix")
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.data]
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, i0, j0 = best
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        # remainder is a strictly smaller pivot; promote it
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            # row and column are clear; enforce divisibility of the rest
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
        t += 1
    return tuple(abs(a[i][i]) for i in range(min(rows, cols)))


def integer_kernel(m: Mat) -> Mat:
    """Saturated basis of {x in Z^n : m @ x = 0}, as matrix columns, in
    column Hermite form.

    Accepts a rational matrix (the kernel only depends on the row span).
    Returns an n x k matrix, k possibly 0.  With b = d * m integral, a row
    echelon form of [b^T | I] in its first r columns is [U b^T | U] for a
    unimodular U, and its rows below the pivot rows, where U b^T is zero,
    are a basis of the kernel (Cohen, GTM 138, section 2.4).  Only those
    rows are then brought to row Hermite form, which is unique, so the
    basis is canonical.
    """
    b = m.cleared()[0]
    r, n = b.rows, b.cols
    a = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(b.T.data)]
    pivots = _row_echelon(a, r, reduce=False)
    ker = _row_hnf([row[r:] for row in a[pivots:]])
    if not ker:
        return Mat.zeros(n, 0)
    return Mat._make(tuple(zip(*ker)), n, len(ker))


def solve_exact(a: Mat, b: Sequence[Scalar]) -> Vec | None:
    """One exact solution x of a @ x = b, or None if inconsistent.

    Free coordinates (if any) are set to zero; for a of full column rank
    the solution is unique.
    """
    if len(b) != a.rows:
        raise ValueError("dimension mismatch")
    rows = [row + (y,) for row, y in zip(a.data, b)]
    aug = list(map(list, _int_rows(rows, _denominator(rows))))
    n = a.cols
    pivots, p = _gauss_jordan(aug, n)
    for i in range(len(pivots), a.rows):
        if aug[i][n] != 0:
            return None
    x: list[Scalar] = [0] * n
    for i, j in enumerate(pivots):
        x[j] = _over(aug[i][n], p)
    return tuple(x)
