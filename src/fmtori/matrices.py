"""Exact matrices over the integers and rationals.

Everything downstream (lattices, tori, slope subvarieties, audits) runs on
exact arithmetic: Python ints and ``fractions.Fraction``.  ``Mat`` is a small
immutable matrix type; the module-level functions supply the integer normal
forms (the column Hermite form and the Smith invariant factors; no caller
reads a unimodular transform, so none is built), saturated integer kernels,
and exact linear solvers.  No floating point appears anywhere in the package.

A ``Mat`` holds integer rows ``num`` over one positive denominator ``den``,
kept reduced, the form FLINT's ``fmpq_mat_get_fmpz_mat_matwise`` and PARI's
``Q_remove_denom`` convert to.  Products, scalings and eliminations run on
Python ints alone, each elimination in one place: the Euclidean row echelon
``_row_echelon`` (rank, Hermite and Smith forms, kernels), one Bareiss pass
``_bareiss`` (det, Sylvester's test; Bareiss 1968) and fraction-free
Gauss-Jordan ``_gauss_jordan`` (inverse and solving; Nakos, Turner and
Williams 1997).  ``Fraction`` objects are made only where an entry is
read: the ``data`` view and the scalars that ``det`` and ``solve_exact``
return, each one exact division by ``_scalar``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

Scalar = int | Fraction
Vec = tuple[Scalar, ...]


def _scalar(n: int, d: int) -> Scalar:
    """n / d as an exact scalar: an int when d divides n."""
    q, r = divmod(n, d)
    return q if r == 0 else Fraction(n, d)


def _common_denominator(mats: Sequence["Mat"]) -> tuple[list[tuple], int]:
    """(nums, d): the integer rows of each matrix over the lcm d of their
    denominators."""
    d = lcm(*(m.den for m in mats))
    return [
        m.num if m.den == d else tuple(tuple(x * (d // m.den) for x in row) for row in m.num)
        for m in mats
    ], d


class Mat:
    """Immutable exact matrix: the integer rows ``num`` over the denominator
    ``den``.

    The representation is reduced: ``den > 0``, ``gcd(den, *entries) == 1``,
    and so the zero matrix has ``den == 1``.  Each rational matrix has one
    such form, so equality and hashing compare ``(rows, cols, den, num)``.
    ``data`` reads the entries as ints and non-integral Fractions.

    ``Mat(rows)`` is the input boundary: it checks that every entry is an
    int or a Fraction and infers the shape from the rows.  Results are built
    with ``Mat._make``, which trusts its integer rows and takes the shape
    explicitly, so zero-width matrices keep it (``Mat.zeros(0, 3)`` is 0x3).
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Iterable[Iterable[Scalar]]):
        num = tuple(map(tuple, data))
        d = 1
        plain = True
        for row in num:
            for x in row:
                if type(x) is not int:
                    if isinstance(x, Fraction):
                        d = lcm(d, x.denominator)
                    elif not isinstance(x, int):
                        raise TypeError(f"exact scalar expected, got {type(x).__name__}")
                    plain = False
        cols = len(num[0]) if num else 0
        for row in num:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        if not plain:
            # over the lcm of the entry denominators the rows are reduced:
            # an entry whose denominator has the top power of p is prime to p
            num = tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in num)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", d)
        object.__setattr__(self, "rows", len(num))
        object.__setattr__(self, "cols", cols)

    @staticmethod
    def _make(num: tuple[tuple[int, ...], ...], rows: int, cols: int, den: int = 1) -> "Mat":
        """The Mat num / den on a tuple of ``rows`` int row tuples of length
        ``cols`` and a positive den, reduced here when den is not 1."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        m = object.__new__(Mat)
        object.__setattr__(m, "num", num)
        object.__setattr__(m, "den", den)
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
        if any(len(col) != n for col in cols):
            raise ValueError("ragged matrix")
        return Mat([[col[i] for col in cols] for i in range(n)])

    @staticmethod
    def hstack(*mats: "Mat") -> "Mat":
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise ValueError("row count mismatch in hstack")
        nums, d = _common_denominator(mats)
        num = tuple(sum((n[i] for n in nums), ()) for i in range(r))
        return Mat._make(num, r, sum(m.cols for m in mats), d)

    @staticmethod
    def vstack(*mats: "Mat") -> "Mat":
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise ValueError("column count mismatch in vstack")
        nums, d = _common_denominator(mats)
        num = tuple(chain.from_iterable(nums))
        return Mat._make(num, len(num), c, d)

    @staticmethod
    def block(rows_of_blocks: Sequence[Sequence["Mat"]]) -> "Mat":
        return Mat.vstack(*[Mat.hstack(*row) for row in rows_of_blocks])

    # -- access ------------------------------------------------------------

    @property
    def data(self) -> tuple[Vec, ...]:
        """The entries as exact scalars: ints, and Fractions that are not
        integers.  This is num itself for an integer matrix."""
        d = self.den
        if d == 1:
            return self.num
        return tuple(tuple(_scalar(x, d) for x in row) for row in self.num)

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return _scalar(self.num[i][j], self.den)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Mat":
        n = self.num
        return Mat._make(
            tuple(tuple(n[i][j] for j in cols) for i in rows), len(rows), len(cols), self.den
        )

    @property
    def T(self) -> "Mat":
        if not self.rows:
            return Mat._make(((),) * self.cols, self.cols, 0)
        return Mat._make(tuple(zip(*self.num)), self.cols, self.rows, self.den)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "Mat":
        return Mat._make(
            tuple(tuple(-x for x in row) for row in self.num), self.rows, self.cols, self.den
        )

    def __rmul__(self, c: Scalar) -> "Mat":
        n = c.numerator
        num = tuple(tuple(n * x for x in row) for row in self.num)
        return Mat._make(num, self.rows, self.cols, c.denominator * self.den)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        bt = tuple(zip(*other.num)) if other.rows else ((),) * other.cols
        num = tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in self.num)
        return Mat._make(num, self.rows, other.cols, self.den * other.den)

    def apply(self, v: Sequence[Scalar]) -> Vec:
        """self @ v for an exact vector v: the integer rows times the
        numerators of v over its lcm denominator w, each entry divided once
        by den * w."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        w = lcm(*(x.denominator for x in v))
        k = [x.numerator * (w // x.denominator) for x in v]
        d = self.den * w
        return tuple(_scalar(sum(map(mul, row, k)), d) for row in self.num)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.data]})"

    # -- predicates and scalar invariants ------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integral(self) -> bool:
        return self.den == 1

    def is_alternating(self) -> bool:
        return self.is_square and self.T == -self

    def cleared(self) -> tuple["Mat", int]:
        """(d * self, d): the integral multiple over the denominator d."""
        return Mat._make(self.num, self.rows, self.cols), self.den

    def content(self) -> int:
        """gcd of the absolute entries of an integral matrix (0 if zero)."""
        if self.den != 1:
            raise ValueError("content is defined for integral matrices")
        return gcd(*chain.from_iterable(self.num))

    def det(self) -> Scalar:
        """det(num) / den**n, by one Bareiss pass on the integer rows: 0
        when a column has no pivot."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        pivots, swaps = _bareiss(list(map(list, self.num)))
        if len(pivots) < n:
            return 0
        last = pivots[-1] if n else 1
        return _scalar(-last if swaps % 2 else last, self.den**n)

    def inverse(self) -> "Mat":
        """(a / d)^-1 = d * a^-1: fraction-free Gauss-Jordan on [a | I]
        leaves [p*I | p*a^-1], so the inverse is d * x / p on that block."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.num)]
        pivots, p = _gauss_jordan(a, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        d = self.den if p > 0 else -self.den
        return Mat._make(tuple(tuple(d * x for x in row[n:]) for row in a), n, n, abs(p))

    def rank(self) -> int:
        # the pivot rows of an integer row echelon form, which spans the
        # same rational row space
        return _row_echelon(list(map(list, self.num)), self.cols, reduce=False)


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Bareiss elimination of the square integer rows of a, in
    place: (pivots, row swaps).  A zero pivot is swapped with the first row
    below that is nonzero in its column, and the pass stops at a column with
    none.  Every division is exact by Sylvester's identity (Bareiss 1968),
    and the k-th pivot is the k-th leading principal minor of the rows as
    swapped, so the last of n pivots is det(a) times (-1)**swaps.
    """
    n = len(a)
    pivots: list[int] = []
    swaps, prev = 0, 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                break
            a[k], a[piv] = a[piv], a[k]
            swaps += 1
        rk = a[k]
        p = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * p - f * rk[j]) // prev
        prev = p
        pivots.append(p)
    return pivots, swaps


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

    Each column is cleared by Euclidean division: the pivot is the entry of
    least absolute value (the first row among equals), and the least
    remainder it leaves below becomes the next pivot.  Pivots are made
    positive.  With reduce, the entries above each pivot are reduced into
    [0, pivot) as well, which over all columns gives the canonical row
    Hermite form: pivot columns strictly increasing, zero rows last.
    """
    m = len(a)
    pr = 0
    for col in range(ncols):
        if pr == m:
            break
        piv, best = -1, 0
        for i in range(pr, m):
            x = a[i][col]
            if x and (piv < 0 or abs(x) < best):
                piv, best = i, abs(x)
        if piv < 0:
            continue
        while piv >= 0:
            if piv != pr:
                a[pr], a[piv] = a[piv], a[pr]
            rp = a[pr]
            p = rp[col]
            piv, best = -1, 0
            for i in range(pr + 1, m):
                f = a[i][col]
                if f:
                    q = f // p
                    ri = a[i] = [x - q * y for x, y in zip(a[i], rp)]
                    f = ri[col]
                    if f and (piv < 0 or abs(f) < best):
                        piv, best = i, abs(f)
        if p < 0:
            rp = a[pr] = [-x for x in rp]
            p = -p
        if reduce:
            for i in range(pr):
                q = a[i][col] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], rp)]
        pr += 1
    return pr


def _row_hnf(a: list[list[int]]) -> list[list[int]]:
    """Reduce the integer rows of a, in place, to their row Hermite form."""
    _row_echelon(a, len(a[0]) if a else 0, reduce=True)
    return a


def hnf_columns(m: Mat) -> Mat:
    """Column Hermite normal form h of an integral matrix: the canonical
    basis of its column span, with any zero columns at the end."""
    if m.den != 1:
        raise ValueError("hermite form needs an integral matrix")
    h = _row_hnf(list(map(list, m.T.num)))
    return Mat._make(tuple(map(tuple, h)), m.cols, m.rows).T


def snf(m: Mat) -> tuple[int, ...]:
    """Invariant factors of an integral matrix: the min(rows, cols) diagonal
    entries of its Smith normal form, nonnegative and forming a
    divisibility chain d1 | d2 | ... (zeros last).

    Row echelon forms of the nonzero rows and of their transpose, each a
    unimodular change of basis, alternate until every row holds one entry,
    its pivot.  The first pivot of a pass divides the one before, and a
    pass that keeps it clears its row and column for good, so the passes
    end.  Replacing each pair (x, y) of pivots by (gcd, lcm) sorts the
    exponent of every prime into the chain (Cohen, GTM 138, section 2.4).
    """
    if m.den != 1:
        raise ValueError("smith form needs an integral matrix")
    a = [list(r) for r in m.num]
    ncols = m.cols
    while True:
        r = _row_echelon(a, ncols, reduce=False)
        del a[r:]
        if all(row.count(0) == ncols - 1 for row in a):
            break
        a = [list(c) for c in zip(*a)]
        ncols = r
    # each row holds its positive pivot alone, in distinct columns
    diag = [max(row) for row in a]
    for i in range(r):
        for j in range(i + 1, r):
            x, y = diag[i], diag[j]
            if y % x:
                g = gcd(x, y)
                diag[i], diag[j] = g, x // g * y
    return tuple(diag) + (0,) * (min(m.rows, m.cols) - r)


def integer_kernel(m: Mat) -> Mat:
    """Saturated basis of {x in Z^n : m @ x = 0}, as matrix columns, in
    column Hermite form.

    Accepts a rational matrix (the kernel only depends on the row span).
    Returns an n x k matrix, k possibly 0.  With b = m.num integral, a row
    echelon form of [b^T | I] in its first r columns is [U b^T | U] for a
    unimodular U, and its rows below the pivot rows, where U b^T is zero,
    are a basis of the kernel (Cohen, GTM 138, section 2.4).  Only those
    rows are then brought to row Hermite form, which is unique, so the
    basis is canonical.
    """
    r, n = m.rows, m.cols
    a = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(m.T.num)]
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
    # [a | b] over one denominator d: a.num * (d / a.den) beside b * d
    d = lcm(a.den, *(y.denominator for y in b))
    s = d // a.den
    aug = [[x * s for x in row] + [y.numerator * (d // y.denominator)]
           for row, y in zip(a.num, b)]
    n = a.cols
    pivots, p = _gauss_jordan(aug, n)
    for i in range(len(pivots), a.rows):
        if aug[i][n] != 0:
            return None
    x: list[Scalar] = [0] * n
    for i, j in enumerate(pivots):
        x[j] = _scalar(aug[i][n], p)
    return tuple(x)
