"""Full and partial rank lattices in an ambient Q^n, with exact quotients.

A ``Lattice`` is stored by a canonical basis: the column Hermite form of a
minimal integer rescaling.  Two lattices are equal iff their canonical bases
are equal, so equality, containment and intersection are all decidable
exactly.  ``quotient_structure`` returns the elementary divisors of an
overlattice of Z^n modulo Z^n, read off one Smith form of its basis; this is
where kernel groups K(L) and slope kernels come from.
"""

from __future__ import annotations

from math import prod

from .matrices import Mat, Scalar, _row_echelon, _row_hnf, hnf_columns, integer_kernel, snf
from .records import Record


class LatticeContainmentError(ValueError):
    """Raised when the quotient by Z^n of a lattice not containing it is requested."""


class FiniteGroupStructure(Record):
    """Isomorphism type of a finite abelian group: divisors d1 | d2 | ..., each > 1."""

    divisors: tuple[int, ...]

    @staticmethod
    def from_diagonal(diag: tuple[int, ...]) -> "FiniteGroupStructure":
        return FiniteGroupStructure(tuple(d for d in diag if d > 1))

    @property
    def order(self) -> int:
        return prod(self.divisors)

    @property
    def exponent(self) -> int:
        return self.divisors[-1] if self.divisors else 1


class Lattice:
    """A finitely generated subgroup of Q^n of full column rank basis.

    A lattice is its canonical basis: ``Lattice(columns)`` is the
    canonicalizing boundary, which reduces any generating set, and the
    ambient dimension n is the number of rows.  ``Lattice._make`` wraps a
    basis that is already canonical.
    """

    __slots__ = ("basis",)

    def __init__(self, columns: Mat):
        # the nonzero Hermite columns of the integer rows over the denominator,
        # which Mat._make reduces against their content
        b, d = columns.cleared()
        h = hnf_columns(b)
        keep = [j for j, col in enumerate(zip(*h.num)) if any(col)]
        num = tuple(tuple(row[j] for j in keep) for row in h.num)
        object.__setattr__(self, "basis", Mat._make(num, h.rows, len(keep), d))

    @staticmethod
    def _make(basis: Mat) -> "Lattice":
        """A Lattice on a basis that is already in canonical form."""
        lat = object.__new__(Lattice)
        object.__setattr__(lat, "basis", basis)
        return lat

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Lattice is immutable")

    @staticmethod
    def standard(n: int) -> "Lattice":
        # the identity is its own column Hermite form
        return Lattice._make(Mat.identity(n))

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

    @property
    def rank(self) -> int:
        return self.basis.cols

    def __eq__(self, other: object) -> bool:
        # Mat equality compares shapes, so equal bases share an ambient dimension
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Lattice({self.basis!r})"

    def scaled(self, c: Scalar) -> "Lattice":
        if c == 0:
            raise ValueError("zero scaling")
        # the Hermite form of k*H is k times that of H for k > 0, and c and
        # -c span the same lattice, so |c| times the canonical basis is the
        # canonical basis of the scaled lattice
        return Lattice._make(abs(c) * self.basis)

    def sum(self, other: "Lattice") -> "Lattice":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Lattice(Mat.hstack(self.basis, other.basis))

    def intersect(self, other: "Lattice") -> "Lattice":
        """Intersection of two lattices in the same ambient space."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        # integral (x, y) with self.basis @ x == other.basis @ y;
        # integer_kernel reads the integer rows over their denominator
        k = integer_kernel(Mat.hstack(self.basis, -1 * other.basis))
        alpha = k.submatrix(range(self.rank), range(k.cols))
        return Lattice(self.basis @ alpha)

    def spans_subspace_of(self, other: "Lattice") -> bool:
        if self.rank == 0:
            return True
        joint = Mat.hstack(other.basis, self.basis)
        return joint.rank() == other.basis.rank()


def sublattice_where_integral(level: int, conditions: Mat) -> Lattice:
    """{v in (1/level) Z^n : conditions @ v is integral}, n the width of
    ``conditions``, in canonical form.

    ``conditions`` = C / c may be rational, with any number of rows and of
    any rank; the result is a full rank sublattice of (1/level) Z^n.  With
    d = c * level, v = y / level is a member exactly when C y = 0 mod d, and
    C mod d decides that.  The rows (C^T e_i | e_i) and (d e_j | 0) span
    {(C y + d z | y)}; a row echelon form in the first k columns (k the
    number of conditions) has k pivot rows, because d I is among the rows,
    and its n rows below them are a basis of those y (Cohen, GTM 138,
    section 2.4).  Their row Hermite form over level is the canonical basis.
    """
    if level < 1:
        raise ValueError("level must be positive")
    k, n, d = conditions.rows, conditions.cols, conditions.den * level
    a = [[x % d for x in col] + [int(i == j) for j in range(n)]
         for i, col in enumerate(conditions.T.num)]
    a += [[d * int(i == j) for j in range(k)] + [0] * n for i in range(k)]
    _row_echelon(a, k, reduce=False)
    h = _row_hnf([row[k:] for row in a[k:]])
    return Lattice._make(Mat._make(tuple(zip(*h)), n, n, level))


def quotient_structure(overlattice: Lattice) -> FiniteGroupStructure:
    """Elementary divisors of L/Z^n for a full rank overlattice L of Z^n.

    With the canonical basis written as N/d, N = U diag(s_i) V for unimodular
    U and V, so L/Z^n = N Z^n / d Z^n is the sum of the Z/(d/s_i), and Z^n
    lies in L exactly when every invariant factor s_i of N divides d
    (Newman, *Integral Matrices*; Cohen, GTM 138, section 2.4).
    """
    basis = overlattice.basis
    if not basis.is_square:
        raise ValueError("quotient needs full rank lattices")
    num, d = basis.cleared()
    diag = snf(num)
    if any(d % s for s in diag):
        raise LatticeContainmentError("Z^n is not contained in the lattice")
    # s_1 | s_2 | ... makes d/s_n | ... | d/s_1
    return FiniteGroupStructure.from_diagonal(tuple(d // s for s in reversed(diag)))


def saturate(l: Lattice, ambient: Lattice) -> Lattice:
    """Smallest lattice containing l and every ambient point of its Q-span."""
    if l.ambient_dim != ambient.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not l.spans_subspace_of(ambient):
        raise ValueError("lattice does not span a subspace of the ambient span")
    if l.rank == 0:
        return l
    # ambient points of span(l): annihilate the orthogonal complement of l
    y = integer_kernel(l.basis.T)  # columns span the complement
    if y.cols == 0:
        span_part = ambient
    else:
        c = ambient.basis
        sol = integer_kernel(y.T @ c)
        span_part = Lattice(c @ sol)
    return l.sum(span_part)
