"""Full and partial rank lattices in an ambient Q^n, with exact quotients.

A ``Lattice`` is stored by a canonical basis: the column Hermite form of a
minimal integer rescaling.  Two lattices are equal iff their canonical bases
are equal, so equality, containment and intersection are all decidable
exactly.  ``quotient_structure`` returns the elementary divisors of a finite
quotient; this is where kernel groups K(L) and slope kernels come from.
"""

from __future__ import annotations

from .matrices import Mat, Scalar, hnf_columns, integer_kernel, snf, solve_exact, vec_is_integral
from .records import Record


class LatticeContainmentError(ValueError):
    """Raised when a quotient of non-nested lattices is requested."""


class FiniteGroupStructure(Record):
    """Isomorphism type of a finite abelian group: divisors d1 | d2 | ..., each > 1."""

    divisors: tuple[int, ...]
    order: int

    @staticmethod
    def from_diagonal(diag: tuple[int, ...]) -> "FiniteGroupStructure":
        ds = tuple(d for d in diag if d > 1)
        order = 1
        for d in ds:
            order *= d
        return FiniteGroupStructure(ds, order)

    @property
    def exponent(self) -> int:
        return self.divisors[-1] if self.divisors else 1


class Lattice:
    """A finitely generated subgroup of Q^n of full column rank basis.

    ``Lattice(n, columns)`` is the canonicalizing boundary: it reduces any
    generating set to the canonical basis.  ``Lattice._make`` wraps a basis
    that is already canonical.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, columns: Mat):
        if columns.rows != ambient_dim:
            raise ValueError("basis rows must match ambient dimension")
        # the nonzero Hermite columns of the integer rows over the denominator,
        # which Mat._make reduces against their content
        b, d = columns.cleared()
        h = hnf_columns(b)
        keep = [j for j, col in enumerate(zip(*h.num)) if any(col)]
        num = tuple(tuple(row[j] for j in keep) for row in h.num)
        basis = Mat._make(num, h.rows, len(keep), d)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    @staticmethod
    def _make(ambient_dim: int, basis: Mat) -> "Lattice":
        """A Lattice on a basis that is already in canonical form."""
        lat = object.__new__(Lattice)
        object.__setattr__(lat, "ambient_dim", ambient_dim)
        object.__setattr__(lat, "basis", basis)
        return lat

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Lattice is immutable")

    @staticmethod
    def standard(n: int) -> "Lattice":
        # the identity is its own column Hermite form
        return Lattice._make(n, Mat.identity(n))

    @property
    def rank(self) -> int:
        return self.basis.cols

    @property
    def is_full_rank(self) -> bool:
        return self.rank == self.ambient_dim

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Lattice({self.ambient_dim}, {self.basis!r})"

    def scaled(self, c: Scalar) -> "Lattice":
        if c == 0:
            raise ValueError("zero scaling")
        # the Hermite form of k*H is k times that of H for k > 0, and c and
        # -c span the same lattice, so |c| times the canonical basis is the
        # canonical basis of the scaled lattice
        return Lattice._make(self.ambient_dim, abs(c) * self.basis)

    def contains_vector(self, v) -> bool:
        x = solve_exact(self.basis, v)
        return x is not None and vec_is_integral(x)

    def sum(self, other: "Lattice") -> "Lattice":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Lattice(self.ambient_dim, Mat.hstack(self.basis, other.basis))

    def intersect(self, other: "Lattice") -> "Lattice":
        """Intersection of two lattices in the same ambient space."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        # integral (x, y) with self.basis @ x == other.basis @ y;
        # integer_kernel reads the integer rows over their denominator
        k = integer_kernel(Mat.hstack(self.basis, -1 * other.basis))
        alpha = k.submatrix(range(self.rank), range(k.cols))
        return Lattice(self.ambient_dim, self.basis @ alpha)

    def spans_subspace_of(self, other: "Lattice") -> bool:
        if self.rank == 0:
            return True
        joint = Mat.hstack(other.basis, self.basis)
        return joint.rank() == other.basis.rank()


def sublattice_where_integral(container: Lattice, conditions: Mat) -> Lattice:
    """{v in container : conditions @ v is integral}, as a lattice.

    ``conditions`` may be rational and of any rank; the result is a finite
    index sublattice of ``container``.
    """
    if conditions.cols != container.ambient_dim:
        raise ValueError("condition width must match ambient dimension")
    c = container.basis
    ri, d = (conditions @ c).cleared()
    if d == 1:
        return container
    k = ri.rows
    blocked = Mat.hstack(ri, -d * Mat.identity(k))
    ker = integer_kernel(blocked)
    x = ker.submatrix(range(c.cols), range(ker.cols))
    return Lattice(container.ambient_dim, c @ x)


def quotient_structure(sub: Lattice, sup: Lattice) -> FiniteGroupStructure:
    """Elementary divisors of sup/sub for nested full rank lattices."""
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not (sub.is_full_rank and sup.is_full_rank):
        raise ValueError("quotient needs full rank lattices")
    x = sup.basis.inverse() @ sub.basis
    if not x.is_integral():
        raise LatticeContainmentError("sub is not contained in sup")
    return FiniteGroupStructure.from_diagonal(snf(x))


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
        span_part = Lattice(l.ambient_dim, c @ sol)
    return l.sum(span_part)
