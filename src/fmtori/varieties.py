"""Polarizable complex tori presented by exact lattice data.

A variety is (Z^2g, J, NS data): the lattice is implicitly Z^2g, J is a
rational complex structure (J^2 = -I), and the Neron-Severi data is a list
of integral alternating J-compatible forms together with integer
coefficients designating one ample class.  In characteristic zero this
presentation carries everything the package computes: duals, class
homomorphisms, kernels, degrees, finite subgroups and isomorphism
certificates.

Conventions fixed here (the literature leaves the signs open):

* the dual torus reuses the dual basis of Z^2g with complex structure -J^T;
* the homomorphism of a class e maps v to e @ v (so its matrix is e itself),
  which intertwines J with -J^T because J^T e J = e;
* dualizing a homomorphism transposes its matrix; under these choices the
  matrix of the dualized class homomorphism is the negative of the original,
  i.e. the two agree through the inversion automorphism, and all degrees and
  kernels match on the nose.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .lattices import (
    DegenerateFormError,
    FiniteGroupStructure,
    Lattice,
    dual_lattice_of_form,
    quotient_structure,
)
from .matrices import Mat, combination_map, integer_kernel, solve_exact, vec_is_integral
from .records import Record


class NotAnIsogenyError(ValueError):
    """Raised when a finite kernel or degree of a non-isogeny is requested."""


class VarietyMismatchError(ValueError):
    """Raised when subgroup operations mix different varieties."""


class InternalInvariantViolation(AssertionError):
    """A machine-checked identity failed; this is a bug, never an input error."""


class PreconditionError(ValueError):
    """An operation was invoked outside its documented preconditions."""


_EXCERPT = 40


def _excerpt(v) -> str:
    """repr(v), or its first characters and its length when it is long, so
    that an error line stays short whatever the input holds."""
    r = repr(v)
    if len(r) <= _EXCERPT:
        return r
    return f"{r[:_EXCERPT]}... ({len(r)} characters)"


class TorusVariety(Record):
    """A polarizable complex torus (Z^2g, J, NS basis, designated polarization)."""

    g: int
    j: Mat
    ns_basis: tuple[Mat, ...]
    polarization: tuple[int, ...]
    name: str = "A"

    # name is a label only; two presentations are equal iff the data agree
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TorusVariety)
            and self.g == other.g
            and self.j == other.j
            and self.ns_basis == other.ns_basis
            and self.polarization == other.polarization
        )

    def __hash__(self) -> int:
        return hash((self.g, self.j, self.ns_basis, self.polarization))

    @property
    def dim(self) -> int:
        return 2 * self.g

    def polarization_class(self) -> Mat:
        """The designated class, as the integer combination of the basis.

        Integer combinations of valid classes are valid by linearity, so it
        is not re-validated: a variety from outside the package passes
        ``validate``, which checks every basis class, before any use.
        """
        if len(self.polarization) != len(self.ns_basis):
            raise ValueError("coefficient vector length must match ns basis")
        return combination_map(self.ns_basis, self.dim, self.dim)(self.polarization)

    def ns_class(self, coeffs) -> "NSClass":
        if len(coeffs) != len(self.ns_basis):
            raise ValueError("coefficient vector length must match ns basis")
        return NSClass(self, combination_map(self.ns_basis, self.dim, self.dim)(coeffs))


class NSClass(Record):
    """An integral alternating J-compatible form on a fixed variety."""

    variety: TorusVariety
    e: Mat

    def __post_init__(self):
        n = self.variety.dim
        if (self.e.rows, self.e.cols) != (n, n):
            raise ValueError("class has the wrong shape")
        if not self.e.is_integral():
            raise ValueError("class must be integral")
        if not self.e.is_alternating():
            raise ValueError("class must be alternating")
        j = self.variety.j
        if j.T @ self.e @ j != self.e:
            raise ValueError("class is not compatible with the complex structure")

    def __add__(self, other: "NSClass") -> "NSClass":
        if self.variety != other.variety:
            raise VarietyMismatchError("classes live on different varieties")
        return NSClass(self.variety, self.e + other.e)

    def __rmul__(self, c: int) -> "NSClass":
        return NSClass(self.variety, c * self.e)

    def is_degenerate(self) -> bool:
        return self.e.det() == 0

    def degree(self) -> int:
        """Self-intersection degree |det e| (square of the Pfaffian)."""
        return abs(int(self.e.det()))


class ValidationReport(Record):
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _is_positive_definite(s: Mat) -> bool:
    # Sylvester: all leading principal minors positive (exact rationals)
    for k in range(1, s.rows + 1):
        if s.submatrix(range(k), range(k)).det() <= 0:
            return False
    return True


def validate(a: TorusVariety) -> ValidationReport:
    """Structural validation; returns a failure list instead of raising."""
    fails: list[str] = []
    n = a.dim
    if a.g < 1:
        fails.append("g must be at least 1")
        return ValidationReport(tuple(fails))
    if (a.j.rows, a.j.cols) != (n, n):
        fails.append("J has the wrong shape")
        return ValidationReport(tuple(fails))
    if a.j @ a.j != -1 * Mat.identity(n):
        fails.append("J^2 differs from -I")
    for idx, e in enumerate(a.ns_basis):
        label = f"ns_basis[{idx}]"
        if (e.rows, e.cols) != (n, n):
            fails.append(f"{label} has the wrong shape")
            continue
        if not e.is_integral():
            fails.append(f"{label} is not integral")
            continue
        if not e.is_alternating():
            fails.append(f"{label} is not alternating")
        elif a.j.T @ e @ a.j != e:
            fails.append(f"{label} is not J-compatible")
    if a.ns_basis:
        vecs = Mat.from_cols([_vec(e) for e in a.ns_basis])
        if vecs.rank() < len(a.ns_basis):
            fails.append("ns_basis is not Z-linearly independent")
    else:
        fails.append("ns_basis is empty")
    if len(a.polarization) != len(a.ns_basis):
        fails.append("polarization coefficient vector length mismatch")
        return ValidationReport(tuple(fails))
    if not fails:
        h = a.polarization_class()
        if h.det() == 0:
            fails.append("designated polarization is degenerate")
        else:
            s = h @ a.j
            if s.T != s:
                fails.append("polarization pairing is not symmetric")
            elif not _is_positive_definite(s):
                fails.append("designated polarization is not positive")
    return ValidationReport(tuple(fails))


# -- matrix <-> vector plumbing for spaces of forms ---------------------------
#
# General matrices are flattened to all n^2 entries (_vec); alternating forms
# to their n(n-1)/2 upper coordinates, the entries i < j in row-major order
# (_upper), on which the span layer runs.  The bases are the n^2 ones: the
# first nonzero entry of an alternating matrix in row-major order is above
# the diagonal, so every Hermite pivot, and every coordinate the reduction
# conditions read, is an upper one; the projection is injective and keeps
# integrality both ways; and the Hermite form is unique (Cohen, GTM 138, 2.4).


def _vec(m: Mat) -> tuple:
    return tuple(x for row in m.data for x in row)


def _unvec(v, cols: int) -> Mat:
    return Mat([list(v[i : i + cols]) for i in range(0, len(v), cols)])


def _upper(m: Mat) -> tuple:
    d = m.data
    return tuple(d[i][j] for i, j in combinations(range(m.rows), 2))


def _from_upper(v, n: int, den: int = 1) -> Mat:
    """The alternating n x n matrix with integer upper coordinates v / den."""
    m = [[0] * n for _ in range(n)]
    for (p, q), x in zip(combinations(range(n), 2), v):
        m[p][q], m[q][p] = x, -x
    return Mat._make(tuple(map(tuple, m)), n, n, den)


def _transport(forms, t: Mat) -> list[tuple]:
    """Upper coordinates of t^T e t for each form e, given by its upper
    coordinates, and an n x k matrix t: the entry (p, q) is the sum over
    i < j of e_ij times the 2x2 minor of t on rows i, j and columns p, q.

    Only the nonzero e_ij are read, and the minors on rows i, j are built
    once per call, by the first form that needs them: the forms the package
    transports hold a few nonzero coordinates each."""
    d = t.data
    pairs = tuple(combinations(range(t.rows), 2))
    cols = tuple(combinations(range(t.cols), 2))
    minors: dict[int, list] = {}
    out = []
    for e in forms:
        acc = None
        for k, x in enumerate(e):
            if not x:
                continue
            m = minors.get(k)
            if m is None:
                ri, rj = d[pairs[k][0]], d[pairs[k][1]]
                m = minors[k] = [ri[p] * rj[q] - rj[p] * ri[q] for p, q in cols]
            acc = [x * y for y in m] if acc is None else [s + x * y for s, y in zip(acc, m)]
        out.append(tuple(acc) if acc is not None else (0,) * len(cols))
    return out


def _span(forms, saturated: bool) -> list[tuple[int, ...]]:
    """Canonical basis, in column Hermite form, of the lattice the integer
    upper coordinate vectors generate, or of the integral points of its
    Q-span; the basis vectors are integer too."""
    nz = [v for v in forms if any(v)]
    if not nz:
        return []
    m = Mat._make(tuple(nz), len(nz), len(nz[0]))  # the forms as rows
    if saturated:
        y = integer_kernel(m)  # the orthogonal complement
        basis = integer_kernel(y.T) if y.cols else Mat.identity(m.cols)
    else:
        basis = Lattice(m.cols, m.T).basis
    return list(zip(*basis.num))


def _coefficients(target: tuple, basis: list[tuple]) -> tuple[int, ...]:
    x = solve_exact(Mat.from_cols(basis), target)
    if x is None or not vec_is_integral(x):
        raise ValueError("matrix is not an integer combination of the basis")
    return x


def _uppers(mats, message: str) -> tuple[list[tuple[int, ...]], int]:
    """(forms, d): the upper coordinates of d * m for each alternating
    matrix m, integer over the common denominator d of the matrices."""
    if not all(m.is_alternating() for m in mats):
        raise ValueError(message)
    d = lcm(*(m.den for m in mats))
    return [_upper(d * m) for m in mats], d


def integral_span_basis(mats: list[Mat]) -> tuple[Mat, ...]:
    """Canonical basis of the integral points of the Q-span of alternating matrices."""
    forms, _ = _uppers(mats, "span bases are defined for alternating matrices")
    return tuple(_from_upper(v, mats[0].rows) for v in _span(forms, saturated=True))


def generated_span_basis(mats: list[Mat]) -> tuple[Mat, ...]:
    """Canonical basis of the lattice alternating matrices generate (no saturation).

    The matrices generate 1/d times the lattice of their integer multiples
    by d, and the Hermite form scales with the lattice."""
    forms, d = _uppers(mats, "span bases are defined for alternating matrices")
    return tuple(_from_upper(v, mats[0].rows, d) for v in _span(forms, saturated=False))


def intertwiner_basis(j_src: Mat, j_dst: Mat) -> tuple[Mat, ...]:
    """Canonical basis of the integral matrices m with m @ j_src == j_dst @ m.

    The basis is saturated, so every integral intertwiner is an integer
    combination of it: the integer kernel of m -> m @ j_src - j_dst @ m,
    written on matrix units, in column Hermite form.
    """
    rows, cols = j_dst.rows, j_src.rows
    units = []
    for p in range(rows):
        for q in range(cols):
            e_pq = Mat([[int((i, j) == (p, q)) for j in range(cols)] for i in range(rows)])
            units.append(_vec(e_pq @ j_src - j_dst @ e_pq))
    ker = integer_kernel(Mat.from_cols(units))
    return tuple(_unvec(ker.col(k), cols) for k in range(ker.cols))


def coefficients_in_basis(target: Mat, basis: tuple[Mat, ...]) -> tuple[int, ...]:
    """Integer coordinates of an alternating target in a basis of
    alternating matrices; ValueError when there are none."""
    # scaling the target and the basis by d leaves the coordinates unchanged
    forms, _ = _uppers([target, *basis], "matrix is not an integer combination of the basis")
    return _coefficients(forms[0], forms[1:])


# -- duality ------------------------------------------------------------------


def dual(a: TorusVariety, name: str | None = None) -> TorusVariety:
    """The dual torus: dual basis lattice, complex structure -J^T.

    NS data is transported through the designated polarization: the span of
    the presented classes is carried over by the inverse polarization map and
    re-saturated in the integral forms, and the dual polarization is the
    primitive ample class on the ray of the inverse of the designated one.
    On canonically presented inputs (saturated ns span, primitive ample
    class, canonical basis) the construction is an involution.

    The transport runs on integers and upper coordinates: with h^-1 = hi / d
    for an integer matrix hi, hi^T e hi is d^2 times the transported class,
    its upper coordinates are sums of e's times 2x2 minors of hi, and the
    re-saturation reads only the rational span, which d^2 leaves unchanged.
    """
    jd = -1 * a.j.T
    h = a.polarization_class()
    try:
        hi, _ = h.inverse().cleared()
    except ValueError:
        raise ValueError("variety has a degenerate designated polarization") from None
    ns_up = _span(_transport([_upper(e) for e in a.ns_basis], hi), saturated=True)
    # hi is primitive: a prime dividing its entries would divide d, because
    # h @ hi = d * I, and then d / p would already clear h^-1
    hd = -hi
    if not _is_positive_definite(hd @ jd):
        hd = hi
    pol = _coefficients(_upper(hd), ns_up)
    ns_d = tuple(_from_upper(v, a.dim) for v in ns_up)
    return TorusVariety(a.g, jd, ns_d, pol, name if name is not None else a.name + "^")


# -- homomorphisms ------------------------------------------------------------


class Homomorphism(Record):
    """A lattice-level homomorphism: integral matrix intertwining the J's."""

    source: TorusVariety
    target: TorusVariety
    m: Mat

    def __post_init__(self):
        if (self.m.rows, self.m.cols) != (self.target.dim, self.source.dim):
            raise ValueError("matrix shape does not match source/target")
        if not self.m.is_integral():
            raise ValueError("homomorphism matrix must be integral")
        if self.m @ self.source.j != self.target.j @ self.m:
            raise ValueError("matrix does not intertwine the complex structures")

    def is_isogeny(self) -> bool:
        return self.m.is_square and self.m.det() != 0

    def degree(self) -> int:
        det = self.m.det() if self.m.is_square else 0
        if det == 0:
            raise NotAnIsogenyError("degree of a non-isogeny")
        return abs(int(det))

    def kernel(self) -> "FiniteSubgroup":
        try:
            inv = self.m.inverse()
        except ValueError:
            raise NotAnIsogenyError("kernel of a non-isogeny is not finite") from None
        return FiniteSubgroup(self.source, Lattice(self.source.dim, inv))

    def dual_hom(self) -> "Homomorphism":
        return Homomorphism(dual(self.target), dual(self.source), self.m.T)

    def inverse(self) -> "Homomorphism":
        if not (self.m.is_square and abs(self.m.det()) == 1):
            raise ValueError("only unimodular maps invert integrally")
        return Homomorphism(self.target, self.source, self.m.inverse().to_int())

    def compose(self, first: "Homomorphism") -> "Homomorphism":
        """self after first (matrix product self.m @ first.m)."""
        if first.target != self.source:
            raise VarietyMismatchError("composition of incompatible maps")
        return Homomorphism(first.source, self.target, self.m @ first.m)


def is_isomorphism_certificate(f: Homomorphism) -> bool:
    """True iff f is integral, unimodular, and intertwines the complex structures.

    Integrality and intertwining are enforced at construction, so the
    residual check is unimodularity.
    """
    return f.m.is_square and abs(f.m.det()) == 1


def class_kernel(c: NSClass) -> "FiniteSubgroup":
    """K(L): the finite kernel of the class homomorphism, for nondegenerate c."""
    lam = Lattice.standard(c.variety.dim)
    try:
        kernel = dual_lattice_of_form(c.e, lam)
    except DegenerateFormError:
        raise NotAnIsogenyError("kernel of a degenerate class is not finite") from None
    return FiniteSubgroup(c.variety, kernel)


# -- finite subgroups ----------------------------------------------------------


class FiniteSubgroup(Record):
    """A finite subgroup of a torus, stored as an overlattice of Z^2g.

    The overlattice must contain the periods, so it has full rank: every
    construction here meets that, and ``corpus.subgroup_from_json`` checks
    it at the file boundary.  ``structure`` is computed on first use.
    """

    variety: TorusVariety
    overlattice: Lattice

    def __post_init__(self):
        if self.overlattice.ambient_dim != self.variety.dim:
            raise ValueError("overlattice has the wrong ambient dimension")

    @cached_property
    def structure(self) -> FiniteGroupStructure:
        return quotient_structure(Lattice.standard(self.variety.dim), self.overlattice)

    @property
    def order(self) -> int:
        return self.structure.order

    @property
    def divisors(self) -> tuple[int, ...]:
        return self.structure.divisors

    def _check_same_variety(self, other: "FiniteSubgroup"):
        if self.variety != other.variety:
            raise VarietyMismatchError("subgroups live on different varieties")

    def intersect(self, other: "FiniteSubgroup") -> "FiniteSubgroup":
        self._check_same_variety(other)
        return FiniteSubgroup(self.variety, self.overlattice.intersect(other.overlattice))

    def join(self, other: "FiniteSubgroup") -> "FiniteSubgroup":
        self._check_same_variety(other)
        return FiniteSubgroup(self.variety, self.overlattice.sum(other.overlattice))

    def contains(self, other: "FiniteSubgroup") -> bool:
        self._check_same_variety(other)
        return self.overlattice.contains_lattice(other.overlattice)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteSubgroup)
            and self.variety == other.variety
            and self.overlattice == other.overlattice
        )

    def __hash__(self) -> int:
        return hash((self.variety, self.overlattice))


def trivial_subgroup(a: TorusVariety) -> FiniteSubgroup:
    return FiniteSubgroup(a, Lattice.standard(a.dim))


def torsion_subgroup(a: TorusVariety, n: int) -> FiniteSubgroup:
    if n < 1:
        raise PreconditionError("torsion level must be positive")
    return FiniteSubgroup(a, Lattice.standard(a.dim).scaled(Fraction(1, n)))


def image_under(f: Homomorphism, s: FiniteSubgroup) -> FiniteSubgroup:
    if s.variety != f.source:
        raise VarietyMismatchError("subgroup does not live on the source")
    pushed = Lattice(f.target.dim, f.m @ s.overlattice.basis)
    return FiniteSubgroup(f.target, pushed.sum(Lattice.standard(f.target.dim)))


def preimage_under(f: Homomorphism, s: FiniteSubgroup) -> FiniteSubgroup:
    if s.variety != f.target:
        raise VarietyMismatchError("subgroup does not live on the target")
    try:
        inv = f.m.inverse()
    except ValueError:
        raise NotAnIsogenyError("preimage under a non-isogeny may be infinite") from None
    return FiniteSubgroup(f.source, Lattice(f.source.dim, inv @ s.overlattice.basis))


# -- products -------------------------------------------------------------------


class Product(Record):
    """A product variety with its canonical injections and projections."""

    variety: TorusVariety
    proj_a: Homomorphism
    proj_b: Homomorphism
    inj_a: Homomorphism
    inj_b: Homomorphism


def lift_first(e: Mat, nb: int) -> Mat:
    return Mat.block([[e, Mat.zeros(e.rows, nb)], [Mat.zeros(nb, e.cols), Mat.zeros(nb, nb)]])


def lift_second(e: Mat, na: int) -> Mat:
    return Mat.block([[Mat.zeros(na, na), Mat.zeros(na, e.cols)], [Mat.zeros(e.rows, na), e]])


def correspondence_class(c: Mat, na: int, nb: int) -> Mat:
    return Mat.block([[Mat.zeros(na, na), c], [-1 * c.T, Mat.zeros(nb, nb)]])


def product(a: TorusVariety, b: TorusVariety, name: str | None = None) -> Product:
    """Product torus with block complex structure and the full block NS data."""
    na, nb = a.dim, b.dim
    j = Mat.block([[a.j, Mat.zeros(na, nb)], [Mat.zeros(nb, na), b.j]])
    ns = (
        tuple(lift_first(e, nb) for e in a.ns_basis)
        + tuple(lift_second(e, na) for e in b.ns_basis)
        # the correspondence blocks are the homomorphisms B -> dual(A)
        + tuple(correspondence_class(c, na, nb) for c in intertwiner_basis(b.j, -1 * a.j.T))
    )
    pol = a.polarization + b.polarization + (0,) * (len(ns) - len(a.ns_basis) - len(b.ns_basis))
    v = TorusVariety(a.g + b.g, j, ns, pol, name if name is not None else f"{a.name}x{b.name}")
    ia = Mat.vstack(Mat.identity(na), Mat.zeros(nb, na))
    ib = Mat.vstack(Mat.zeros(na, nb), Mat.identity(nb))
    pa = Mat.hstack(Mat.identity(na), Mat.zeros(na, nb))
    pb = Mat.hstack(Mat.zeros(nb, na), Mat.identity(nb))
    return Product(
        variety=v,
        proj_a=Homomorphism(v, a, pa),
        proj_b=Homomorphism(v, b, pb),
        inj_a=Homomorphism(a, v, ia),
        inj_b=Homomorphism(b, v, ib),
    )


def ns_pullback(f: Homomorphism, c: NSClass) -> NSClass:
    """Pullback of a class along a homomorphism: m^T e m on the source."""
    if c.variety != f.target:
        raise VarietyMismatchError("class does not live on the target")
    return NSClass(f.source, f.m.T @ c.e @ f.m)
