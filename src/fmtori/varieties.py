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
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import lcm

from .lattices import FiniteGroupStructure, Lattice, quotient_structure, sublattice_where_integral
from .matrices import Mat, _bareiss, _row_hnf, combination_map, integer_kernel, snf, solve_exact, vec_is_integral
from .records import Record


class NotAnIsogenyError(ValueError):
    """Raised when a finite kernel of a non-isogeny is requested."""


class VarietyMismatchError(ValueError):
    """Raised when an operation mixes objects on different varieties."""


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

    @property
    def dim(self) -> int:
        return 2 * self.g

    # integer coefficients -> the matrix of that combination of the NS basis
    @cached_property
    def class_matrix(self):
        return combination_map(self.ns_basis, self.dim, self.dim)

    def polarization_class(self) -> Mat:
        """The matrix of the designated class."""
        return self.ns_class(self.polarization).e

    def ns_class(self, coeffs) -> "NSClass":
        """The integer combination of the NS basis with coefficients coeffs.

        It is valid by linearity, so it is not re-validated: a variety from
        outside the package passes ``validate``, which checks every basis
        class, before any use.
        """
        if len(coeffs) != len(self.ns_basis):
            raise ValueError("coefficient vector length must match ns basis")
        if not all(type(c) is int for c in coeffs):
            raise ValueError("class coefficients must be integers")
        return NSClass._make(self, self.class_matrix(coeffs))


def _class_failure(e: Mat, j: Mat) -> str | None:
    """How e fails to be an integral alternating J-compatible form for the
    complex structure j, as the first failing check's phrase, or None.

    For alternating e and j^2 = -I, (e j)^T = -j^T e, so j^T e j = e holds
    exactly when e j is symmetric: one product, and the form whose sign
    positivity reads.  Compatibility is decided for j^2 = -I only, a
    precondition that ``validate`` checks on every loaded variety before
    any class of it is tested; on another j the answer means nothing.
    """
    n = j.rows
    if (e.rows, e.cols) != (n, n):
        return "has the wrong shape"
    if not e.is_integral():
        return "is not integral"
    if not e.is_alternating():
        return "is not alternating"
    s = e @ j
    if s.T != s:
        return "is not J-compatible"
    return None


class NSClass(Record):
    """An integral alternating J-compatible form on a fixed variety.

    The variety's J must satisfy J^2 = -I, which ``validate`` checks at
    every load: compatibility is decided as "e J is symmetric"
    (``_class_failure``), which equals J^T e J = e only then, and the
    constructor does not check J again.
    """

    variety: TorusVariety
    e: Mat

    def __post_init__(self):
        failure = _class_failure(self.e, self.variety.j)
        if failure:
            raise ValueError(f"class {failure}")

    def degree(self) -> int:
        """Self-intersection degree |det e| (square of the Pfaffian)."""
        return abs(int(self.e.det()))


class ValidationReport(Record):
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _is_positive_definite(s: Mat) -> bool:
    """Sylvester's test: every leading principal minor of the square s is
    positive, read in one Bareiss pass on the integer rows of s.

    Without row swaps, the k-th Bareiss pivot is exactly the k-th leading
    principal minor of ``num`` (Bareiss 1968), and a swap means a zero
    leading minor.  The minors of s are those of ``num`` over a positive
    power of ``den``, so their signs agree.
    """
    pivots, swaps = _bareiss(list(map(list, s.num)))
    return swaps == 0 and len(pivots) == s.rows and all(p > 0 for p in pivots)


def validate(a: TorusVariety) -> ValidationReport:
    """Structural validation; returns a failure list instead of raising."""
    fails: list[str] = []
    n = a.dim
    if a.g < 1:
        return ValidationReport(("g must be at least 1",))
    if (a.j.rows, a.j.cols) != (n, n):
        return ValidationReport(("J has the wrong shape",))
    # compatibility and positivity are defined for a complex structure only
    if a.j @ a.j != -1 * Mat.identity(n):
        return ValidationReport(("J^2 differs from -I",))
    for idx, e in enumerate(a.ns_basis):
        failure = _class_failure(e, a.j)
        if failure:
            fails.append(f"ns_basis[{idx}] {failure}")
    if not a.ns_basis:
        fails.append("ns_basis is empty")
    elif all((e.rows, e.cols) == (n, n) for e in a.ns_basis):
        # the classes are independent when their flattened integer rows
        # are: scaling a class by its denominator keeps the rank
        rows = tuple(tuple(chain.from_iterable(e.num)) for e in a.ns_basis)
        if Mat._make(rows, len(rows), n * n).rank() < len(rows):
            fails.append("ns_basis is not Z-linearly independent")
    if len(a.polarization) != len(a.ns_basis):
        fails.append("polarization coefficient vector length mismatch")
        return ValidationReport(tuple(fails))
    if not all(type(c) is int for c in a.polarization):
        fails.append("polarization coefficients must be integers")
    if not fails:
        h = a.polarization_class()
        # h J is symmetric: h is alternating, J^T h J = h and J^-1 = -J give
        # (h J)^T = -J^T h = h J, so only its sign is left to test
        if h.det() == 0:
            fails.append("designated polarization is degenerate")
        elif not _is_positive_definite(h @ a.j):
            fails.append("designated polarization is not positive")
    return ValidationReport(tuple(fails))


# -- matrix <-> vector plumbing for spaces of forms ---------------------------
#
# Alternating forms are flattened to their n(n-1)/2 upper coordinates, the
# entries i < j in row-major order (_upper), on which the span layer runs.
# The bases are those of the forms flattened to all n^2 entries: the first
# nonzero entry of an alternating matrix in row-major order is above the
# diagonal, so every Hermite pivot, and every coordinate the reduction
# conditions read, is an upper one; the projection is injective and keeps
# integrality both ways; and the Hermite form is unique (Cohen, GTM 138, 2.4).
# Every span basis is read as integer Hermite rows: the generated span is
# the nonzero rows of the row Hermite form of the forms, and the coordinates
# of a target in either span come by forward substitution on those rows.


def _upper(m: Mat) -> tuple:
    d = m.data
    return tuple(d[i][j] for i, j in combinations(range(m.rows), 2))


def _from_upper(v, n: int) -> Mat:
    """The alternating n x n matrix with integer upper coordinates v."""
    m = [[0] * n for _ in range(n)]
    for (p, q), x in zip(combinations(range(n), 2), v):
        m[p][q], m[q][p] = x, -x
    return Mat._make(tuple(map(tuple, m)), n, n)


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
    """Canonical basis, as the rows of a row Hermite form, of the lattice
    the integer upper coordinate vectors generate, or of the integral points
    of its Q-span: each vector's first nonzero entry is positive, at
    strictly increasing positions, which ``_hermite_coordinates`` reads.

    Zero forms, and forms that repeat up to sign, span nothing new and are
    dropped first.  The generated lattice is then the nonzero rows of the
    row Hermite form of the forms themselves; the saturated one is the
    integer kernel of their integer kernel, whose column Hermite basis is
    the same kind of rows.  Both forms are unique, so the basis is too."""
    rows = list(dict.fromkeys(max(v, tuple(-x for x in v)) for v in forms if any(v)))
    if not rows:
        return []
    if not saturated:
        return [tuple(r) for r in _row_hnf(list(map(list, rows))) if any(r)]
    m = Mat._make(tuple(rows), len(rows), len(rows[0]))  # the forms as rows
    y = integer_kernel(m)  # the orthogonal complement
    basis = integer_kernel(y.T) if y.cols else Mat.identity(m.cols)
    return list(zip(*basis.num))


def _hermite_coordinates(target, basis: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Integer coordinates of target in a basis from ``_span``, by forward
    substitution on its Hermite rows (Cohen, GTM 138, 2.4).

    The later basis vectors vanish up to each vector's pivot, so the
    coordinate of each is the running residual at its pivot divided by the
    pivot.  A remainder of that division stays in the residual, where no
    later vector can clear it, so target is an integer combination exactly
    when the final residual is zero.  The solution is unique, so this is
    the exact solve and its integrality test in one pass."""
    r = list(target)
    x = []
    for v in basis:
        c = next(i for i, y in enumerate(v) if y)
        q = r[c] // v[c]
        if q:
            r = [s - q * y for s, y in zip(r, v)]
        x.append(q)
    if any(r):
        raise ValueError("matrix is not an integer combination of the basis")
    return tuple(x)


def intertwiner_basis(j_src: Mat, j_dst: Mat) -> tuple[Mat, ...]:
    """Canonical basis of the integral matrices m with m @ j_src == j_dst @ m.

    The basis is saturated, so every integral intertwiner is an integer
    combination of it: the integer kernel of m -> m @ j_src - j_dst @ m in
    column Hermite form, which is unique.

    The map is one integer system on the row-major vec(m), over the common
    denominator d of the two J's: with s = d * j_src and t = d * j_dst, the
    entry (i, k) of d * (m @ j_src - j_dst @ m) reads s[q][k] at m[i][q] and
    -t[i][p] at m[p][k].  Scaling by d leaves the kernel unchanged.
    """
    rows, cols = j_dst.rows, j_src.rows
    d = lcm(j_src.den, j_dst.den)
    s = [[d // j_src.den * x for x in row] for row in j_src.num]
    t = [[d // j_dst.den * x for x in row] for row in j_dst.num]
    system = []
    for i in range(rows):
        for k in range(cols):
            eq = [0] * (rows * cols)
            for q in range(cols):
                eq[i * cols + q] += s[q][k]
            for p in range(rows):
                eq[p * cols + k] -= t[i][p]
            system.append(tuple(eq))
    ker = integer_kernel(Mat._make(tuple(system), rows * cols, rows * cols))
    return tuple(
        Mat._make(tuple(tuple(v[i * cols : (i + 1) * cols]) for i in range(rows)), rows, cols)
        for v in zip(*ker.num)
    )


def coefficients_in_basis(target: Mat, basis: tuple[Mat, ...]) -> tuple[int, ...]:
    """Integer coordinates of an alternating target in a basis of
    alternating matrices; ValueError when there are none.

    The basis is arbitrary, not a Hermite basis from ``_span``, so the
    coordinates come from one exact solve, which is exact on rational
    coordinates as well, rather than by substitution on pivots."""
    if not all(m.is_alternating() for m in (target, *basis)):
        raise ValueError("matrix is not an integer combination of the basis")
    x = solve_exact(Mat.from_cols([_upper(e) for e in basis]), _upper(target))
    if x is None or not vec_is_integral(x):
        raise ValueError("matrix is not an integer combination of the basis")
    return x


# -- duality ------------------------------------------------------------------

# entries kept by each lru_cache helper here, in slopes and in product_audit
# (product varieties, slope member data, full form lattices).  A run touches
# a few varieties: the gate builds 13 member-data keys and the full form
# lattices of 2 complex structures, and the partners workload 16 and 4.
# Larger partner boxes have more keys than this (804 on E_i x E_i at
# coefficient bound 3, denominator bound 5), and enumerate_partners builds
# their slopes grouped by key, so each key is still built once and the
# bound only caps memory
PRODUCT_CACHE_SIZE = 64


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _compatible_forms(j: Mat) -> tuple[tuple[tuple[int, ...], ...], tuple[Mat, ...]]:
    """(rows, classes): the canonical basis, as the Hermite rows ``_span``
    gives, of the upper coordinates of every integral alternating form e
    with j^T e j = e, and the class matrices of those rows.  Both are built
    once per complex structure, so every ``dual`` onto j shares one tuple
    of class matrices.

    It is one saturated ``integer_kernel`` of that system on the
    n(n-1)/2 upper coordinates, over den^2 for j = num / den: entry (i, k)
    of num^T e_pq num, for the alternating form e_pq with 1 at (p, q), is
    num_pi num_qk - num_qi num_pk.  The transform of an alternating form
    is alternating, so only the entries i < k are equations.  A saturated
    lattice has one Hermite basis, so this is the basis ``_span(...,
    saturated=True)`` gives for any set of forms that spans the same
    rational space.
    """
    n, d = j.rows, j.num
    pairs = tuple(combinations(range(n), 2))
    den2 = j.den * j.den
    system = tuple(
        tuple(
            d[p][i] * d[q][k] - d[q][i] * d[p][k] - (den2 if (p, q) == (i, k) else 0)
            for p, q in pairs
        )
        for i, k in pairs
    )
    ker = integer_kernel(Mat._make(system, len(pairs), len(pairs)))
    rows = tuple(zip(*ker.num))
    return rows, tuple(_from_upper(v, n) for v in rows)


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
    The sign of the dual polarization is Sylvester's test in one Bareiss
    pass, and its coordinates are read off the Hermite rows of the
    re-saturated span by forward substitution.

    When the presented classes number g^2, no form is transported.  The
    alternating forms compatible with a rational J (J^2 = -I) are the
    imaginary parts of the Hermitian forms on (Q^2g, J), a Q(i)-space of
    dimension g, so they form a space of dimension g^2 (Birkenhake-Lange,
    *Complex Abelian Varieties*, on Hermitian forms and the Neron-Severi
    group), and transport is a linear isomorphism onto the forms
    compatible with -J^T.  So the g^2 classes of a valid variety, being
    independent, carry over to a spanning set, and their saturation is the
    lattice of all integral -J^T-compatible forms: ``_compatible_forms``,
    one kernel per complex structure, whose Hermite rows give the
    polarization's coordinates and whose class matrices, built with them,
    are the NS basis of every such dual on that structure.
    """
    jd = -1 * a.j.T
    h = a.polarization_class()
    try:
        hi, _ = h.inverse().cleared()
    except ValueError:
        raise ValueError("variety has a degenerate designated polarization") from None
    if len(a.ns_basis) == a.g**2:
        ns_up, ns_d = _compatible_forms(jd)
    else:
        ns_up = _span(_transport([_upper(e) for e in a.ns_basis], hi), saturated=True)
        ns_d = tuple(_from_upper(v, a.dim) for v in ns_up)
    # hi is primitive: a prime dividing its entries would divide d, because
    # h @ hi = d * I, and then d / p would already clear h^-1
    hd = -hi
    if not _is_positive_definite(hd @ jd):
        hd = hi
    pol = _hermite_coordinates(_upper(hd), ns_up)
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

    def kernel(self) -> "FiniteSubgroup":
        # m^-1 Z^n = {v : m v integral} lies in (1/|det m|) Z^n: |det m| m^-1 is the adjugate
        det = self.m.det() if self.m.is_square else 0
        if det == 0:
            raise NotAnIsogenyError("kernel of a non-isogeny is not finite")
        return FiniteSubgroup(self.source, sublattice_where_integral(abs(int(det)), self.m))

    def dual_hom(self) -> "Homomorphism":
        # m J = J' m transposes to m^T (-J'^T) = (-J^T) m^T
        return Homomorphism._make(dual(self.target), dual(self.source), self.m.T)

    def inverse(self) -> "Homomorphism":
        if not (self.m.is_square and abs(self.m.det()) == 1):
            raise ValueError("only unimodular maps invert integrally")
        # a unimodular integral intertwiner has one as its inverse
        return Homomorphism._make(self.target, self.source, self.m.inverse())

    def compose(self, first: "Homomorphism") -> "Homomorphism":
        """self after first (matrix product self.m @ first.m)."""
        if first.target != self.source:
            raise VarietyMismatchError("composition of incompatible maps")
        # a product of integral intertwiners
        return Homomorphism._make(first.source, self.target, self.m @ first.m)


def is_isomorphism_certificate(f: Homomorphism) -> bool:
    """True iff f is integral, unimodular, and intertwines the complex structures.

    Integrality and intertwining hold for every Homomorphism, checked or
    proved at construction, so the residual check is unimodularity.
    """
    return f.m.is_square and abs(f.m.det()) == 1


def class_kernel(c: NSClass) -> "FiniteSubgroup":
    """K(L): the finite kernel of the class homomorphism, for nondegenerate c.

    The kernel lattice is e^-T Z^n, the dual of Z^n under e, which is
    e^-1 Z^n = {v : e v integral}, because e^T = -e.  One Smith form of e
    decides everything: a zero invariant factor means e is singular and the
    kernel is not finite; otherwise the largest factor is the exponent of
    Z^n / e Z^n, so the kernel lies in (1/exponent) Z^n and
    ``sublattice_where_integral`` reads it off one congruence echelon.  The
    structure is filled from the same Smith form: e^-T Z^n / Z^n is
    isomorphic to Z^n / e^T Z^n (Mumford, *Abelian Varieties*, section 23).
    No identity is lost: the gate still enumerates the kernel lattice
    against this structure, pointwise, in the degree law.  The
    paired-divisor criterion and the ``kl`` command need only the structure,
    so they read the Smith form of e directly and build no kernel.
    """
    diag = snf(c.e)
    if 0 in diag:
        raise NotAnIsogenyError("kernel of a degenerate class is not finite")
    return FiniteSubgroup._with_structure(
        c.variety, sublattice_where_integral(diag[-1], c.e), FiniteGroupStructure.from_diagonal(diag)
    )


# -- finite subgroups ----------------------------------------------------------


class FiniteSubgroup(Record):
    """A finite subgroup of a torus, stored as an overlattice of Z^2g.

    The overlattice must contain the periods, so it has full rank: every
    construction here meets that, and ``corpus.subgroup_from_json`` checks
    it at the file boundary.  ``structure`` is the quotient by the periods,
    read on first use off one Smith form of the overlattice basis by
    ``quotient_structure``, except where ``_with_structure`` fills it at
    construction because it is known outright: ``class_kernel`` (K(e) is
    isomorphic to Z^n / eZ^n, so the Smith form of the class is its
    structure, and the gate's point enumeration still checks that structure
    against the kernel lattice), ``torsion_subgroup(a, n)``, which is
    (Z/n)^2g, and
    ``trivial_subgroup``.  ``Homomorphism.kernel`` stays lazy: the
    identities that compare a kernel's order with a determinant of the
    same matrix need its structure read off the lattice.  The dimension
    check in ``__post_init__`` is what rejects a subgroup file with the
    wrong row count.
    """

    variety: TorusVariety
    overlattice: Lattice

    def __post_init__(self):
        if self.overlattice.ambient_dim != self.variety.dim:
            raise ValueError("overlattice has the wrong ambient dimension")

    @classmethod
    def _with_structure(
        cls, variety: TorusVariety, overlattice: Lattice, structure: FiniteGroupStructure
    ) -> "FiniteSubgroup":
        """The subgroup with its structure already known, written to the
        instance-dict slot that the ``structure`` cached property fills."""
        sub = cls(variety, overlattice)
        vars(sub)["structure"] = structure
        return sub

    @cached_property
    def structure(self) -> FiniteGroupStructure:
        return quotient_structure(self.overlattice)

    @property
    def order(self) -> int:
        return self.structure.order

    @property
    def divisors(self) -> tuple[int, ...]:
        return self.structure.divisors


def trivial_subgroup(a: TorusVariety) -> FiniteSubgroup:
    return torsion_subgroup(a, 1)


def torsion_subgroup(a: TorusVariety, n: int) -> FiniteSubgroup:
    """A[n]: the overlattice (1/n)Z^2g, whose quotient is (Z/n)^2g."""
    if n < 1:
        raise PreconditionError("torsion level must be positive")
    return FiniteSubgroup._with_structure(
        a,
        Lattice.standard(a.dim).scaled(Fraction(1, n)),
        FiniteGroupStructure.from_diagonal((n,) * a.dim),
    )


# -- products -------------------------------------------------------------------


class Product(Record):
    """The product variety, which is all any caller reads.

    The record stays only because the benchmark workloads read
    ``product(a, b).variety``; once they stop, ``product`` returns the
    variety itself and the record goes.
    """

    variety: TorusVariety


def product(a: TorusVariety, b: TorusVariety, name: str | None = None) -> Product:
    """Product torus with block complex structure and the full block NS data."""
    na, nb = a.dim, b.dim
    za, zab, zba, zb = Mat.zeros(na, na), Mat.zeros(na, nb), Mat.zeros(nb, na), Mat.zeros(nb, nb)
    j = Mat.block([[a.j, zab], [zba, b.j]])
    ns = (
        tuple(Mat.block([[e, zab], [zba, zb]]) for e in a.ns_basis)
        + tuple(Mat.block([[za, zab], [zba, e]]) for e in b.ns_basis)
        # the correspondence blocks are the homomorphisms B -> dual(A)
        + tuple(Mat.block([[za, c], [-1 * c.T, zb]]) for c in intertwiner_basis(b.j, -1 * a.j.T))
    )
    pol = a.polarization + b.polarization + (0,) * (len(ns) - len(a.ns_basis) - len(b.ns_basis))
    v = TorusVariety(a.g + b.g, j, ns, pol, name if name is not None else f"{a.name}x{b.name}")
    return Product(v)


def ns_pullback(f: Homomorphism, c: NSClass) -> NSClass:
    """Pullback of a class along a homomorphism: m^T e m on the source."""
    if c.variety != f.target:
        raise VarietyMismatchError("class does not live on the target")
    # m^T e m is J-compatible on the source because m intertwines
    return NSClass._make(f.source, f.m.T @ c.e @ f.m)
