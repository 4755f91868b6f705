"""Block classes on a product of two tori and the kernel-bundle audit.

An alternating class on A x B decomposes into diagonal blocks (classes on
the factors) and an off-diagonal correspondence block, which is the matrix
of a homomorphism from A into the dual of B.  For a reduced slope built
from such a class, a battery of exact identities characterizes when the
class is the numerical shadow of a kernel bundle inducing a derived
equivalence: the slope-subtorus kernel has order l^2, the correspondence
homomorphism is an isogeny of degree l^(2g-2), its kernel sits inside the
right class kernels and torsion, the two partial graphs over torsion agree,
and the subtorus torsion is generated by the displayed tuples.

The audit never proves an equivalence; it machine-checks every numerical
consequence and reports each comparison separately.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .lattices import Lattice, quotient_structure, sublattice_where_integral
from .matrices import Mat, combination_map, integer_kernel, snf
from .partners import require_within_cap
from .records import Record
from .slopes import (
    PRODUCT_CACHE_SIZE,
    Slope,
    SlopeSubvariety,
    _ambient_product,
    reduce_slope,
    slope_kernel,
    slope_subvariety,
)
from .varieties import (
    FiniteSubgroup,
    Homomorphism,
    InternalInvariantViolation,
    NSClass,
    PreconditionError,
    TorusVariety,
    VarietyMismatchError,
    _is_positive_definite,
    dual,
    is_isomorphism_certificate,
    product,
)


def is_ample(c: NSClass) -> bool:
    """Positivity of the associated symmetric form, checked by exact minors."""
    return _is_positive_definite(c.e @ c.variety.j)


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _product_variety(a: TorusVariety, b: TorusVariety) -> TorusVariety:
    return product(a, b).variety


# no caller in the package: it stays while bench/layers.py reads its cache_info()
@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _dual_product_variety(a: TorusVariety, b: TorusVariety) -> TorusVariety:
    return product(dual(a), dual(b)).variety


class ProductNSClass(Record):
    """An integral alternating compatible class on A x B, with block access."""

    a: TorusVariety
    b: TorusVariety
    m: Mat
    name: str = "M"

    def __post_init__(self):
        self._class.__post_init__()  # the full class check, on the product

    # the class on the product is derived, not a field: out of repr and equality
    @cached_property
    def _class(self) -> NSClass:
        return NSClass._make(_product_variety(self.a, self.b), self.m)

    # the diagonal blocks of a valid class under a block-diagonal J are valid
    @cached_property
    def block_a(self) -> NSClass:
        n = self.a.dim
        return NSClass._make(self.a, self.m.submatrix(range(n), range(n)))

    @cached_property
    def block_b(self) -> NSClass:
        n, k = self.a.dim, self.b.dim
        return NSClass._make(self.b, self.m.submatrix(range(n, n + k), range(n, n + k)))

    @property
    def correspondence(self) -> Mat:
        n, k = self.a.dim, self.b.dim
        return self.m.submatrix(range(n), range(n, n + k))

    def as_class(self) -> NSClass:
        return self._class


class AuditItem(Record):
    name: str
    passed: bool
    expected: str
    actual: str


class AuditReport(Record):
    """The audit of a product class over denominator l, item by item, with
    the slope subtorus it built, which ``projection_iso`` reads.  The
    subtorus is None when the factors differ in dimension: that audit has
    one failing item and builds none."""

    pc: ProductNSClass
    l: int
    items: tuple[AuditItem, ...]
    subtorus: SlopeSubvariety | None

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)


def _item(name: str, expected, actual) -> AuditItem:
    return AuditItem(name, expected == actual, str(expected), str(actual))


def _kernel_inside(over: Mat, cls: Mat, l: int) -> bool:
    # kernel of an isogeny lies in ker(class hom) iff the class is integral
    # on the kernel's overlattice, and in the l-torsion iff l times the
    # overlattice is integral; ``over`` is any generating set of it, since
    # integrality on generators does not depend on the basis
    return (l * over).is_integral() and (cls @ over).is_integral()


class GraphComparison(Record):
    """Whether the two graph subgroups are equal, and the first one's order."""

    equal: bool
    order: int


def graph_subgroup_comparison(pc: ProductNSClass, l: int) -> GraphComparison:
    """The graph subgroups the theory compares: the images of l-torsion
    under the two partial-graph maps into dual(A) x dual(B).

    Composing the class homomorphism of the product class with the two
    factor inclusions splits the class matrix into its column halves, so
    each image is the overlattice (1/l) half Z^n + Z^m on dual(A) x dual(B).
    """
    na, m = pc.a.dim, pc.m
    periods = Lattice.standard(m.rows)
    g1, g2 = (
        Lattice(Fraction(1, l) * m.submatrix(range(m.rows), cols)).sum(periods)
        for cols in (range(na), range(na, m.cols))
    )
    return GraphComparison(g1 == g2, quotient_structure(g1).order)


def _slope_of(pc: ProductNSClass, l: int) -> Slope:
    if l < 1:
        raise PreconditionError("slope denominator must be positive")
    cls = pc.as_class()
    if gcd(cls.e.content(), l) != 1:
        raise PreconditionError("slope of the product class is not reduced")
    return Slope._make(cls, l)


def audit_equivalence(pc: ProductNSClass, l: int) -> AuditReport:
    """Run every exact equivalence identity for the class over denominator l.

    Precondition: the slope is reduced, and for l > 1 the B-block is ample;
    adding multiples of l times an ample class on B to the B-block makes it
    ample and changes the slope by an integral class, which the subtorus
    construction cannot see.  Dimension mismatch between the factors is
    reported as a failing audit, not an exception.

    The correspondence isogeny pi: A -> dual(B) has matrix corr^T (reading
    the block on the dual basis of B transposes it) and degree |det corr|,
    and the kernels of pi and its dual are spanned by corr^-T and corr^-1.
    No dual is built: pi intertwines because the class is J-compatible, so
    J_A^T C J_B = C, which gives C^T J_A = -J_B^T C^T.

    The report keeps the class and the slope subtorus the audit built, so
    ``projection_iso`` reads them instead of auditing again.  The audit
    reads only the subtorus's embedding; its NS data and maps are built
    when first read, by ``projection_iso`` or another caller, so an audit
    builds neither the ambient product nor any restriction.
    """
    mu = _slope_of(pc, l)
    if pc.a.g != pc.b.g:
        item = _item("equal_dimensions", pc.a.g, pc.b.g)
        return AuditReport(pc, l, (item,), None)
    if l > 1 and not is_ample(pc.block_b):
        raise PreconditionError(
            "the B-block of the class must be ample for l > 1; "
            "add multiples of l times an ample class on B to the B-block"
        )
    g = pc.a.g
    items: list[AuditItem] = []

    sv = slope_subvariety(mu)
    kern = slope_kernel(mu)
    items.append(_item("subtorus_kernel_order", l * l, kern.order))

    corr = pc.correspondence
    det = corr.det()
    if det != 0:
        items.append(_item("correspondence_degree", l ** (2 * g - 2), abs(det)))
        inv = corr.inverse()
        items.append(
            AuditItem(
                "correspondence_kernel_inclusions",
                _kernel_inside(inv.T, pc.block_a.e, l) and _kernel_inside(inv, pc.block_b.e, l),
                "both inclusions",
                "checked",
            )
        )
        # ker(pi) = corr^-T Z^n, and its quotient by Z^n is Z^n / corr^T Z^n
        pi_divisors = tuple(d for d in snf(corr) if d > 1)
    else:
        items.append(_item("correspondence_degree", l ** (2 * g - 2), "not an isogeny"))
        items.append(
            AuditItem("correspondence_kernel_inclusions", False, "both inclusions", "no isogeny")
        )
        pi_divisors = ()

    cmp = graph_subgroup_comparison(pc, l)
    items.append(_item("graph_subgroup_order", l * l, cmp.order))
    items.append(AuditItem("graph_subgroups_equal", cmp.equal, "equal", "equal" if cmp.equal else "different"))

    # torsion level: l times the largest elementary divisor in play; the
    # quotient onto the subtorus has kernel of exponent dividing l, so its
    # level-D torsion is generated by displayed tuples from (D*l)-torsion
    # points of the product, never from level D alone
    level = l * max((1,) + kern.divisors + pi_divisors)
    n_amb = 2 * mu.variety.dim
    window = Lattice.standard(n_amb).scaled(Fraction(1, level))
    # integer rows cutting out the embedded image: a saturated basis of the
    # annihilator, so they span Z^k and a point lies on the subtorus exactly
    # when they are integral on it
    ann = integer_kernel(sv.embedding.T).T
    on_subtorus = sublattice_where_integral(level, ann)
    generated = Lattice(
        Mat.hstack(Fraction(1, level * l) * sv.embedding, Mat.identity(n_amb))
    ).intersect(window)
    items.append(
        AuditItem(
            "subtorus_torsion_generated_by_tuples",
            on_subtorus == generated,
            f"tuple generation at level {level}",
            "equal" if on_subtorus == generated else "mismatch",
        )
    )

    return AuditReport(pc, l, tuple(items), sv)


class ProjectionIso(Record):
    to_b_side: Homomorphism
    to_a_side: Homomorphism
    eta: Homomorphism
    dual_certificate: Homomorphism


def _hyperbolic(n: int) -> Mat:
    """Q_n = [[0, I], [I, 0]]: the symmetric form pairing Z^n with its dual."""
    return Mat.identity(2 * n).submatrix([*range(n, 2 * n), *range(n)], range(2 * n))


def _is_anti_isometry(m: Mat) -> bool:
    """m^T Q_B m == -Q_A, for m from Z^2na (A x dual(A)) to Z^2nb."""
    return m.T @ _hyperbolic(m.rows // 2) @ m == -1 * _hyperbolic(m.cols // 2)


def _dual_certificate(pc: ProductNSClass, l: int, eta: Mat) -> Homomorphism:
    """dual(A) -> B_delta: the dual-factor columns y of eta, solved in the
    embedded lattice of B_delta through its top block l*h (the projection
    to B); the solution must be integral, unimodular and reproduce y."""
    na, nb = pc.a.dim, pc.b.dim
    b_delta = slope_subvariety(reduce_slope(pc.block_b, l))
    y = eta.submatrix(range(eta.rows), range(na, 2 * na))
    x = b_delta.projection.m.inverse() @ y.submatrix(range(nb), range(na))
    if not (b_delta.to_ambient.m @ x == y and x.is_integral() and abs(x.det()) == 1):
        raise InternalInvariantViolation("the dual factor of eta misses the B-block subtorus")
    # eta and the injective embedding of B_delta intertwine, so x does
    return Homomorphism._make(dual(pc.a), b_delta.variety, x)


def projection_iso(report: AuditReport) -> ProjectionIso:
    """The coordinate projections q, p off the audited slope subtorus, their
    ratio eta = p q^-1: A x dual(A) -> B x dual(B), and the isomorphism
    dual(A) -> B_delta that eta restricts to, B_delta being the subtorus of
    the B-block slope block_b / l, the only subtorus built here.

    q and p must be unimodular and these must hold, or it raises; on an
    all-pass audit they do:
    * eta^T Q_B eta = -Q_A (Orlov's isometry).  Q_{A x B} = Q_A + Q_B on the
      graph {(q, p)} of eta, the slope subtorus {(l v, e v)}, where it is
      (e v)^T l w + (e w)^T l v = l v^T (e^T + e) w = 0, e being alternating.
      The skew form [[0, I], [-I, 0]] reads 2l v^T e w != 0 there instead.
    * The dual-factor columns of eta are a basis of B_delta (Mukai).  A
      subtorus point with A-coordinate 0 is (l w, e w) for v = (0, w), with
      q-part (0, corr w) and p-part (l w, block_b w); corr is invertible,
      so eta maps 0 x dual(A) onto B_delta over Q, and, being unimodular,
      maps the primitive lattice of the one onto that of the other.
    """
    if not report.all_pass:
        raise PreconditionError("projection_iso requires an all-pass audit")
    pc, l, sv = report.pc, report.l, report.subtorus
    na, nb = pc.a.dim, pc.b.dim
    half = na + nb
    emb = sv.to_ambient.m
    rows_q = list(range(na)) + list(range(half, half + na))
    rows_p = list(range(na, half)) + list(range(half + na, 2 * half))
    all_cols = range(emb.cols)
    q = Homomorphism(sv.variety, _ambient_product(pc.a), emb.submatrix(rows_q, all_cols))
    p = Homomorphism(sv.variety, _ambient_product(pc.b), emb.submatrix(rows_p, all_cols))
    if not (is_isomorphism_certificate(q) and is_isomorphism_certificate(p)):
        raise InternalInvariantViolation(
            "coordinate projections must be unimodular on an all-pass instance"
        )
    eta = p.compose(q.inverse())
    if not _is_anti_isometry(eta.m):
        raise InternalInvariantViolation("eta is not an anti-isometry of the hyperbolic forms")
    return ProjectionIso(p, q, eta, _dual_certificate(pc, l, eta.m))


# -- searches ---------------------------------------------------------------------


def kernel_torsion_subgroup(v: TorusVariety, cls: NSClass, l: int) -> FiniteSubgroup:
    """K(class) intersected with the l-torsion, tolerant of degenerate classes:
    {y/l : e y = 0 mod l} (Mumford, Abelian Varieties, section 23), read
    off one congruence echelon by ``sublattice_where_integral``."""
    if l < 1:
        raise PreconditionError("torsion level must be positive")
    if cls.variety != v:
        raise VarietyMismatchError("class does not live on the variety")
    return FiniteSubgroup(v, sublattice_where_integral(l, cls.e))


def _torsion_kernel_order(e: Mat, l: int) -> int:
    """Order of K(e) meet the l-torsion: the number of solutions of
    e y = 0 mod l in (Z/l)^n, one factor gcd(d, l) per invariant factor d
    of e, with gcd(0, l) = l.  It holds for composite l too, and for a
    reduced slope e/l it is the order of the slope kernel.  Its callers are
    ``search_kernel_class`` and ``search_product_classes``."""
    order = 1
    for d in snf(e):
        order *= gcd(d, l)
    return order


def search_kernel_class(
    v: TorusVariety, l: int, target: FiniteSubgroup, coeff_bound: int
) -> NSClass | None:
    """First NS class (lexicographic coefficients) whose kernel meets the
    l-torsion in exactly the target subgroup; None if no bounded class works.

    K(L) is the annihilator of the period lattice under the form
    (Mumford, Abelian Varieties, section 23), so its l-torsion is
    {y/l : e y = 0 mod l}, and both halves of the test are arithmetic mod l
    on Y = l * (target overlattice basis), which is integral exactly when the
    target lies in the l-torsion:

    * containment: the target lies in the kernel iff e Y = 0 mod l, which
      is linear in the coefficients: sum c_k (E_k Y mod l) = 0 mod l;
    * equality: a contained target is the whole kernel iff the orders
      agree, the kernel's from the invariant factors of e
      (``_torsion_kernel_order``) and the target's as l^n / |det Y|.

    Both depend only on the coefficients mod l, because the NS basis is
    integral.  In lexicographic order, the first vector of the box
    [-B, B]^rank with a given residue has every coordinate at the least
    value of [-B, B] with that residue, which lies in [-B, -B + l - 1]; so
    the first hit over the box is the first hit over the sub-box
    [-B, min(B, l - 1 - B)]^rank, and the walk covers only that, testing
    each residue once.  The sub-box holds the zero vector only when l > B,
    and then the zero residue has no other vector in the box, so leaving
    zero out loses nothing.  No lattice is built for a candidate; the hit
    alone becomes an NSClass, and its kernel lattice, read off one
    congruence echelon by ``kernel_torsion_subgroup``, must equal the
    target, or the identity above has failed.
    """
    if l < 1:
        raise PreconditionError("torsion level must be positive")
    if target.variety != v:
        raise VarietyMismatchError("target subgroup does not live on the variety")
    y = l * target.overlattice.basis
    if not y.is_integral():
        raise PreconditionError("target subgroup must lie in the l-torsion")
    order = l**v.dim // abs(y.det())
    # entry k of E_i Y mod l, gathered across the basis classes i
    images = list(zip(*([x % l for row in (e @ y).data for x in row] for e in v.ns_basis)))

    def hit(coeffs) -> NSClass | None:
        if any(sum(c * w for c, w in zip(coeffs, entry)) % l for entry in images):
            return None
        e = v.class_matrix(coeffs)
        if _torsion_kernel_order(e, l) != order:
            return None
        # an integer combination of the validated basis
        cls = NSClass._make(v, e)
        if kernel_torsion_subgroup(v, cls, l) != target:
            raise InternalInvariantViolation(
                "the kernel of the class found mod l differs from the target"
            )
        return cls

    top = min(coeff_bound, l - 1 - coeff_bound)
    found = _scan(len(v.ns_basis), coeff_bound, top, hit, limit=1)
    return found[0] if found else None


def _scan(rank: int, coeff_bound: int, top: int, evaluate, limit: int) -> list:
    """The first `limit` results of evaluate that are not None, over the
    nonzero vectors of the sub-box [-coeff_bound, top]^rank of the box
    [-coeff_bound, coeff_bound]^rank in lexicographic order.  The size cap
    is checked on the whole box, and the scan stops at the `limit`-th hit.
    """
    if coeff_bound < 1:
        raise PreconditionError("search bound must be at least 1")
    require_within_cap((2 * coeff_bound + 1) ** rank, "class search")
    box = itertools.product(range(-coeff_bound, top + 1), repeat=rank)
    results = (r for r in map(evaluate, filter(any, box)) if r is not None)
    return list(itertools.islice(results, limit))


def search_product_classes(
    a: TorusVariety,
    b: TorusVariety,
    l: int,
    coeff_bound: int,
    limit: int = 1,
) -> list[ProductNSClass]:
    """Lexicographic scan for product classes passing the full audit.

    Necessary conditions run first, cheapest first: a correspondence
    isogeny of degree exactly l^(2g-2), then a reduced slope (the gcd of
    the entries of the integer class matrix with l), both before the
    ProductNSClass is built, then an ample B-block (the audit's
    precondition for l > 1) and a slope-subtorus kernel of order l^2, by
    the Smith identity the kernel-class search uses, on the class matrix
    (``_torsion_kernel_order``).  The degree and kernel-order items stay in
    the audit, so the filters reject only candidates the audit would not
    pass, and the hits are those of auditing every candidate; each filter
    is a necessary condition, so their order does not change the hits
    either.

    The correspondence block of a candidate is the same combination of the
    basis classes' own blocks, and only the classes with a nonzero block
    count (for ``product(a, b)``, the ``intertwiner_basis`` classes).  So
    the degree is decided once per distinct block, on the coefficients of
    those classes, and kept in a dict local to the call.  The scan stops at
    the `limit`-th hit.
    """
    return [r.pc for r in _search_product_classes(a, b, l, coeff_bound, limit)]


def _search_product_classes(
    a: TorusVariety, b: TorusVariety, l: int, coeff_bound: int, limit: int
) -> list[AuditReport]:
    """The audit reports of the hits of search_product_classes, which the
    gate reads.  The public function stays only because the benchmark
    trace binds its name (bench/layers.py, ROADMAP item 3(a))."""
    if l < 1:
        raise PreconditionError("slope denominator must be positive")
    prod = _product_variety(a, b)
    na, nb = a.dim, b.dim
    degree = l ** (2 * a.g - 2)
    blocks = [e.submatrix(range(na), range(na, na + nb)) for e in prod.ns_basis]
    live = [k for k, c in enumerate(blocks) if any(map(any, c.num))]
    corr_matrix = combination_map([blocks[k] for k in live], na, nb)
    has_degree: dict[tuple[int, ...], bool] = {}

    def evaluate(coeffs) -> AuditReport | None:
        key = tuple(coeffs[k] for k in live)
        ok = has_degree.get(key)
        if ok is None:
            ok = has_degree[key] = na == nb and abs(corr_matrix(key).det()) == degree
        if not ok:
            return None
        m = prod.class_matrix(coeffs)
        if gcd(m.content(), l) != 1:
            return None
        # an integer combination of the product basis, valid by linearity
        pc = ProductNSClass._make(a, b, m, "M")
        if l > 1 and not is_ample(pc.block_b):
            return None
        if _torsion_kernel_order(m, l) != l * l:
            return None
        # the public entry: the benchmark trace counts its spans as audits
        report = audit_equivalence(pc, l)
        return report if report.all_pass else None

    return _scan(len(prod.ns_basis), coeff_bound, coeff_bound, evaluate, limit)
