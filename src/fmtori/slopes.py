"""Rational slopes and the subtorus a slope cuts out of A x dual(A).

A slope is a fraction (numerator class, positive denominator l) in reduced
form.  It determines a subtorus of the product of the variety with its dual,
namely the image of v -> (l*v, e*v); the member lattice of that subtorus is

    {v in (1/l)*Lambda : e*v integral}

which makes sense even for degenerate numerators.  The multiplication-by-l
projection back to the variety is an isogeny whose degree is a perfect
square; the integer square root is the rank of the semi-homogeneous bundle
carrying the slope, and the projection kernel is the bundle's stabilizer
subgroup.  None of the sheaves are constructed here, only these invariants.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt

from .lattices import Lattice, sublattice_where_integral
from .matrices import Mat, Vec, integer_kernel, snf
from .records import Record
from .varieties import (
    FiniteSubgroup,
    Homomorphism,
    InternalInvariantViolation,
    NSClass,
    PreconditionError,
    TorusVariety,
    _coefficients,
    _excerpt,
    _from_upper,
    _span,
    _transport,
    _upper,
    dual,
    product,
)


class Slope(Record):
    """A reduced fraction: numerator NS class, denominator l >= 1.

    Reduced means gcd(l, content of the numerator matrix) = 1, so the zero
    class only ever appears over denominator 1.  Unreduced data is
    unrepresentable; build through reduce_slope.
    """

    numerator: NSClass
    l: int

    def __post_init__(self):
        if self.l < 1:
            raise PreconditionError("slope denominator must be positive")
        if gcd(self.numerator.e.content(), self.l) != 1:
            raise ValueError("slope is not reduced; use reduce_slope")

    @property
    def variety(self) -> TorusVariety:
        return self.numerator.variety


def reduce_slope(numerator: NSClass, l: int) -> Slope:
    """Divide out the common content of the class matrix and the denominator."""
    if l < 1:
        raise PreconditionError("slope denominator must be positive")
    g = gcd(numerator.e.content(), l)
    if g == 1:
        return Slope(numerator, l)
    reduced = Mat([[x // g for x in row] for row in numerator.e.data])
    return Slope(NSClass(numerator.variety, reduced), l // g)


def member_lattice(a: TorusVariety, mu: Slope) -> Lattice:
    """The overlattice {v in (1/l)Lambda : e v integral} presenting the subtorus."""
    shell = Lattice.standard(a.dim).scaled(Fraction(1, mu.l))
    return sublattice_where_integral(shell, mu.numerator.e)


def slope_kernel(a: TorusVariety, mu: Slope) -> FiniteSubgroup:
    """Kernel of A -> A_mu, v -> v: the member lattice modulo the period lattice."""
    return FiniteSubgroup(a, member_lattice(a, mu))


class SlopeSubvariety(Record):
    """The subtorus of A x dual(A) cut out by a slope, with its structure maps.

    embedding is the rational matrix of v -> (l*v, e*v) in ambient
    coordinates; the abstract variety presents the subtorus on its own
    member lattice, with NS data pulled back from the ambient product.
    quotient: A -> abstract is v -> v; projection: abstract -> A is v -> l*v.
    The annihilator of the embedded image, which only membership tests
    and the audit read, is computed on first use.
    """

    slope: Slope
    ambient: TorusVariety
    member: Lattice
    embedding: Mat
    variety: TorusVariety
    to_ambient: Homomorphism
    quotient: Homomorphism
    projection: Homomorphism

    @cached_property
    def annihilator(self) -> Mat:
        """Integer rows cutting out the embedded image: a saturated basis of
        the integer covectors that vanish on it."""
        return integer_kernel(self.embedding.T).T

    @cached_property
    def annihilator_lattice(self) -> Lattice:
        ann = self.annihilator
        return Lattice(ann.rows, ann)

    def contains(self, point: Vec, covector: Vec) -> bool:
        """Membership of a rational (point, covector) pair in the subtorus.

        True iff some v has l*v = point mod Lambda and e*v = covector mod
        the dual lattice: the pair, reduced modulo the ambient period
        lattice, lies on the embedded image.
        """
        n = self.slope.variety.dim
        if len(point) != n or len(covector) != n:
            raise ValueError("point/covector have the wrong length")
        image = self.annihilator.apply(tuple(point) + tuple(covector))
        return self.annihilator_lattice.contains_vector(image)

    def kernel(self) -> FiniteSubgroup:
        return FiniteSubgroup(self.slope.variety, self.member)


# product varieties kept by the lru_cache helpers here and in product_audit;
# a run touches a few varieties, so the bound only caps a long-lived process
PRODUCT_CACHE_SIZE = 64


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _ambient_product(a: TorusVariety, name: str) -> TorusVariety:
    # name is part of the cache key because TorusVariety equality ignores it
    return product(a, dual(a), name=f"{name}x{name}^").variety


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _ambient_forms(a: TorusVariety, name: str) -> tuple[tuple, ...]:
    """Upper coordinates of every ambient NS class and, last, of the
    ambient polarization class."""
    amb = _ambient_product(a, name)
    return tuple(_upper(e) for e in (*amb.ns_basis, amb.polarization_class()))


def slope_subvariety(a: TorusVariety, mu: Slope) -> SlopeSubvariety:
    """The subtorus of A x dual(A) that mu cuts out, with its structure maps.

    The member lattice {w/l : e w = 0 mod l}, the inverse of its basis h and
    the complex structure h^-1 J h it carries depend on mu only through
    (e mod l, l), so ``partners.enumerate_partners`` computes them once per
    residue and passes them to the same construction.  The embedding, its
    integrality and primitivity checks, the NS transport and the three maps
    depend on e itself and are built for every slope.
    """
    if mu.variety != a:
        raise ValueError("slope does not live on the given variety")
    return _slope_subvariety(a, mu, _member_data(a, mu))


def _member_data(a: TorusVariety, mu: Slope) -> tuple[Lattice, Mat, Mat]:
    """(member lattice, h^-1, h^-1 J h) for the canonical basis h of the
    member lattice of mu: the same for every slope with the same e mod l and
    l, since e w / l is integral exactly when e w = 0 mod l."""
    lam_mu = member_lattice(a, mu)
    h_inv = lam_mu.basis.inverse()
    return lam_mu, h_inv, h_inv @ a.j @ lam_mu.basis


def _slope_subvariety(
    a: TorusVariety, mu: Slope, member: tuple[Lattice, Mat, Mat]
) -> SlopeSubvariety:
    """slope_subvariety(a, mu) on member = _member_data(a, mu'), for mu on a
    and any mu' on a with the same residue key as mu."""
    n = a.dim
    amb = _ambient_product(a, a.name)
    lam_mu, h_inv, j_mu = member
    h = lam_mu.basis
    emb = Mat.vstack(mu.l * Mat.identity(n), mu.numerator.e)
    emb_h = emb @ h
    if not emb_h.is_integral():
        raise InternalInvariantViolation("embedding is not integral on the member lattice")
    # emb_h has full column rank (its top block l*h is invertible), so its
    # image is primitive exactly when every invariant factor is 1
    if snf(emb_h) != (1,) * n:
        raise InternalInvariantViolation("embedded member lattice is not primitive")
    # NS data: restrict every ambient class, and the polarization, along the
    # embedding on upper coordinates, then present the lattice the classes
    # generate (no saturation: only classes from the ambient product count)
    *restricted, pol_r = _transport(_ambient_forms(a, a.name), emb_h)
    basis = _span(restricted, saturated=False)
    ns_mu = tuple(_from_upper(v, n) for v in basis)
    pol = _coefficients(pol_r, basis)
    abstract = TorusVariety(a.g, j_mu, ns_mu, pol, name=f"{a.name}_mu")
    return SlopeSubvariety(
        slope=mu,
        ambient=amb,
        member=lam_mu,
        embedding=emb,
        variety=abstract,
        to_ambient=Homomorphism(abstract, amb, emb_h),
        quotient=Homomorphism(a, abstract, h_inv),
        projection=Homomorphism(abstract, a, mu.l * h),
    )


class ProjectionInvariants(Record):
    """Numerical invariants of the projection from the subtorus back to A.

    degree is the isogeny degree of multiplication-by-l off the member
    lattice; rank is its integer square root (the bundle rank); stabilizer
    is the projection kernel, a subgroup of the abstract subtorus.
    """

    degree: int
    stabilizer: FiniteSubgroup
    rank: int


def projection_invariants(a: TorusVariety, mu: Slope) -> ProjectionInvariants:
    lam_mu, _, j_mu = _member_data(a, mu)
    pi = mu.l * lam_mu.basis
    deg = abs(int(pi.det()))
    r = isqrt(deg)
    if r * r != deg:
        raise InternalInvariantViolation(
            f"projection degree {deg} is not a perfect square"
        )
    # a bare torus presentation suffices to carry the kernel; the subtorus NS
    # data plays no role in the projection invariants
    abstract = TorusVariety(a.g, j_mu, (), (), name=f"{a.name}_mu")
    sigma = Homomorphism(abstract, a, pi).kernel()
    if sigma.order != deg:
        raise InternalInvariantViolation("stabilizer order differs from projection degree")
    return ProjectionInvariants(degree=deg, stabilizer=sigma, rank=r)


# -- slope literals -------------------------------------------------------------

_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?E(\d+)$")


def parse_slope_literal(a: TorusVariety, text: str) -> tuple[NSClass, int]:
    """Parse "c0*E0+c1*E1-E2/l" into (class, denominator), unreduced.

    Names E0, E1, ... index the presented NS basis positionally.  The
    denominator suffix is optional and defaults to 1.  Returns the raw pair
    so callers can decide whether silent reduction is appropriate.
    """
    s = text.strip().replace(" ", "")
    l = 1
    if "/" in s:
        s, _, tail = s.rpartition("/")
        try:
            l = int(tail)
        except ValueError:
            raise ValueError(f"bad slope denominator {_excerpt(tail)}") from None
        if l < 1:
            raise ValueError("slope denominator must be positive")
    coeffs = [0] * len(a.ns_basis)
    if s in ("0", "+0", "-0"):
        return a.ns_class(coeffs), l
    if not s:
        raise ValueError("empty slope literal")
    pos = 0
    for m in re.finditer(r"[+-]?[^+-]+", s):
        if m.start() != pos:
            raise ValueError(f"cannot parse slope term near {_excerpt(s[pos:])}")
        pos = m.end()
        term = _TERM.match(m.group(0))
        if not term:
            raise ValueError(f"cannot parse slope term {_excerpt(m.group(0))}")
        sign = -1 if term.group(1) == "-" else 1
        c = int(term.group(2)) if term.group(2) else 1
        idx = int(term.group(3))
        if idx >= len(a.ns_basis):
            raise ValueError(
                f"basis name {_excerpt('E' + term.group(3))} out of range"
                f" (variety has {len(a.ns_basis)} classes)"
            )
        coeffs[idx] += sign * c
    if pos != len(s):
        raise ValueError(f"trailing garbage in slope literal {_excerpt(text)}")
    return a.ns_class(coeffs), l
