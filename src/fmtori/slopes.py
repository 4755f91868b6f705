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
from functools import lru_cache
from math import gcd, isqrt, prod

from .lattices import Lattice, sublattice_where_integral
from .matrices import Mat, snf
from .records import Record
from .varieties import (
    FiniteSubgroup,
    Homomorphism,
    InternalInvariantViolation,
    NSClass,
    PreconditionError,
    TorusVariety,
    _excerpt,
    _from_upper,
    _hermite_coordinates,
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
        return Slope._make(numerator, l)
    n = numerator.variety.dim
    # a valid class over a common factor g of its entries: gcd(content/g, l/g) = 1
    reduced = Mat._make(tuple(tuple(x // g for x in row) for row in numerator.e.num), n, n)
    return Slope._make(NSClass._make(numerator.variety, reduced), l // g)


def member_lattice(mu: Slope) -> Lattice:
    """The overlattice {v in (1/l)Lambda : e v integral} presenting the subtorus."""
    return _member(mu)[0]


def slope_kernel(mu: Slope) -> FiniteSubgroup:
    """Kernel of A -> A_mu, v -> v: the member lattice modulo the period lattice."""
    return FiniteSubgroup(mu.variety, member_lattice(mu))


class SlopeSubvariety(Record):
    """The subtorus of A x dual(A) cut out by a slope, with its structure maps.

    embedding is the rational matrix of v -> (l*v, e*v) in ambient
    coordinates; the abstract variety presents the subtorus on its own
    member lattice, with NS data pulled back from the ambient product.
    quotient: A -> abstract is v -> v; projection: abstract -> A is v -> l*v.
    """

    slope: Slope
    ambient: TorusVariety
    member: Lattice
    embedding: Mat
    variety: TorusVariety
    to_ambient: Homomorphism
    quotient: Homomorphism
    projection: Homomorphism


# entries kept by each lru_cache helper here and in product_audit (product
# varieties, slope member data).  A run touches a few varieties; the gate
# builds 13 member-data keys and the partners workload 16.  Larger partner
# boxes have more keys than this (804 on E_i x E_i at coefficient bound 3,
# denominator bound 5), and enumerate_partners builds their slopes grouped
# by key, so each key is still built once and the bound only caps memory
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


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _member_data(j: Mat, residue: Mat, l: int) -> tuple[Lattice, Mat, Mat]:
    """(member lattice, h^-1, h^-1 J h) for the canonical basis h of the
    member lattice {w/l : residue w = 0 mod l} on the complex structure j.

    e w / l is integral exactly when e w = 0 mod l, so these are the same for
    every slope on J with numerator e = residue mod l, and the lattice is
    read off one congruence echelon by ``sublattice_where_integral``.  The
    key holds no name, and none of the three results carries one.
    """
    lam_mu = sublattice_where_integral(l, residue)
    h_inv = lam_mu.basis.inverse()
    return lam_mu, h_inv, h_inv @ j @ lam_mu.basis


def _member(mu: Slope) -> tuple[Lattice, Mat, Mat]:
    """The member data of mu, shared by every slope with the same
    (J, e mod l, l)."""
    a, l, n = mu.variety, mu.l, mu.variety.dim
    # the entries of an integral class reduced mod l: still integral
    residue = Mat._make(tuple(tuple(x % l for x in row) for row in mu.numerator.e.num), n, n)
    return _member_data(a.j, residue, l)


def slope_subvariety(mu: Slope) -> SlopeSubvariety:
    """The subtorus of A x dual(A) that mu cuts out, with its structure maps.

    The member lattice {w/l : e w = 0 mod l}, the inverse of its basis h and
    the complex structure h^-1 J h it carries depend on mu only through
    (J, e mod l, l), so they are built once per such key, in the one bounded
    cache that ``projection_invariants`` and ``slope_kernel`` read too.  The
    embedding, its integrality and primitivity checks, the NS transport and
    the three maps depend on e itself and are built for every slope.
    """
    a, n = mu.variety, mu.variety.dim
    amb = _ambient_product(a, a.name)
    lam_mu, h_inv, j_mu = _member(mu)
    h = lam_mu.basis
    # the rows of l*I over those of e, which is integral
    scaled = tuple(tuple(mu.l if i == k else 0 for k in range(n)) for i in range(n))
    emb = Mat._make(scaled + mu.numerator.e.num, 2 * n, n)
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
    pol = _hermite_coordinates(pol_r, basis)
    abstract = TorusVariety(a.g, j_mu, ns_mu, pol, name=f"{a.name}_mu")
    # j_mu = h^-1 J h makes h^-1 and l*h intertwine, and emb_h does because
    # e is J-compatible; h^-1 is integral because the member lattice holds Z^n
    return SlopeSubvariety(
        slope=mu,
        ambient=amb,
        member=lam_mu,
        embedding=emb,
        variety=abstract,
        to_ambient=Homomorphism._make(abstract, amb, emb_h),
        quotient=Homomorphism._make(a, abstract, h_inv),
        projection=Homomorphism._make(abstract, a, mu.l * h),
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


def projection_invariants(mu: Slope) -> ProjectionInvariants:
    a = mu.variety
    lam_mu, _, j_mu = _member(mu)
    pi = mu.l * lam_mu.basis
    # a full rank Hermite basis is triangular with a positive diagonal, so
    # the determinant of pi is the product of that diagonal
    deg = prod(pi[i, i] for i in range(a.dim))
    r = isqrt(deg)
    if r * r != deg:
        raise InternalInvariantViolation(
            f"projection degree {deg} is not a perfect square"
        )
    # a bare torus presentation suffices to carry the kernel; the subtorus NS
    # data plays no role in the projection invariants
    abstract = TorusVariety(a.g, j_mu, (), (), name=f"{a.name}_mu")
    # the stabilizer is the kernel pi^-1 Z^n of the projection; deg * pi^-1 is
    # the adjugate of pi, so that kernel lies in (1/deg) Z^n
    sigma = FiniteSubgroup(abstract, sublattice_where_integral(deg, pi))
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
