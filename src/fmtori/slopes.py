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
from functools import cached_property, lru_cache
from math import gcd, isqrt, prod

from .lattices import Lattice, sublattice_where_integral
from .matrices import Mat, has_unit_invariant_factors
from .records import Record
from .varieties import (
    PRODUCT_CACHE_SIZE,
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


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _ambient_product(a: TorusVariety) -> TorusVariety:
    return product(a, dual(a)).variety


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _restriction(a: TorusVariety) -> tuple[tuple[tuple, ...], bool]:
    """(forms, full): the upper coordinates of every ambient NS class and,
    last, of the ambient polarization class; and whether a's presented NS
    lattice is full, every integral alternating J-compatible form: g^2
    classes, which span every rational one (``dual``), whose
    upper-coordinate rows have unit invariant factors, so that the lattice
    they generate is saturated.  Each of the g^2 rows has g(2g - 1) >= g^2
    coordinates, so there are g^2 factors, and one echelon pass of
    ``has_unit_invariant_factors`` reads whether each is 1."""
    amb = _ambient_product(a)
    forms = tuple(_upper(e) for e in (*amb.ns_basis, amb.polarization_class()))
    rows = tuple(_upper(e) for e in a.ns_basis)
    r = len(rows)
    return forms, r == a.g**2 and has_unit_invariant_factors(Mat._make(rows, r, len(rows[0])))


@lru_cache(maxsize=PRODUCT_CACHE_SIZE)
def _member_data(a: TorusVariety, residue: Mat, l: int) -> tuple[Lattice, Mat, Mat, list]:
    """(member lattice, h^-1, h^-1 J h, slot) for the canonical basis h of
    the member lattice {w/l : residue w = 0 mod l} on a's complex structure J.

    e w / l is integral exactly when e w = 0 mod l, so these are the same for
    every slope on a with numerator e = residue mod l, and the lattice is
    read off one congruence echelon by ``sublattice_where_integral``.  The
    slot starts empty; when a's NS lattice is full, the first subtorus of
    the key whose variety is read keeps there the subtorus NS basis as
    (Hermite rows in upper coordinates, their class matrices), so every
    later one reuses both, the one tuple of matrices included.  None of
    the four results carries a name.
    """
    lam_mu = sublattice_where_integral(l, residue)
    h_inv = lam_mu.basis.inverse()
    return lam_mu, h_inv, h_inv @ a.j @ lam_mu.basis, []


def _member(mu: Slope) -> tuple[Lattice, Mat, Mat, list]:
    """The member data of mu, shared by every slope with the same
    (variety, e mod l, l)."""
    e, l = mu.numerator.e, mu.l
    residue = Mat._make(tuple(tuple(x % l for x in row) for row in e.num), e.rows, e.cols)
    return _member_data(mu.variety, residue, l)


class SlopeSubvariety(Record):
    """The subtorus of A x dual(A) cut out by a slope mu, with its maps.

    The slope determines it, so the slope is the one field: equality, hash
    and repr go by it.  Construction builds embedding, the rational matrix
    of v -> (l*v, e*v) into the ambient product, checks that it is integral
    and primitive on the member lattice, and keeps mu's member data; the
    rest is built from those on first read:

    * variety, the abstract subtorus on ``member_lattice(mu)``, with NS data
      pulled back from the ambient product;
    * to_ambient: variety -> A x dual(A), the embedding on the member lattice;
    * quotient: A -> variety, v -> v;
    * projection: variety -> A, v -> l*v.
    """

    slope: Slope

    def __post_init__(self):
        mu = self.slope
        n = mu.variety.dim
        member = _member(mu)
        # the rows of l*I over those of e, which is integral
        scaled = tuple(tuple(mu.l if i == k else 0 for k in range(n)) for i in range(n))
        emb = Mat._make(scaled + mu.numerator.e.num, 2 * n, n)
        emb_h = emb @ member[0].basis
        if not emb_h.is_integral():
            raise InternalInvariantViolation("embedding is not integral on the member lattice")
        # emb_h has full column rank (its top block l*h is invertible), so its
        # image is primitive exactly when every invariant factor is 1
        if not has_unit_invariant_factors(emb_h):
            raise InternalInvariantViolation("embedded member lattice is not primitive")
        object.__setattr__(self, "embedding", emb)
        object.__setattr__(self, "_emb_h", emb_h)
        object.__setattr__(self, "_member", member)

    @cached_property
    def variety(self) -> TorusVariety:
        # restrict the ambient classes, and the polarization, along the
        # embedding on upper coordinates, then present the lattice the classes
        # generate (no saturation: only classes from the ambient product count)
        a, n = self.slope.variety, self.slope.variety.dim
        _, _, j_mu, slot = self._member
        forms, full = _restriction(a)
        if slot:
            basis, ns_mu = slot[0]
            (pol_r,) = _transport(forms[-1:], self._emb_h)
        else:
            *restricted, pol_r = _transport(forms, self._emb_h)
            basis = _span(restricted, saturated=False)
            ns_mu = tuple(_from_upper(v, n) for v in basis)
            if full:
                slot.append((basis, ns_mu))
        pol = _hermite_coordinates(pol_r, basis)
        return TorusVariety(a.g, j_mu, ns_mu, pol, name=f"{a.name}_mu")

    # j_mu = h^-1 J h makes h^-1 and l*h intertwine, and emb_h does because
    # e is J-compatible; h^-1 is integral because the member lattice holds Z^n

    @cached_property
    def to_ambient(self) -> Homomorphism:
        a = self.slope.variety
        return Homomorphism._make(self.variety, _ambient_product(a), self._emb_h)

    @cached_property
    def quotient(self) -> Homomorphism:
        return Homomorphism._make(self.slope.variety, self.variety, self._member[1])

    @cached_property
    def projection(self) -> Homomorphism:
        mu = self.slope
        return Homomorphism._make(self.variety, mu.variety, mu.l * self._member[0].basis)


def slope_subvariety(mu: Slope) -> SlopeSubvariety:
    """The subtorus of A x dual(A) that mu cuts out, with its structure maps.

    Every call builds the embedding and checks that it is integral and
    primitive on the member lattice, primitivity read off one echelon pass
    by ``has_unit_invariant_factors``; the NS data and the three maps are
    built when first read (``SlopeSubvariety``), so a caller that reads
    only the embedding, as ``audit_equivalence`` does, builds neither the
    ambient product nor any restriction.

    The member lattice {w/l : e w = 0 mod l}, the inverse of its basis h,
    the complex structure h^-1 J h it carries and, when A's presented NS
    lattice is full, the subtorus NS basis depend on mu only through
    (A, e mod l, l).  They are built once per such key, in the one bounded
    member-data cache that ``projection_invariants`` and ``slope_kernel``
    read too, and each subtorus keeps the member data it fetched: the
    first subtorus of a key on a full lattice whose variety is read
    restricts every ambient class and keeps the basis, its Hermite rows
    and their class matrices, in the key's slot, and the others read both
    there, so the subtori of one key share one ``ns_basis`` tuple.  The
    transport of the polarization depends on e itself and runs for every
    subtorus whose variety is read.

    The NS lattice of the subtorus is generated by the restrictions of the
    ambient classes.  A's is full when it holds every integral J-compatible
    form (``_restriction``: g^2 classes, which span every rational one, as
    ``dual`` says, generating a saturated lattice), and two facts make the
    sharing exact there:

    * NS(A x dual(A)) = NS(A) + NS(dual(A)) + Hom(A, dual(A))
      (Birkenhake-Lange, *Complex Abelian Varieties*, on the Neron-Severi
      group of a product), which ``product`` builds; ``dual`` saturates,
      so with a full NS(A) the ambient lattice is full too;
    * if e' = e mod l with both in NS(A), then e' = e + l k with k in
      NS(A), and the shear (x, y) -> (x, y + k x) is an automorphism of
      A x dual(A) that carries the embedding of e to that of e' and maps
      the full ambient lattice onto itself, so both restrictions generate
      one lattice.

    Any other presentation restricts every ambient class for every slope:
    on E_i x E_i with its second class doubled, a valid presentation of
    index 2, one key holds up to 3 distinct NS lattices.
    """
    return SlopeSubvariety(mu)


class ProjectionInvariants(Record):
    """Numerical invariants of the projection from the subtorus back to A.

    stabilizer is the projection kernel, a subgroup of the abstract
    subtorus; degree is its order, the isogeny degree of multiplication-by-l
    off the member lattice, and rank is the integer square root of the
    degree (the bundle rank).
    """

    stabilizer: FiniteSubgroup

    @property
    def degree(self) -> int:
        return self.stabilizer.order

    @property
    def rank(self) -> int:
        return isqrt(self.degree)


def projection_invariants(mu: Slope) -> ProjectionInvariants:
    a = mu.variety
    lam_mu, _, j_mu, _ = _member(mu)
    pi = mu.l * lam_mu.basis
    # a full rank Hermite basis is triangular with a positive diagonal, so
    # the determinant of pi is the product of that diagonal
    deg = prod(pi[i, i] for i in range(a.dim))
    if isqrt(deg) ** 2 != deg:
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
    return ProjectionInvariants(sigma)


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
