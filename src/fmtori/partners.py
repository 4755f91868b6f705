"""Derived-equivalence partner generation and rigidity certificates.

Every partner of a variety arises as the dual of one of its slope
subtori.  This module enumerates those duals over bounded slope ranges,
attaches cheap numerical fingerprints, searches for explicit unimodular
isomorphism certificates, and packages the principally-polarized rigidity
argument (coprime numerator and denominator force the subtorus to be the
variety itself).

Nothing here decides isomorphism.  A missing certificate at a bound means
exactly that and is reported as such.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

from .matrices import Mat, combination_map, snf
from .records import Record
from .slopes import Slope, reduce_slope, slope_kernel, slope_subvariety
from .varieties import (
    FiniteSubgroup,
    Homomorphism,
    InternalInvariantViolation,
    NSClass,
    PreconditionError,
    TorusVariety,
    dual,
    intertwiner_basis,
    is_isomorphism_certificate,
)

# the most candidates any bounded search may scan: the certificate box,
# partner enumeration and the product- and kernel-class searches
SEARCH_CANDIDATE_CAP = 500_000


def require_within_cap(candidates: int, search: str) -> None:
    """Raise PreconditionError, before any work, for a search over more than
    SEARCH_CANDIDATE_CAP candidates."""
    if candidates > SEARCH_CANDIDATE_CAP:
        raise PreconditionError(
            f"{search} space of {candidates} candidates exceeds the candidate cap"
            f" of {SEARCH_CANDIDATE_CAP} at this bound"
        )


# the most Smith forms one fingerprint may take: at about 0.095 ms per g = 4
# class, combination included (2 cores, Python 3.11), the largest box under
# it (9 841, at NS rank 9) takes about 0.95 s, the next (29 524) about 2.8 s
FINGERPRINT_CAP = 10_000


class Fingerprint(Record):
    """Cheap presentation-level invariants used to compare varieties.

    profiles is the sorted multiset of elementary-divisor tuples of the
    class homomorphisms over all nonzero coefficient vectors bounded by
    profile_bound in the presented basis; degenerate classes contribute the
    marker (0,).  Equal varieties get equal fingerprints; the converse is
    of course false.
    """

    g: int
    ns_rank: int
    profile_bound: int
    profiles: tuple[tuple[int, ...], ...]


def fingerprint(a: TorusVariety) -> Fingerprint:
    """The fingerprint of a, over coefficients bounded by 2 at NS rank up
    to 2 and by 1 above.

    The variety is trusted: ``dual`` outputs and the varieties the CLI
    loads are already checked, and a hand-built variety goes through
    ``validate`` first.  Integer combinations of valid classes are integral,
    alternating and J-compatible by linearity, so the combinations are
    built as plain integer matrices.  e and -e have the same Smith form, so
    one Smith form serves each pair +-e of combinations and gives both
    answers: a zero among its invariant factors means degenerate, and
    otherwise the factors above 1 are the elementary divisors of the class
    kernel.  A box of more than FINGERPRINT_CAP Smith forms raises
    PreconditionError before any is taken.
    """
    r = len(a.ns_basis)
    profile_bound = 2 if r <= 2 else 1
    box = ((2 * profile_bound + 1) ** r - 1) // 2
    if box > FINGERPRINT_CAP:
        raise PreconditionError(
            f"fingerprint of {box} Smith forms at NS rank {r} exceeds the fingerprint cap"
            f" of {FINGERPRINT_CAP}"
        )
    profiles = []
    for coeffs in _normalized_coefficient_vectors(r, profile_bound):
        diag = snf(a.class_matrix(coeffs))
        profile = (0,) if 0 in diag else tuple(x for x in diag if x > 1)
        profiles += (profile, profile)
    return Fingerprint(a.g, r, profile_bound, tuple(sorted(profiles)))


class PartnerRecord(Record):
    """A partner, and the identity certificate from the complex torus of
    dual(partner), which reads J only, to the slope subtorus it is the dual
    of; the entry's coefficients and denominator give the slope."""

    partner: TorusVariety
    dual_certificate: Homomorphism


def _partner_record(subtorus: TorusVariety, b: TorusVariety) -> PartnerRecord:
    """The record of the partner b = dual(subtorus), with its certificate.

    Dualizing twice returns the complex structure on the nose, so the
    certificate starts at the bare complex torus of dual(partner), with J
    only: the identity matrix intertwines it with the subtorus exactly when
    -J_b^T == J_mu, which ``Homomorphism`` checks.  No NS data is
    transported a second time.
    """
    torus = TorusVariety(b.g, -1 * b.j.T, (), (), name=b.name + "^")
    cert = Homomorphism(torus, subtorus, Mat.identity(b.dim))
    return PartnerRecord(b, cert)


class PartnerEntry(Record):
    coefficients: tuple[int, ...]
    denominator: int
    record: PartnerRecord
    partner_fingerprint: Fingerprint


def _normalized_coefficient_vectors(rank: int, bound: int):
    # first nonzero coefficient positive: a slope and its negative cut out
    # the same subtorus, so only one representative is enumerated.  In
    # lexicographic order the vectors with more leading zeros come first.
    full = range(-bound, bound + 1)
    for lead in reversed(range(rank)):
        zeros = (0,) * lead
        for first in range(1, bound + 1):
            for rest in itertools.product(full, repeat=rank - 1 - lead):
                yield zeros + (first,) + rest


def enumerate_partners(a: TorusVariety, coeff_bound: int, denom_bound: int) -> list[PartnerEntry]:
    """All partners from reduced slopes with bounded coefficients and denominator.

    Deduplication is by reduced-slope equality (never by isomorphism).  An
    entry keeps the coefficients and denominator of the first candidate with
    its slope, which order the result; the slope's subtorus is the target of
    the record's dual certificate, and the partner is the subtorus's dual.

    These results are shared, each exactly:

    * the member lattice, the inverse of its basis, the complex structure
      it carries and, when a's presented NS lattice is full, the subtorus
      NS basis come from the one member-data cache of
      ``slopes.slope_subvariety``, keyed by (a, e mod l, l); slopes are
      built grouped by coefficients mod l, so each key is built once
      however many keys the box has, and every ambient class is restricted
      once per key on a full lattice and for every slope otherwise; the
      embedding, its checks and the transport of the polarization run for
      every slope;
    * a partner is a function of its subtorus, so ``dual`` runs once per
      distinct subtorus; the identity certificate is built and checked for
      every candidate; a subtorus of NS rank g^2 reads its dual NS basis
      off the full lattice of its partner's complex structure, one kernel
      per such structure;
    * a fingerprint reads only the complex structure and the NS basis, so
      it is computed once per distinct presentation (J, NS basis) among the
      partners and shared by every entry with that presentation.

    The duals and fingerprints are kept in dicts local to the call.  The cap
    counts the whole coefficient box once per denominator.
    """
    if coeff_bound < 1 or denom_bound < 1:
        raise PreconditionError("enumeration bounds must be at least 1")
    require_within_cap(
        (2 * coeff_bound + 1) ** len(a.ns_basis) * denom_bound, "partner enumeration"
    )
    seen: set[tuple] = set()
    candidates: list[tuple[tuple[int, ...], int, Slope]] = []
    for l in range(1, denom_bound + 1):
        for coeffs in _normalized_coefficient_vectors(len(a.ns_basis), coeff_bound):
            mu = reduce_slope(a.ns_class(coeffs), l)
            e = mu.numerator.e.data
            if (e, mu.l) in seen:
                continue
            seen.add((e, mu.l))
            candidates.append((coeffs, l, mu))

    # group by coefficients mod l, which fix the member-data key
    order = sorted(
        range(len(candidates)),
        key=lambda i: (candidates[i][1], [x % candidates[i][1] for x in candidates[i][0]]),
    )
    built = {i: slope_subvariety(candidates[i][2]) for i in order}
    duals: dict[TorusVariety, TorusVariety] = {}
    prints: dict[tuple, Fingerprint] = {}
    entries = []
    for i, (coeffs, l, mu) in enumerate(candidates):
        sv = built[i]
        if sv.variety not in duals:
            duals[sv.variety] = dual(sv.variety, name=f"{a.name}_partner")
        rec = _partner_record(sv.variety, duals[sv.variety])
        key = (rec.partner.j, rec.partner.ns_basis)
        if key not in prints:
            prints[key] = fingerprint(rec.partner)
        entries.append(PartnerEntry(coeffs, l, rec, prints[key]))
    return entries


# -- certificate search ----------------------------------------------------------


def find_isomorphism_certificate(
    src: TorusVariety, dst: TorusVariety, bound: int = 3
) -> Homomorphism | None:
    """Deterministic bounded search for a unimodular intertwiner src -> dst.

    Returns the first certificate in lexicographic coefficient order, or
    None if no integral unimodular intertwiner exists with all matrix
    entries bounded by the given bound.  None never means "not isomorphic".
    """
    if src.dim != dst.dim:
        return None
    basis = intertwiner_basis(src.j, dst.j)
    if not basis:
        return None
    b = Mat.from_cols([tuple(x for row in m.data for x in row) for m in basis])
    # exact coefficient box: x = P @ vec(M) with P a left inverse of the
    # saturated basis, so |x_i| <= bound * (row sum of |P|)
    p = (b.T @ b).inverse() @ b.T
    # every term is non-negative, so the floor of the scaled row sum is
    # the floor of its integer numerator over the denominator
    boxes = [bound * sum(map(abs, row)) // p.den for row in p.num]
    require_within_cap(prod(2 * c + 1 for c in boxes), "certificate search")
    combine = combination_map(basis, dst.dim, src.dim)
    for x in itertools.product(*(range(-c, c + 1) for c in boxes)):
        if not any(x):
            continue
        m = combine(x)
        if any(abs(v) > bound for row in m.data for v in row):
            continue
        if abs(m.det()) != 1:
            continue
        # an integer combination of the intertwiner basis
        return Homomorphism._make(src, dst, m)
    return None


# -- principally polarized rigidity ------------------------------------------------


class RigidityCheck(Record):
    """The kernel of A -> A_mu for mu = n * polarization / l, and the
    quotient map, an isomorphism certificate exactly when ok."""

    kernel: FiniteSubgroup
    certificate: Homomorphism

    @property
    def ok(self) -> bool:
        """Whether the kernel is trivial."""
        return self.kernel.order == 1


def ppav_rigidity_check(a: TorusVariety, n: int, l: int) -> RigidityCheck:
    """For a principal polarization and coprime (n, l): the slope subtorus is
    the variety itself, certified by the unimodular quotient map.

    The kernel of A -> A_mu is the l-torsion meeting the kernel of the n-th
    power of the polarization; coprimality forces it to be trivial, and the
    check verifies exactly that, then hands back the quotient as an
    isomorphism certificate.
    """
    h = a.polarization_class()
    if abs(int(h.det())) != 1:
        raise PreconditionError("designated polarization is not principal")
    if n < 1 or l < 1:
        raise PreconditionError("n and l must be positive")
    if gcd(n, l) != 1:
        raise PreconditionError("n and l must be coprime")
    # n times the validated polarization
    mu = reduce_slope(NSClass._make(a, n * h), l)
    sv = slope_subvariety(mu)
    check = RigidityCheck(slope_kernel(mu), sv.quotient)
    if check.ok != is_isomorphism_certificate(check.certificate):
        raise InternalInvariantViolation(
            "trivial kernel and unimodular quotient must coincide"
        )
    return check
