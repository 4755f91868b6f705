import itertools
import json
from math import prod

import pytest

from fmtori import corpus, partners, slopes
from fmtori.matrices import Mat, snf
from fmtori.partners import (
    SEARCH_CANDIDATE_CAP,
    Fingerprint,
    enumerate_partners,
    find_isomorphism_certificate,
    fingerprint,
    homomorphism_space_basis,
    partner_from_slope,
    ppav_rigidity_check,
)
from fmtori.slopes import Slope, member_lattice, reduce_slope
from fmtori.varieties import (
    Homomorphism,
    PreconditionError,
    TorusVariety,
    dual,
    is_isomorphism_certificate,
    validate,
)


def test_fingerprint_of_square_curve(e_i):
    fp = fingerprint(e_i)
    assert fp.g == 1 and fp.ns_rank == 1
    assert fp.profile_bound == 2
    # profiles at bound 2: the trivial one for +-E0 and (2,2) for +-2E0
    assert fp.profiles == ((), (), (2, 2), (2, 2))


def test_fingerprint_is_coarse(e_i, e_2i):
    assert fingerprint(e_i) == fingerprint(dual(e_i))
    # E_i and E_2i share every kernel profile; only the certificate search
    # (below) tells them apart
    assert fingerprint(e_i) == fingerprint(e_2i)


def test_fingerprint_sees_rank(e_i, e_i_squared):
    assert fingerprint(e_i).ns_rank != fingerprint(e_i_squared).ns_rank


def _reference_fingerprint(a, profile_bound=None):
    """The fingerprint by its definition: every class validated through
    ``ns_class``, degeneracy from the determinant, divisors from Smith."""
    r = len(a.ns_basis)
    if profile_bound is None:
        profile_bound = 2 if r <= 2 else 1
    profiles = []
    for coeffs in itertools.product(range(-profile_bound, profile_bound + 1), repeat=r):
        if not any(coeffs):
            continue
        c = a.ns_class(coeffs)
        if c.is_degenerate():
            profiles.append((0,))
            continue
        d = snf(c.e)
        profiles.append(tuple(x for x in d if x > 1))
    return Fingerprint(a.g, r, profile_bound, tuple(sorted(profiles)))


def _corpus_varieties():
    for fname in corpus.shipped_names():
        doc = json.loads(corpus.corpus_text(fname))
        if doc["format"] == "fmtori/variety":
            yield corpus.variety_from_json(doc)


def test_fingerprint_matches_reference_on_corpus_and_duals():
    varieties = list(_corpus_varieties())
    assert len(varieties) >= 4
    for a in varieties:
        for v in (a, dual(a)):
            assert fingerprint(v) == _reference_fingerprint(v), v.name
            assert fingerprint(v, 1) == _reference_fingerprint(v, 1), v.name


def test_fingerprint_matches_reference_on_partners(e_i_squared):
    entries = enumerate_partners(e_i_squared, 1, 2)[:10]
    assert len(entries) == 10
    for entry in entries:
        partner = entry.record.partner
        assert entry.partner_fingerprint == _reference_fingerprint(partner)


def test_every_entry_carries_its_partners_fingerprint(partner_entries):
    # one fingerprint per NS presentation is shared by the entries that have
    # it; each must equal a fingerprint computed afresh for its own partner
    presentations = {(e.record.partner.j, e.record.partner.ns_basis) for e in partner_entries}
    assert len(presentations) < len(partner_entries)
    for entry in partner_entries:
        assert entry.partner_fingerprint == fingerprint(entry.record.partner)


def test_enumeration_fingerprints_each_presentation_once(e_i_squared, monkeypatch):
    calls = []
    original = partners.fingerprint

    def counted(a, *args):
        calls.append((a.j, a.ns_basis))
        return original(a, *args)

    monkeypatch.setattr(partners, "fingerprint", counted)
    entries = enumerate_partners(e_i_squared, 1, 1)
    assert len(calls) == len(set(calls))
    assert set(calls) == {(e.record.partner.j, e.record.partner.ns_basis) for e in entries}


def test_fingerprint_rejects_a_basis_class_that_is_not_j_compatible(e_i_squared):
    a = e_i_squared
    # an alternating integral form pairing the two factors off the complex
    # structure: J^T e J differs from e
    bad = Mat(((0, 0, 1, 0), (0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0)))
    assert bad.is_alternating() and a.j.T @ bad @ a.j != bad
    broken = TorusVariety(a.g, a.j, a.ns_basis + (bad,), a.polarization + (0,), "broken")
    with pytest.raises(ValueError, match="not compatible with the complex structure"):
        fingerprint(broken)
    with pytest.raises(ValueError, match="not compatible with the complex structure"):
        _reference_fingerprint(broken)


def test_partner_record_certificate(e_i):
    rec = partner_from_slope(e_i, Slope(e_i.ns_class((1,)), 2))
    assert validate(rec.partner).ok
    assert is_isomorphism_certificate(rec.dual_certificate)
    assert fingerprint(rec.partner) == fingerprint(e_i)


def test_enumerate_partners_dedups_signs(e_i):
    entries = enumerate_partners(e_i, 1, 1)
    # +-E0 give the same member lattice; the zero class is skipped
    assert len(entries) == 1
    assert entries[0].coefficients == (1,)
    assert entries[0].denominator == 1


def test_enumerate_partners_ordering_and_threads(e_i):
    one = enumerate_partners(e_i, 2, 3)
    four = enumerate_partners(e_i, 2, 3, threads=4)
    assert [(e.coefficients, e.denominator) for e in one] == [
        (e.coefficients, e.denominator) for e in four
    ]
    denominators = [e.denominator for e in one]
    assert denominators == sorted(denominators)


def test_enumerate_partners_rejects_bad_bounds(e_i):
    with pytest.raises(PreconditionError):
        enumerate_partners(e_i, 0, 1)
    with pytest.raises(PreconditionError):
        enumerate_partners(e_i, 1, 0)


def test_homomorphism_space_of_square_curve(e_i):
    basis = homomorphism_space_basis(e_i, e_i)
    assert len(basis) == 2  # the order Z[i]
    assert Mat.identity(2) in basis or -Mat.identity(2) in basis


def test_homomorphism_space_between_distinct_curves(e_i, e_2i):
    basis = homomorphism_space_basis(e_i, e_2i)
    # Hom(E_i, E_2i) is still rank 2: multiplication by 2 composed with CM
    assert len(basis) == 2
    for m in basis:
        assert m @ e_i.j == e_2i.j @ m


def test_certificate_search_finds_rotation(e_i):
    cert = find_isomorphism_certificate(e_i, e_i, bound=1)
    assert cert is not None
    assert is_isomorphism_certificate(cert)


def test_certificate_search_respects_dimension_mismatch(e_i, e_i_squared):
    assert find_isomorphism_certificate(e_i, e_i_squared) is None


def test_certificate_search_between_nonisomorphic_curves(e_i, e_2i):
    assert find_isomorphism_certificate(e_i, e_2i, bound=4) is None


def test_rigidity_over_small_coprime_pairs(e_i):
    for n in range(1, 5):
        for l in range(1, 5):
            if __import__("math").gcd(n, l) != 1:
                continue
            check = ppav_rigidity_check(e_i, n, l)
            assert check.ok
            assert check.kernel.order == 1
            assert is_isomorphism_certificate(check.certificate)


def test_rigidity_preconditions(e_i, e_i_squared):
    with pytest.raises(PreconditionError):
        ppav_rigidity_check(e_i, 2, 2)
    with pytest.raises(PreconditionError):
        ppav_rigidity_check(e_i, 0, 1)
    # the full product polarization has degree 1, so it qualifies; a scaled
    # one does not
    from fmtori.varieties import TorusVariety

    scaled = TorusVariety(
        e_i.g, e_i.j, (2 * e_i.ns_basis[0],), (1,), name="non-principal"
    )
    with pytest.raises(PreconditionError):
        ppav_rigidity_check(scaled, 1, 2)


def test_partner_entries_on_product(e_i_squared):
    entries = enumerate_partners(e_i_squared, 1, 1)
    assert entries
    for entry in entries:
        assert entry.record.partner.g == 2
        assert is_isomorphism_certificate(entry.record.dual_certificate)


def test_partner_certificates_start_at_the_double_dual(partner_entries):
    # dualizing a partner returns the subtorus's complex structure and NS
    # basis; the polarization coefficients may differ, so only J and the NS
    # basis are compared
    assert len(partner_entries) == 80
    for entry in partner_entries:
        rec = entry.record
        again = dual(rec.partner)
        assert again.j == rec.subvariety.variety.j
        assert again.ns_basis == rec.subvariety.variety.ns_basis
        assert rec.dual_certificate.source.j == again.j
        assert rec.dual_certificate.target == rec.subvariety.variety
        assert rec.dual_certificate.m == Mat.identity(rec.partner.dim)
        assert is_isomorphism_certificate(rec.dual_certificate)


def test_enumeration_dualizes_each_partner_once(e_i_squared, monkeypatch):
    # a partner is a function of its subtorus, so dual runs once per distinct
    # subtorus, in the order the subtori first appear among the entries
    calls = []
    original = partners.dual

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(partners, "dual", counted)
    entries = enumerate_partners(e_i_squared, 1, 2)
    assert len(entries) == 80
    subtori = list(dict.fromkeys(e.record.subvariety.variety for e in entries))
    assert len(subtori) == 60
    assert calls == subtori
    for entry in entries:
        fresh = original(entry.record.subvariety.variety, name=f"{e_i_squared.name}_partner")
        assert entry.record.partner == fresh
        assert entry.record.partner.name == fresh.name


def _member_data_by_definition(a, mu):
    lam = member_lattice(a, mu)
    h_inv = lam.basis.inverse()
    return lam, h_inv, h_inv @ a.j @ lam.basis


def _shared_member_data(a, monkeypatch, *bounds):
    """(slope, member data) as enumerate_partners hands each candidate to
    the subtorus construction."""
    seen = []
    original = partners._slope_subvariety

    def recorded(v, mu, member):
        seen.append((mu, member))
        return original(v, mu, member)

    monkeypatch.setattr(partners, "_slope_subvariety", recorded)
    entries = enumerate_partners(a, *bounds)
    assert [mu for mu, _ in seen] == [e.slope for e in entries]
    return seen


@pytest.mark.parametrize(
    "name, bounds", (("e_i_squared", (1, 2)), ("e_2i", (3, 6))), ids=("workload", "e_2i")
)
def test_shared_member_data_is_each_candidates_own(name, bounds, request, monkeypatch):
    # the member lattice depends on the slope only through (e mod l, l); e_2i
    # has a rational complex structure, so j_mu is checked off the integers
    a = request.getfixturevalue(name)
    seen = _shared_member_data(a, monkeypatch, *bounds)
    assert len({id(member) for _, member in seen}) < len(seen)
    for mu, member in seen:
        assert member == _member_data_by_definition(a, mu)


def test_enumeration_computes_each_member_lattice_once_per_residue(e_i_squared, monkeypatch):
    calls = []
    original = slopes.member_lattice

    def counted(a, mu):
        calls.append((tuple(tuple(x % mu.l for x in row) for row in mu.numerator.e.data), mu.l))
        return original(a, mu)

    monkeypatch.setattr(slopes, "member_lattice", counted)
    assert len(enumerate_partners(e_i_squared, 1, 2)) == 80
    assert len(calls) == 16
    assert len(set(calls)) == 16


def test_enumeration_entries_do_not_depend_on_threads(e_i_squared, partner_entries):
    four = enumerate_partners(e_i_squared, 1, 2, threads=4)
    assert four == partner_entries
    assert [e.record.partner.name for e in four] == [
        e.record.partner.name for e in partner_entries
    ]


def test_search_cap_is_exposed():
    assert SEARCH_CANDIDATE_CAP >= 10_000


def test_enumeration_over_the_cap_raises_before_any_candidate(e_i_squared, monkeypatch):
    def no_candidate(*args):
        raise AssertionError("a candidate was enumerated past the cap")

    assert 201 ** len(e_i_squared.ns_basis) > SEARCH_CANDIDATE_CAP
    monkeypatch.setattr(partners, "reduce_slope", no_candidate)
    with pytest.raises(PreconditionError, match="candidate cap"):
        enumerate_partners(e_i_squared, 100, 1)


def _filtered_coefficient_vectors(rank, bound):
    # the whole box in lexicographic order, keeping the vectors whose first
    # nonzero entry is positive
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=rank):
        nz = next((c for c in coeffs if c), None)
        if nz is not None and nz > 0:
            yield coeffs


@pytest.mark.parametrize("rank", range(5))
@pytest.mark.parametrize("bound", (1, 2, 3))
def test_normalized_vectors_match_the_filtered_box(rank, bound):
    got = list(partners._normalized_coefficient_vectors(rank, bound))
    assert got == list(_filtered_coefficient_vectors(rank, bound))
    assert len(got) == ((2 * bound + 1) ** rank - 1) // 2


def _ref_find_isomorphism_certificate(src, dst, bound):
    # the search as written with a Mat sum per candidate
    if src.dim != dst.dim:
        return None
    basis = homomorphism_space_basis(src, dst)
    if not basis:
        return None
    b = Mat.from_cols([tuple(x for row in m.data for x in row) for m in basis])
    p = (b.T @ b).inverse() @ b.T
    boxes = [int(bound * sum(abs(p[i, j]) for j in range(p.cols))) for i in range(p.rows)]
    partners.require_within_cap(prod(2 * c + 1 for c in boxes), "certificate search")
    for x in itertools.product(*(range(-c, c + 1) for c in boxes)):
        if not any(x):
            continue
        m = Mat.zeros(dst.dim, src.dim)
        for c, base in zip(x, basis):
            if c:
                m = m + c * base
        if any(abs(v) > bound for row in m.data for v in row):
            continue
        if abs(m.det()) != 1:
            continue
        return Homomorphism(src, dst, m)
    return None


def _outcome(search, src, dst, bound):
    try:
        return search(src, dst, bound)
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("bound", (1, 2, 3))
def test_certificate_search_matches_the_mat_sum_reference(partner_entries, bound):
    pairs = [(a, w) for a in _corpus_varieties() for w in (a, dual(a))]
    p = corpus.square_curve_product()
    pairs += [(p, entry.record.partner) for entry in partner_entries[:10]]
    for src, dst in pairs:
        got = _outcome(find_isomorphism_certificate, src, dst, bound)
        assert got == _outcome(_ref_find_isomorphism_certificate, src, dst, bound)
