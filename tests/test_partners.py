import functools
import itertools
from math import prod

import pytest
from conftest import SHIPPED_VARIETIES, entry_slope, mat_sum, where_integral_by_kernel

from fmtori import corpus, matrices, partners, slopes
from fmtori.matrices import Mat, snf
from fmtori.partners import (
    SEARCH_CANDIDATE_CAP,
    Fingerprint,
    enumerate_partners,
    find_isomorphism_certificate,
    fingerprint,
    ppav_rigidity_check,
)
from fmtori.slopes import Slope, reduce_slope, slope_subvariety
from fmtori.varieties import (
    Homomorphism,
    NSClass,
    PreconditionError,
    TorusVariety,
    dual,
    intertwiner_basis,
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


def _reference_fingerprint(a):
    """The fingerprint by its definition: every class validated as an
    ``NSClass``, degeneracy from the determinant, divisors from Smith."""
    r = len(a.ns_basis)
    profile_bound = 2 if r <= 2 else 1
    profiles = []
    for coeffs in itertools.product(range(-profile_bound, profile_bound + 1), repeat=r):
        if not any(coeffs):
            continue
        c = NSClass(a, a.ns_class(coeffs).e)
        if c.e.det() == 0:
            profiles.append((0,))
            continue
        d = snf(c.e)
        profiles.append(tuple(x for x in d if x > 1))
    return Fingerprint(a.g, r, profile_bound, tuple(sorted(profiles)))


def test_fingerprint_matches_reference_on_corpus_and_duals():
    varieties = list(SHIPPED_VARIETIES.values())
    assert len(varieties) >= 4
    for a in varieties:
        for v in (a, dual(a)):
            assert fingerprint(v) == _reference_fingerprint(v), v.name


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


def test_validate_rejects_the_basis_class_that_fingerprint_trusts(e_i_squared):
    a = e_i_squared
    # an alternating integral form pairing the two factors off the complex
    # structure: J^T e J differs from e
    bad = Mat(((0, 0, 1, 0), (0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0)))
    assert bad.is_alternating() and a.j.T @ bad @ a.j != bad
    broken = TorusVariety(a.g, a.j, a.ns_basis + (bad,), a.polarization + (0,), "broken")
    # fingerprint trusts its variety; a hand-built one goes through validate
    assert validate(broken).failures == ("ns_basis[4] is not J-compatible",)
    with pytest.raises(ValueError, match="not J-compatible"):
        _reference_fingerprint(broken)


def test_partner_record_certificate(e_i):
    mu = Slope(e_i.ns_class((1,)), 2)
    rec = next(e.record for e in enumerate_partners(e_i, 1, 2) if entry_slope(e_i, e) == mu)
    assert validate(rec.partner).ok
    assert is_isomorphism_certificate(rec.dual_certificate)
    assert fingerprint(rec.partner) == fingerprint(e_i)


def test_enumerate_partners_dedups_signs(e_i):
    entries = enumerate_partners(e_i, 1, 1)
    # +-E0 give the same member lattice; the zero class is skipped
    assert len(entries) == 1
    assert entries[0].coefficients == (1,)
    assert entries[0].denominator == 1


def test_enumerate_partners_order_is_stable_on_warm_caches(e_i):
    # two calls, the second reading the caches the first filled
    one = enumerate_partners(e_i, 2, 3)
    again = enumerate_partners(e_i, 2, 3)
    assert [(e.coefficients, e.denominator) for e in one] == [
        (e.coefficients, e.denominator) for e in again
    ]
    denominators = [e.denominator for e in one]
    assert denominators == sorted(denominators)


def test_enumerate_partners_rejects_bad_bounds(e_i):
    with pytest.raises(PreconditionError):
        enumerate_partners(e_i, 0, 1)
    with pytest.raises(PreconditionError):
        enumerate_partners(e_i, 1, 0)


def test_homomorphism_space_of_square_curve(e_i):
    basis = intertwiner_basis(e_i.j, e_i.j)
    assert len(basis) == 2  # the order Z[i]
    assert Mat.identity(2) in basis or -Mat.identity(2) in basis


def test_homomorphism_space_between_distinct_curves(e_i, e_2i):
    basis = intertwiner_basis(e_i.j, e_2i.j)
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


def test_rigidity_check_takes_one_determinant_per_unimodularity_test(
    e_i, e_i_squared, cold_caches, monkeypatch
):
    # the principal precondition on h and the unimodular quotient, each once
    dets = []
    det = Mat.det
    monkeypatch.setattr(Mat, "det", lambda m: dets.append(m) or det(m))
    for a in (e_i, e_i_squared):
        dets.clear()
        check = ppav_rigidity_check(a, 3, 2)
        assert check.ok
        assert dets == [a.polarization_class(), check.certificate.m]


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
    a = corpus.square_curve_product()
    for entry in partner_entries:
        rec = entry.record
        subtorus = slope_subvariety(entry_slope(a, entry)).variety
        again = dual(rec.partner)
        assert again.j == subtorus.j
        assert again.ns_basis == subtorus.ns_basis
        assert rec.dual_certificate.source.j == again.j
        assert rec.dual_certificate.target == subtorus
        assert rec.dual_certificate.m == Mat.identity(rec.partner.dim)
        assert is_isomorphism_certificate(rec.dual_certificate)


@pytest.mark.parametrize("name", sorted(SHIPPED_VARIETIES))
def test_each_partner_is_the_dual_of_its_entrys_slope_subtorus(name):
    # the provenance of a partner is the slope of its entry's coefficients
    # and denominator: its subtorus is the certificate's target, and the
    # dual of that subtorus is the partner
    a = SHIPPED_VARIETIES[name]
    entries = enumerate_partners(a, 1, 2)
    assert entries
    for entry in entries:
        rec = entry.record
        subtorus = slope_subvariety(entry_slope(a, entry)).variety
        assert subtorus == rec.dual_certificate.target
        again = dual(subtorus, name=f"{a.name}_partner")
        assert (again.j, again.ns_basis) == (rec.partner.j, rec.partner.ns_basis)
        assert again == rec.partner


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
    subtori = list(dict.fromkeys(e.record.dual_certificate.target for e in entries))
    assert len(subtori) == 60
    assert calls == subtori
    for entry in entries:
        fresh = original(entry.record.dual_certificate.target, name=f"{e_i_squared.name}_partner")
        assert entry.record.partner == fresh
        assert entry.record.partner.name == fresh.name


def test_entries_with_equal_subtori_share_one_record(partner_entries):
    # the record, partner and validated certificate, is a function of the
    # subtorus: the 80 entries hold 60 records, one per distinct subtorus
    records = {}
    for entry in partner_entries:
        rec = entry.record
        assert records.setdefault(rec.dual_certificate.target, rec) is rec
        assert is_isomorphism_certificate(rec.dual_certificate)
    assert len(partner_entries) == 80
    assert len(records) == len({id(e.record) for e in partner_entries}) == 60


def test_enumeration_reads_spans_and_signs_off_integer_rows(
    e_i_squared, cold_caches, count_calls, monkeypatch
):
    # the coordinates in every span basis come by substitution on its Hermite
    # rows and every Sylvester test is one Bareiss pass, so no exact solve
    # runs; each entry's certificate is the identity, which needs no
    # determinant to be unimodular, so no determinant runs either
    solves = count_calls(matrices, "solve_exact")
    dets = []
    det = Mat.det

    def counted(self):
        dets.append(self)
        return det(self)

    monkeypatch.setattr(Mat, "det", counted)
    entries = enumerate_partners(e_i_squared, 1, 2)
    assert len(entries) == 80
    assert solves == []
    assert dets == []
    assert all(e.record.dual_certificate.m == Mat.identity(4) for e in entries)


def _member_data_by_definition(a, mu):
    lam = where_integral_by_kernel(mu.l, mu.numerator.e)
    h_inv = lam.basis.inverse()
    return lam, h_inv, h_inv @ a.j @ lam.basis


def _shared_member_data(a, monkeypatch, *bounds):
    """(slope, member data) as the member-data cache returns it to the
    subtorus construction of each candidate."""
    seen = []
    original = slopes._member

    def recorded(mu):
        member = original(mu)
        seen.append((mu, member))
        return member

    monkeypatch.setattr(slopes, "_member", recorded)
    entries = enumerate_partners(a, *bounds)
    # candidates are built grouped by residue, not in entry order
    assert len(seen) == len(entries)
    assert {mu for mu, _ in seen} == {entry_slope(a, e) for e in entries}
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
        # the fourth entry is the slot for the subtorus NS basis
        assert member[:3] == _member_data_by_definition(a, mu)


def test_enumeration_computes_each_member_lattice_once_per_residue(e_i_squared, cold_caches):
    entries = enumerate_partners(e_i_squared, 1, 2)
    assert len(entries) == 80
    residues = {(tuple(tuple(x % mu.l for x in row) for row in mu.numerator.e.data), mu.l)
                for mu in (entry_slope(e_i_squared, e) for e in entries)}
    assert len(residues) == 16
    assert slopes._member_data.cache_info().misses == 16


@pytest.mark.parametrize("bounds, residues", (((1, 2), 16), ((2, 3), 96)))
def test_enumeration_builds_each_residue_once_through_a_one_entry_cache(
    e_i_squared, monkeypatch, bounds, residues
):
    # candidates sharing member data are built next to each other, so even a
    # cache of one entry builds each residue once: a box with more residues
    # than the cache holds does not rebuild any (lexicographic order builds
    # 41 and 572 times here)
    one = functools.lru_cache(maxsize=1)(slopes._member_data.__wrapped__)
    monkeypatch.setattr(slopes, "_member_data", one)
    entries = enumerate_partners(e_i_squared, *bounds)
    keys = {(tuple(tuple(x % mu.l for x in row) for row in mu.numerator.e.data), mu.l)
            for mu in (entry_slope(e_i_squared, e) for e in entries)}
    assert len(keys) == residues
    assert one.cache_info().misses == residues


def test_enumeration_entries_from_cold_caches_match_the_session_call(e_i_squared, partner_entries, cold_caches):
    # a call from cold caches gives the entries of the session's earlier call
    cold = enumerate_partners(e_i_squared, 1, 2)
    assert cold == partner_entries
    assert [e.record.partner.name for e in cold] == [
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


def test_enumeration_cap_counts_every_denominator(e_i, monkeypatch):
    calls = []

    class Started(Exception):
        pass

    def record(*args):
        calls.append(args)
        raise Started

    monkeypatch.setattr(partners, "reduce_slope", record)
    # a box of 5 vectors times 100 000 denominators is the cap exactly
    at_cap = SEARCH_CANDIDATE_CAP // 5
    assert 5 * at_cap == SEARCH_CANDIDATE_CAP
    with pytest.raises(Started):
        enumerate_partners(e_i, 2, at_cap)
    assert len(calls) == 1
    del calls[:]
    # the box alone is far below the cap: the denominators carry it over
    for bounds in ((2, at_cap + 1), (1, 10**9)):
        with pytest.raises(PreconditionError, match="candidate cap"):
            enumerate_partners(e_i, *bounds)
    assert calls == []


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
    basis = intertwiner_basis(src.j, dst.j)
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
                m = mat_sum(m, c * base)
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
    pairs = [(a, w) for a in SHIPPED_VARIETIES.values() for w in (a, dual(a))]
    p = corpus.square_curve_product()
    pairs += [(p, entry.record.partner) for entry in partner_entries[:10]]
    for src, dst in pairs:
        got = _outcome(find_isomorphism_certificate, src, dst, bound)
        assert got == _outcome(_ref_find_isomorphism_certificate, src, dst, bound)
