import itertools
import json
from fractions import Fraction
from math import floor, gcd
from pathlib import Path

import pytest
from conftest import SHIPPED_VARIETIES, clear_caches, mat_sum, where_integral_by_kernel
from hypothesis import given
from hypothesis import strategies as st

from fmtori import lattices, matrices, oracles, product_audit, slopes, varieties
from fmtori.corpus import poincare_class, square_curve_product, square_lattice_curve
from fmtori.lattices import Lattice
from fmtori.matrices import Mat, integer_kernel
from fmtori.partners import SEARCH_CANDIDATE_CAP, enumerate_partners, find_isomorphism_certificate
from fmtori.product_audit import (
    ProductNSClass,
    audit_equivalence,
    graph_subgroup_comparison,
    is_ample,
    kernel_torsion_subgroup,
    projection_iso,
    search_kernel_class,
    search_product_classes,
)
from fmtori.slopes import Slope, projection_invariants, reduce_slope, slope_kernel, slope_subvariety
from fmtori.varieties import (
    FiniteSubgroup,
    Homomorphism,
    PreconditionError,
    TorusVariety,
    VarietyMismatchError,
    _is_positive_definite,
    dual,
    is_isomorphism_certificate,
    torsion_subgroup,
    trivial_subgroup,
)

EXPECTED_ITEMS = (
    "subtorus_kernel_order",
    "correspondence_degree",
    "correspondence_kernel_inclusions",
    "graph_subgroup_order",
    "graph_subgroups_equal",
    "subtorus_torsion_generated_by_tuples",
)


def test_poincare_class_passes_everything():
    pc = poincare_class()
    report = audit_equivalence(pc, 1)
    assert report.all_pass
    assert tuple(item.name for item in report.items) == EXPECTED_ITEMS


def test_poincare_projection_iso_is_swap_with_duality():
    iso = projection_iso(audit_equivalence(poincare_class(), 1))
    assert is_isomorphism_certificate(iso.to_a_side)
    assert is_isomorphism_certificate(iso.to_b_side)
    z, i = Mat.zeros(2, 2), Mat.identity(2)
    assert iso.eta.m == Mat.block(((z, i), (-i, z)))
    # eta sends dual(A) identically onto B_delta = B x 0 of the zero B-block
    assert iso.dual_certificate.m == i
    assert iso.dual_certificate.source == dual(poincare_class().a)


def _q(n):
    z, i = Mat.zeros(n, n), Mat.identity(n)
    return Mat.block(((z, i), (i, z)))


def _all_pass_audits():
    # every all-pass audit the search finds at bound 1, l = 1 and 2, over the
    # ordered pairs of the curves and their duals
    curves = (square_lattice_curve(), SHIPPED_VARIETIES["e_2i.json"])
    factors = curves + tuple(dual(c) for c in curves)
    for a, b in itertools.product(factors, repeat=2):
        for l in (1, 2):
            yield from product_audit._search_product_classes(a, b, l, 1, SEARCH_CANDIDATE_CAP)


def test_eta_is_an_anti_isometry_carrying_the_dual_factor_onto_b_delta():
    count = 0
    for report in _all_pass_audits():
        pc, l = report.pc, report.l
        iso = projection_iso(report)
        eta, na = iso.eta.m, pc.a.dim
        assert eta.T @ _q(pc.b.dim) @ eta == -1 * _q(na)
        cert = iso.dual_certificate
        assert cert.m.is_integral() and abs(cert.m.det()) == 1
        b_delta = slope_subvariety(reduce_slope(pc.block_b, l))
        assert (cert.source, cert.target) == (dual(pc.a), b_delta.variety)
        assert b_delta.to_ambient.m @ cert.m == eta.submatrix(range(eta.rows), range(na, 2 * na))
        count += 1
    assert count == 264


def test_the_isometry_check_rejects_a_unimodular_non_isometry():
    eta = projection_iso(audit_equivalence(poincare_class(), 1)).eta.m
    assert product_audit._is_anti_isometry(eta)
    assert not product_audit._is_anti_isometry(Mat.identity(4))


def test_the_dual_factor_check_rejects_an_eta_that_misses_b_delta():
    # the identity sends dual(A) to 0 x dual(B), not to B_delta = B x 0
    with pytest.raises(varieties.InternalInvariantViolation):
        product_audit._dual_certificate(poincare_class(), 1, Mat.identity(4))


def test_projection_iso_raises_on_a_failed_isometry(monkeypatch):
    report = audit_equivalence(poincare_class(), 1)
    monkeypatch.setattr(product_audit, "_is_anti_isometry", lambda m: False)
    with pytest.raises(varieties.InternalInvariantViolation):
        projection_iso(report)


def _from_blocks(a, b, block_a, corr, block_b):
    return ProductNSClass(a, b, Mat.block([[block_a, corr], [-1 * corr.T, block_b]]))


def _block_diagonal(e_i):
    # E0 on each factor, with no correspondence
    return _from_blocks(e_i, e_i, e_i.ns_basis[0], Mat.zeros(2, 2), e_i.ns_basis[0])


def test_block_diagonal_class_fails(e_i):
    pc = _block_diagonal(e_i)
    report = audit_equivalence(pc, 1)
    assert not report.all_pass
    failed = {item.name for item in report.items if not item.passed}
    assert "correspondence_degree" in failed


def test_decompose_assemble_round_trip(e_i):
    # the blocks and the correspondence homomorphism A -> dual(B), whose
    # matrix is the transposed correspondence block
    pc = poincare_class()
    pi = Homomorphism(pc.a, dual(pc.b), pc.correspondence.T)
    again = _from_blocks(pc.a, pc.b, pc.block_a.e, pi.m.T, pc.block_b.e)
    # the data round-trip; the name is part of a class's identity, and the
    # reassembled class has the default "M", not "poincare"
    assert (again.a, again.b, again.m) == (pc.a, pc.b, pc.m)
    assert again != pc and again.name == "M"
    assert abs(pi.m.det()) == 1


def test_projection_iso_reuses_the_audit_subtorus(count_calls):
    # the report carries the audit's slope subtorus: projection_iso builds
    # only the B-block one, and audits nothing again
    report = audit_equivalence(poincare_class(), 1)
    subtori = count_calls(slopes, "slope_subvariety")
    audits = count_calls(product_audit, "audit_equivalence")
    projection_iso(report)
    assert len(subtori) == 1
    assert audits == []


def test_projection_iso_requires_all_pass(e_i, e_i_squared):
    pc = _block_diagonal(e_i)
    with pytest.raises(PreconditionError):
        projection_iso(audit_equivalence(pc, 1))
    # a dimension mismatch fails before any subtorus is built
    n = e_i.dim + e_i_squared.dim
    mismatch = audit_equivalence(ProductNSClass(e_i, e_i_squared, Mat.zeros(n, n)), 1)
    assert mismatch.subtorus is None
    with pytest.raises(PreconditionError):
        projection_iso(mismatch)


def test_audit_rejects_non_ample_b_block_for_l_two(e_i):
    pc = poincare_class()
    with pytest.raises(PreconditionError):
        audit_equivalence(pc, 2)


@pytest.mark.parametrize("l", (0, -2))
def test_audit_names_a_bad_denominator_before_reducing(l):
    # the content-2 class shares a factor with l = 0 and l = -2, so a
    # reducedness test run first would name the wrong fault
    p = poincare_class()
    doubled = ProductNSClass(p.a, p.b, 2 * p.m)
    with pytest.raises(PreconditionError, match="slope denominator must be positive"):
        audit_equivalence(doubled, l)
    with pytest.raises(PreconditionError, match="slope of the product class is not reduced"):
        audit_equivalence(doubled, 2)


def test_dimension_mismatch_is_a_failing_report(e_i, e_i_squared):
    n = e_i.dim + e_i_squared.dim
    pc = ProductNSClass(e_i, e_i_squared, Mat.zeros(n, n))
    report = audit_equivalence(pc, 1)
    assert not report.all_pass
    assert report.items[0].name == "equal_dimensions"


def test_search_finds_passing_classes_and_counting_invariant(e_i):
    hits = search_product_classes(e_i, e_i, 2, 2, limit=3)
    assert hits
    for pc in hits:
        report = audit_equivalence(pc, 2)
        assert report.all_pass
        # |Sigma| * deg(pi_1) accounting on the product subtorus
        mu = reduce_slope(pc.as_class(), 2)
        inv = projection_invariants(mu)
        assert inv.degree == inv.rank**2
        iso = projection_iso(report)
        assert is_isomorphism_certificate(iso.eta)
        built = iso.dual_certificate
        assert is_isomorphism_certificate(built)
        cert = find_isomorphism_certificate(built.source, built.target, 3)
        assert cert is not None and is_isomorphism_certificate(cert)


def test_search_is_deterministic_on_warm_caches(e_i):
    # two calls, the second reading the caches the first filled
    one = search_product_classes(e_i, e_i, 2, 2, limit=2)
    again = search_product_classes(e_i, e_i, 2, 2, limit=2)
    assert [pc.m for pc in one] == [pc.m for pc in again]


def test_graph_equalities_standalone(e_i):
    good = graph_subgroup_comparison(poincare_class(), 1)
    assert good.equal and good.order == 1
    # with no correspondence the two graphs live on different factors; at
    # l = 2 they are both of order four but disjoint
    bad = _block_diagonal(e_i)
    cmp = graph_subgroup_comparison(bad, 2)
    assert cmp.order == 4 and not cmp.equal


def _twist_bound(s: Mat, t: Mat) -> int:
    """An integer v_max with s + v*t positive definite for every v >= v_max,
    for a symmetric s and a positive definite t of size n.

    x^T (s + v t) x >= (v * lambda_min(t) - |s|) |x|^2, where the spectral
    norm |s| is at most the sum of the |s_ij|, and lambda_min(t) is at
    least det(t) / tr(t)^(n-1) because the other n-1 eigenvalues are
    positive and at most tr(t).
    """
    n = s.rows
    size = sum(abs(x) for row in s.data for x in row)
    trace = sum(t[i, i] for i in range(n))
    return floor(Fraction(size) * trace ** (n - 1) / t.det()) + 1


def _twist_to_ample(pc, l, ample_class):
    """The normalization the audit's non-ample error line states: add
    multiples of l times an ample class on B to the B-block until it turns
    ample, as (class, steps).  Each step is a validated class, and the
    loop ends by the bound of ``_twist_bound``."""
    if ample_class.variety != pc.b or not is_ample(ample_class):
        raise PreconditionError("twisting requires an ample class on the B factor")
    if l < 1:
        raise PreconditionError("twisting requires l >= 1")
    na, nb = pc.a.dim, pc.b.dim
    step = l * Mat.block(
        [[Mat.zeros(na, na), Mat.zeros(na, nb)], [Mat.zeros(nb, na), ample_class.e]]
    )
    v_max = _twist_bound(pc.block_b.e @ pc.b.j, l * ample_class.e @ pc.b.j)
    m = pc.m
    for v in range(v_max + 1):
        candidate = ProductNSClass(pc.a, pc.b, m, pc.name)
        if is_ample(candidate.block_b):
            return candidate, v
        m = mat_sum(m, step)
    raise AssertionError(f"the B-block is not ample after {v_max} twists")


def test_twist_restores_ampleness(e_i):
    pc = poincare_class()  # B-block is zero, not ample
    assert not is_ample(pc.block_b)
    with pytest.raises(PreconditionError, match="add multiples of l times an ample class"):
        audit_equivalence(pc, 2)
    twisted, steps = _twist_to_ample(pc, 2, e_i.ns_class((1,)))
    assert steps >= 1
    assert is_ample(twisted.block_b)
    assert twisted.correspondence == pc.correspondence
    assert twisted.block_a == pc.block_a
    # the normalized class meets the audit's precondition
    assert audit_equivalence(twisted, 2).items


def _ref_twist(pc, l, ample_class):
    # the loop before the computed bound: up to 10 000 steps
    na, nb = pc.a.dim, pc.b.dim
    step = l * Mat.block(
        [[Mat.zeros(na, na), Mat.zeros(na, nb)], [Mat.zeros(nb, na), ample_class.e]]
    )
    m = pc.m
    for v in range(10_000):
        if is_ample(ProductNSClass(pc.a, pc.b, m).block_b):
            return m, v
        m = mat_sum(m, step)
    raise AssertionError("no ample twist within 10 000 steps")


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("l", (1, 2, 3))
def test_twist_step_count_matches_the_unbounded_loop(e_i, k, l):
    # a B-block of -k E0 turns ample after k // l + 1 steps of l E0
    e0 = e_i.ns_basis[0]
    pc = _from_blocks(e_i, e_i, e0, Mat.identity(2), -k * e0)
    twisted, steps = _twist_to_ample(pc, l, e_i.ns_class((1,)))
    assert (twisted.m, steps) == _ref_twist(pc, l, e_i.ns_class((1,)))
    assert steps == k // l + 1


@pytest.mark.parametrize("coeffs", [(-3, 0, 0, 0), (-2, 5, 0, 0), (0, 0, 3, -2), (-4, -4, 1, 1)])
@pytest.mark.parametrize("l", (1, 2))
def test_twist_on_the_surface_matches_the_unbounded_loop(e_i_squared, coeffs, l):
    # B-blocks whose form is not a multiple of the twisting class's
    v = e_i_squared
    pc = _from_blocks(v, v, v.polarization_class(), Mat.zeros(4, 4), v.ns_class(coeffs).e)
    ample = v.ns_class(v.polarization)
    twisted, steps = _twist_to_ample(pc, l, ample)
    assert (twisted.m, steps) == _ref_twist(pc, l, ample)
    assert is_ample(twisted.block_b)


def test_twist_needs_several_steps(e_i_squared):
    v = e_i_squared
    pc = _from_blocks(v, v, v.polarization_class(), Mat.zeros(4, 4), v.ns_class((-4, -4, 1, 1)).e)
    assert _twist_to_ample(pc, 1, v.ns_class(v.polarization))[1] >= 2


def test_twist_rejects_a_nonpositive_l(e_i):
    pc = poincare_class()
    for l in (0, -1):
        with pytest.raises(PreconditionError):
            _twist_to_ample(pc, l, e_i.ns_class((1,)))


@st.composite
def symmetric_and_positive_forms(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-9, 9)
    upper = [[draw(entries) for _ in range(n)] for _ in range(n)]
    s = Mat([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    a = Mat([[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)])
    t = mat_sum(a.T @ a, Mat.identity(n))
    return s, t


@given(symmetric_and_positive_forms())
def test_twist_bound_makes_the_form_positive(forms):
    s, t = forms
    v_max = _twist_bound(s, t)
    assert v_max >= 1
    for v in (v_max, v_max + 1, 2 * v_max):
        assert _is_positive_definite(mat_sum(s, v * t))


def test_search_kernel_class_trivial_and_full(e_i):
    found = search_kernel_class(e_i, 2, trivial_subgroup(e_i), 3)
    assert found is not None
    full = search_kernel_class(e_i, 2, torsion_subgroup(e_i, 2), 3)
    assert full is not None
    assert abs(int(full.e.det())) == 4


def test_search_kernel_class_not_found_is_none(e_i):
    # a target needing denominator 4 cannot come from coefficients up to 3
    from fmtori.lattices import Lattice
    from fmtori.matrices import Mat as M
    from fmtori.varieties import FiniteSubgroup
    from fractions import Fraction

    quarter = FiniteSubgroup(
        e_i, Lattice(M(((Fraction(1, 4), 0), (0, 1))))
    )
    assert search_kernel_class(e_i, 4, quarter, 3) is None


def test_search_kernel_class_precondition(e_i):
    with pytest.raises(PreconditionError):
        search_kernel_class(e_i, 2, torsion_subgroup(e_i, 3), 3)


def test_kernel_torsion_subgroup_rejects_a_class_of_another_variety(e_i, e_2i):
    # a class of E_i with E_2i's label and lattice shell would be an order-4
    # subgroup of E_2i that is not the kernel of any class of E_2i
    with pytest.raises(VarietyMismatchError):
        kernel_torsion_subgroup(e_2i, e_i.ns_class((2,)), 2)
    kern = kernel_torsion_subgroup(e_2i, e_2i.ns_class((2,)), 2)
    assert kern.variety is e_2i and kern == torsion_subgroup(e_2i, 2)


@pytest.mark.parametrize("l", (0, -2))
def test_kernel_torsion_subgroup_rejects_a_level_below_one(e_i, l):
    # as torsion_subgroup and search_kernel_class do; l = 0 divided by zero
    # and l = -2 gave the l = 2 answer
    with pytest.raises(PreconditionError, match="torsion level must be positive"):
        kernel_torsion_subgroup(e_i, e_i.ns_class((2,)), l)
    with pytest.raises(PreconditionError):
        torsion_subgroup(e_i, l)


@pytest.mark.parametrize("bound", [0, -1])
def test_searches_reject_bounds_below_one(e_i, bound):
    with pytest.raises(PreconditionError):
        search_kernel_class(e_i, 2, trivial_subgroup(e_i), bound)
    with pytest.raises(PreconditionError):
        search_product_classes(e_i, e_i, 2, bound)


def test_product_class_search_checks_its_level_before_any_work(e_i, e_2i, count_calls):
    # checked inside the audit only, a bad level surfaces on E_i x E_i after
    # 25 Smith forms, and on E_i x E_2i, where no candidate reaches an
    # audit, not at all
    smiths = count_calls(matrices, "snf")
    audits = count_calls(product_audit, "audit_equivalence")
    for b, bound, levels in ((e_i, 2, (0, -2)), (e_2i, 1, (0, -3))):
        for l in levels:
            with pytest.raises(PreconditionError, match="slope denominator must be positive"):
                search_product_classes(e_i, b, l, bound)
    assert smiths == [] and audits == []


def test_searches_over_the_cap_raise_before_any_candidate(e_i, e_i_squared, monkeypatch):
    def no_candidate(*args):
        raise AssertionError("a candidate was evaluated past the cap")

    # 201**4 (about 1.6e9) candidates at bound 100 on E_i x E_i
    assert 201 ** len(e_i_squared.ns_basis) > SEARCH_CANDIDATE_CAP
    # every candidate of both searches reaches the evaluator _scan receives
    scan = product_audit._scan
    monkeypatch.setattr(product_audit, "_scan", lambda rank, bound, top, evaluate, limit:
                        scan(rank, bound, top, no_candidate, limit))
    target = torsion_subgroup(e_i_squared, 2)
    with pytest.raises(PreconditionError, match="candidate cap"):
        search_kernel_class(e_i_squared, 2, target, coeff_bound=100)
    with pytest.raises(PreconditionError, match="candidate cap"):
        search_product_classes(e_i, e_i, 2, 100)


def _names(a, m):
    """The names that dual, slope_subvariety, ProductNSClass.as_class,
    projection_iso, the dual product and enumerate_partners give on a."""
    sv = slope_subvariety(reduce_slope(a.ns_class((1,)), 2))
    pc = ProductNSClass(a, a, m)
    iso = projection_iso(audit_equivalence(pc, 1))
    maps = (sv.to_ambient, iso.to_a_side, iso.to_b_side, iso.eta, iso.dual_certificate)
    records = [entry.record for entry in enumerate_partners(a, 1, 2)]
    return (
        dual(a).name,
        pc.as_class().variety.name,
        product_audit._dual_product_variety(a, a).name,
        *((f.source.name, f.target.name) for f in maps),
        *((r.partner.name, r.dual_certificate.source.name, r.dual_certificate.target.name)
          for r in records),
    )


def test_cached_products_keep_each_variety_name():
    # a name is part of a variety's identity: two copies of E_i with equal
    # data are two entries in each cache keyed by varieties (the product
    # caches and the slope member data), and every product, dual,
    # subtorus and partner is named after its own copy, whether the copies
    # run warm in either order or cold
    e_i = square_lattice_curve()
    copies = {n: TorusVariety(e_i.g, e_i.j, e_i.ns_basis, e_i.polarization, n) for n in "AB"}
    m = poincare_class().m  # built before the caches are cleared: it fills one on E_i
    caches = (
        slopes._ambient_product,
        slopes._restriction,
        slopes._member_data,
        product_audit._product_variety,
        product_audit._dual_product_variety,
    )

    def expected(n):
        partner = (f"{n}_partner", f"{n}_partner^", f"{n}_mu")
        return (
            f"{n}^", f"{n}x{n}", f"{n}^x{n}^",
            (f"{n}_mu", f"{n}x{n}^"),
            (f"{n}x{n}_mu", f"{n}x{n}^"),
            (f"{n}x{n}_mu", f"{n}x{n}^"),
            (f"{n}x{n}^", f"{n}x{n}^"),
            (f"{n}^", f"{n}_mu"),
            partner, partner,
        )

    clear_caches()
    first = _names(copies["A"], m)
    sizes = [f.cache_info().currsize for f in caches]
    assert all(sizes)
    second = _names(copies["B"], m)
    assert [f.cache_info().currsize for f in caches] == [2 * k for k in sizes]
    warm = {n: _names(copies[n], m) for n in "BA"}
    assert [f.cache_info().currsize for f in caches] == [2 * k for k in sizes]
    assert (first, second) == (expected("A"), expected("B"))
    for n in "AB":
        assert warm[n] == expected(n)
        clear_caches()
        assert _names(copies[n], m) == expected(n)


# -- reference funnels: the searches without pre-filters, memo or exact stop ------


def _ref_search_product_classes(a, b, l, coeff_bound, limit):
    # the funnel before the degree pre-filter: any correspondence isogeny
    # goes on to the kernel-order filter and the audit, 16 candidates a time
    prod = product_audit._product_variety(a, b)

    def evaluate(coeffs):
        if not any(coeffs):
            return None
        m = prod.ns_class(coeffs).e
        if gcd(m.content(), l) != 1:
            return None
        pc = ProductNSClass(a, b, m)
        if l > 1 and not is_ample(pc.block_b):
            return None
        corr = pc.correspondence
        if not corr.is_square or corr.det() == 0:
            return None
        if slope_kernel(Slope(pc.as_class(), l)).order != l * l:
            return None
        return pc if audit_equivalence(pc, l).all_pass else None

    box = itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(prod.ns_basis))
    hits = []
    while len(hits) < limit:
        block = list(itertools.islice(box, 16))
        if not block:
            break
        hits += [r for r in map(evaluate, block) if r is not None][: limit - len(hits)]
    return hits


_E_I, _E_2I = square_lattice_curve(), SHIPPED_VARIETIES["e_2i.json"]


# mixed factors have different correspondence blocks from either square; they
# have no hits, because E_i and E_2i are not isomorphic and g = 1 asks for a
# correspondence of degree l^0 = 1, so there both searches reject every class
@pytest.mark.parametrize(
    "a, b",
    ((_E_I, _E_I), (_E_2I, _E_2I), (_E_I, _E_2I), (_E_2I, _E_I)),
    ids=("E_i", "E_2i", "E_i,E_2i", "E_2i,E_i"),
)
@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize("bound", (1, 2))
def test_product_search_matches_reference_funnel(a, b, l, bound):
    # the reference's hits at a smaller limit are a prefix of these
    want = [pc.m for pc in _ref_search_product_classes(a, b, l, bound, 3)]
    for limit in (1, 2, 3):
        got = search_product_classes(a, b, l, bound, limit=limit)
        assert [pc.m for pc in got] == want[:limit]


def test_product_search_decides_each_correspondence_degree_once(e_i, monkeypatch):
    # E_i x E_i has two classes with a nonzero correspondence block, so the
    # bound-2 box of 625 candidates holds 25 distinct blocks
    keys, blocks, block_dets = [], [], []
    combination_map = product_audit.combination_map

    def recording(basis, rows, cols):
        combine = combination_map(basis, rows, cols)
        if (rows, cols) != (e_i.dim, e_i.dim):
            return combine

        def counted(coeffs):
            keys.append(tuple(coeffs))
            blocks.append(combine(coeffs))
            return blocks[-1]

        return counted

    monkeypatch.setattr(product_audit, "combination_map", recording)
    det = Mat.det

    def counting_det(m):
        if any(m is c for c in blocks):
            block_dets.append(m)
        return det(m)

    monkeypatch.setattr(Mat, "det", counting_det)
    assert len(search_product_classes(e_i, e_i, 2, 2, limit=2)) == 2
    assert 0 < len(block_dets) == len(keys) <= 25
    assert len(set(keys)) == len(keys)
    assert all(len(key) == 2 for key in keys)


def _cyclic_subgroup(v, l):
    # order l, inside the l-torsion; kernels of alternating forms are never
    # cyclic of order l > 1, so no class has it as kernel
    n = v.dim
    diag = [[Fraction(1, l) if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    return FiniteSubgroup(v, Lattice(Mat(diag)))


_KERNEL_VARIETIES = {
    "E_i": square_lattice_curve(),
    "E_2i": SHIPPED_VARIETIES["e_2i.json"],
    "dual(E_i)": dual(square_lattice_curve()),
    "E_i x E_i": square_curve_product(),
}


def _kernel_targets(v, l):
    r = len(v.ns_basis)
    classes = [(1,) * r, (2,) * r, (0,) * (r - 1) + (2,), tuple(range(1, r + 1))]
    targets = [trivial_subgroup(v), torsion_subgroup(v, l)]
    return targets + [kernel_torsion_subgroup(v, v.ns_class(c), l) for c in classes]


@pytest.fixture(scope="module")
def kernel_table():
    """Kernel of every class in the bound-3 box, computed once per class."""
    table = {}

    def kernel(name, l, coeffs):
        key = (name, l, coeffs)
        if key not in table:
            v = _KERNEL_VARIETIES[name]
            table[key] = kernel_torsion_subgroup(v, v.ns_class(coeffs), l)
        return table[key]

    return kernel


@pytest.mark.parametrize("name", sorted(_KERNEL_VARIETIES))
@pytest.mark.parametrize("l", (1, 2, 3, 4, 5))
def test_kernel_search_matches_brute_force_scan(name, l, kernel_table):
    # the walked sub-box is one vector at l = 1, holds the zero vector when
    # l > bound, and is the whole box when l > 2 * bound (l = 5, bound 2)
    v = _KERNEL_VARIETIES[name]
    cyclic = _cyclic_subgroup(v, l)
    targets = _kernel_targets(v, l)
    if l > 1:  # at l = 1 the cyclic group is the trivial one, a kernel
        targets.append(cyclic)
    for target in targets:
        for bound in (1, 2, 3):
            box = itertools.product(range(-bound, bound + 1), repeat=len(v.ns_basis))
            want = next(
                (c for c in box if any(c) and kernel_table(name, l, c) == target), None
            )
            got = search_kernel_class(v, l, target, bound)
            assert got == (v.ns_class(want) if want is not None else None)
            assert want is None or target is not cyclic  # the not-found case


_RESIDUE_VARIETIES = [
    square_lattice_curve(),
    SHIPPED_VARIETIES["e_2i.json"],
    square_curve_product(),
    SHIPPED_VARIETIES["e_i_x_e_i_ppav.json"],
]


@given(st.data())
def test_torsion_kernel_depends_on_coefficients_mod_l(data):
    # the fact the kernel-search sub-box rests on: K(c) meets the l-torsion
    # in the same subgroup as K(c + l * delta) for every integral delta, so
    # the first box vector of each residue decides it
    v = data.draw(st.sampled_from(_RESIDUE_VARIETIES))
    l = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-5, 5), min_size=len(v.ns_basis), max_size=len(v.ns_basis))
    c, delta = data.draw(vec), data.draw(vec)
    shifted = tuple(x + l * d for x, d in zip(c, delta))
    assert kernel_torsion_subgroup(v, v.ns_class(c), l) == kernel_torsion_subgroup(
        v, v.ns_class(shifted), l
    )


def _sub_box(rank, bound, l):
    top = min(bound, l - 1 - bound)
    return list(itertools.product(range(-bound, top + 1), repeat=rank))


@pytest.mark.parametrize("rank", (1, 2, 3))
@pytest.mark.parametrize("bound", (1, 2, 3, 4))
@pytest.mark.parametrize("l", range(1, 11))
def test_first_vector_of_each_residue_lies_in_the_sub_box(rank, bound, l):
    # in lexicographic order over the nonzero vectors of [-B, B]^rank, the
    # first vectors of the residues mod l are exactly the nonzero vectors of
    # [-B, min(B, l - 1 - B)]^rank, in the same order; the zero vector is in
    # that sub-box only when l > B, when no other vector has its residue
    first = {}
    for c in itertools.product(range(-bound, bound + 1), repeat=rank):
        if any(c):
            first.setdefault(tuple(x % l for x in c), c)
    sub = _sub_box(rank, bound, l)
    assert [c for c in sub if any(c)] == list(first.values())
    zero = (0,) * rank
    assert (zero in sub) == (l > bound)
    if zero in sub:
        assert zero not in first


def _reference_kernel_search(v, l, target, bound):
    """The former search: the kernel lattice of the first class of every
    new residue, compared with the target."""
    matches = {}
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(v.ns_basis)):
        if not any(coeffs):
            continue
        residue = tuple(c % l for c in coeffs)
        if residue not in matches:
            matches[residue] = kernel_torsion_subgroup(v, v.ns_class(coeffs), l) == target
        if matches[residue]:
            return v.ns_class(coeffs)
    return None


def _assert_matches_reference(v, l, targets, bound):
    for target in targets:
        assert search_kernel_class(v, l, target, bound) == _reference_kernel_search(
            v, l, target, bound
        )


_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


@pytest.mark.parametrize("l", (2, 3))
def test_kernel_search_matches_the_reference_on_every_target_group(e_i_squared, l):
    v = e_i_squared
    groups = json.loads(_EXPECTED.read_text())["kernel_target_groups"][str(l)]
    targets = [kernel_torsion_subgroup(v, v.ns_class(tuple(g[0])), l) for g in groups]
    _assert_matches_reference(v, l, targets, 2)


@pytest.mark.parametrize(
    ("l", "distinct", "orders"), ((4, 12, {1, 4, 16}), (6, 16, {1, 4, 9, 36}))
)
def test_kernel_search_matches_the_reference_at_composite_l(e_i_squared, l, distinct, orders):
    # the orders 4 and 9 come from invariant factors sharing only part of l,
    # so the gcd(d, l) factors of the order test are neither 1 nor l
    v = e_i_squared
    box = itertools.product(range(-1, 2), repeat=len(v.ns_basis))
    targets = list({kernel_torsion_subgroup(v, v.ns_class(c), l): None for c in box if any(c)})
    assert len(targets) == distinct
    assert {t.order for t in targets} == orders
    _assert_matches_reference(v, l, targets, 1)


def test_kernel_search_matches_the_reference_when_nothing_is_found(e_i, e_i_squared):
    quarter = FiniteSubgroup(e_i, Lattice(Mat(((Fraction(1, 4), 0), (0, 1)))))
    full = torsion_subgroup(e_i_squared, 3)
    for v, l, target, bound in ((e_i, 4, quarter, 3), (e_i_squared, 3, full, 2)):
        assert _reference_kernel_search(v, l, target, bound) is None
        assert search_kernel_class(v, l, target, bound) is None


@given(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.sampled_from((2, 3, 4, 6)),
)
def test_torsion_kernel_order_counts_the_kernel_points(coeffs, l):
    cls = square_curve_product().ns_class(coeffs)
    e = cls.e
    order = product_audit._torsion_kernel_order(e, l)
    assert order == len(oracles.kernel_points_of_class(e, l))
    # for a reduced slope it is the order of the slope kernel, the lattice
    # route the product-class search used to take
    if gcd(e.content(), l) == 1:
        assert order == slope_kernel(Slope(cls, l)).order


def test_kernel_search_checks_the_hit_against_its_kernel(e_i, monkeypatch):
    # a kernel that disagrees with the mod-l test is a broken identity
    monkeypatch.setattr(
        product_audit, "kernel_torsion_subgroup", lambda v, cls, l: trivial_subgroup(v)
    )
    with pytest.raises(varieties.InternalInvariantViolation):
        search_kernel_class(e_i, 2, torsion_subgroup(e_i, 2), 3)
    with pytest.raises(PreconditionError):
        search_kernel_class(e_i, 2, torsion_subgroup(e_i, 3), 3)


# -- exact stop ----------------------------------------------------------------------


def _count_calls(monkeypatch, name, module=product_audit):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _evaluated(monkeypatch):
    """The candidates the searches hand the evaluator _scan receives, in order."""
    seen = []
    scan = product_audit._scan

    def observed(rank, coeff_bound, top, evaluate, limit):
        def evaluate_seen(coeffs):
            seen.append(coeffs)
            return evaluate(coeffs)

        return scan(rank, coeff_bound, top, evaluate_seen, limit)

    monkeypatch.setattr(product_audit, "_scan", observed)
    return seen


def test_product_search_audits_only_its_hits(e_i, monkeypatch):
    audits = _count_calls(monkeypatch, "audit_equivalence")
    evaluated = _evaluated(monkeypatch)
    hits = search_product_classes(e_i, e_i, 2, 2, limit=2)
    assert len(hits) == 2
    assert len(audits) == 2
    # the last candidate evaluated is the second hit
    prod = hits[-1].as_class().variety
    assert prod.ns_class(evaluated[-1]).e == hits[-1].m


def test_product_search_builds_each_slope_kernel_once(e_i, cold_caches, count_calls):
    # the filter reads the kernel order from one Smith form, so only the
    # audits read slope_kernel, once per hit, and each audit builds its hit's
    # member lattice once, for the subtorus and its kernel
    kernels = count_calls(slopes, "slope_kernel")
    audits = count_calls(product_audit, "audit_equivalence")
    assert len(search_product_classes(e_i, e_i, 2, 2, limit=2)) == 2
    members = slopes._member_data.cache_info().misses
    assert (len(kernels), members, len(audits)) == (2, 2, 2)


def test_kernel_search_builds_one_kernel_per_hit(e_i_squared, monkeypatch):
    # candidates are tested mod l, each residue once, in the sub-box; only
    # the hit's kernel is built as a lattice, to check it against the target
    v, r = e_i_squared, len(e_i_squared.ns_basis)
    for l, coeffs in ((2, (1, 0, 1, 1)), (3, (2, -1, 0, 1)), (3, None)):
        target = (
            kernel_torsion_subgroup(v, v.ns_class(coeffs), l) if coeffs
            else torsion_subgroup(v, l)  # needs coefficients divisible by 3
        )
        kernels = _count_calls(monkeypatch, "kernel_torsion_subgroup")
        sublattices = _count_calls(monkeypatch, "sublattice_where_integral")
        evaluated = _evaluated(monkeypatch)
        found = search_kernel_class(v, l, target, 2)
        monkeypatch.undo()
        # the zero vector never reaches the evaluator
        sub = [c for c in _sub_box(r, 2, l) if any(c)]
        assert evaluated == sub[: len(evaluated)]
        assert len({tuple(x % l for x in c) for c in evaluated}) == len(evaluated)
        if coeffs is None:
            assert found is None and evaluated == sub
            assert len(kernels) == len(sublattices) == 0
        else:
            assert len(kernels) == len(sublattices) == 1
            # no candidate past the hit
            assert found == v.ns_class(evaluated[-1])


def test_kernel_search_builds_no_generic_lattice(e_i_squared, cold_caches, count_calls, monkeypatch):
    # the hit's kernel is read off one congruence echelon: no integer kernel,
    # no Hermite form of a generating set and no canonicalizing Lattice
    v = e_i_squared
    for l, coeffs in ((2, (1, 0, 1, 1)), (3, (2, -1, 0, 1)), (3, None)):
        target = (
            kernel_torsion_subgroup(v, v.ns_class(coeffs), l) if coeffs
            else torsion_subgroup(v, l)
        )
        kernels = count_calls(matrices, "integer_kernel")
        hermite = count_calls(matrices, "hnf_columns")
        sublattices = count_calls(lattices, "sublattice_where_integral")
        inits = []
        init = Lattice.__init__

        def counted(self, *args):
            inits.append(args)
            init(self, *args)

        monkeypatch.setattr(Lattice, "__init__", counted)
        found = search_kernel_class(v, l, target, 2)
        monkeypatch.undo()
        assert (found is None) == (coeffs is None)
        assert (len(kernels), len(hermite), len(inits)) == (0, 0, 0)
        assert len(sublattices) == (0 if found is None else 1)


def test_kernel_search_answer_does_not_depend_on_warm_caches(e_i_squared):
    # two calls per target, the second reading the caches the first filled
    v = e_i_squared
    targets = [(l, kernel_torsion_subgroup(v, v.ns_class(c), l))
               for l, c in ((2, (1, 0, 1, 1)), (3, (2, -1, 0, 1)), (3, (1, 1, 1, 1)))]
    targets.append((3, torsion_subgroup(v, 3)))
    one = [search_kernel_class(v, l, t, 2) for l, t in targets]
    again = [search_kernel_class(v, l, t, 2) for l, t in targets]
    assert again == one


# -- the audit against its former construction ------------------------------------


def _ref_kernel_inside(kernel, cls, l):
    over = kernel.overlattice
    shell = Lattice.standard(over.ambient_dim).scaled(Fraction(1, l))
    return shell.sum(over) == shell and (cls @ over.basis).is_integral()


def _ref_audit(pc, l):
    # audit_equivalence as it was before it read the kernels from corr^-1:
    # the correspondence homomorphism A -> dual(B), which builds dual(B),
    # and the kernels of it and of its dual homomorphism; the report carries
    # the slope subtorus built here, so the equality covers it too
    mu = product_audit._slope_of(pc, l)
    if pc.a.g != pc.b.g:
        item = product_audit._item("equal_dimensions", pc.a.g, pc.b.g)
        return product_audit.AuditReport(pc, l, (item,), None)
    if l > 1 and not is_ample(pc.block_b):
        raise PreconditionError("B-block not ample")
    g, prod, item = pc.a.g, mu.variety, product_audit._item
    items = []
    kern = slope_kernel(mu)
    items.append(item("subtorus_kernel_order", l * l, kern.order))
    pi = Homomorphism(pc.a, dual(pc.b), pc.correspondence.T)
    if pi.m.is_square and pi.m.det() != 0:
        items.append(item("correspondence_degree", l ** (2 * g - 2), abs(pi.m.det())))
        ker_pi = pi.kernel()
        ker_pi_hat = pi.dual_hom().kernel()
        inside = _ref_kernel_inside(ker_pi, pc.block_a.e, l) and _ref_kernel_inside(
            ker_pi_hat, pc.block_b.e, l
        )
        items.append(
            product_audit.AuditItem(
                "correspondence_kernel_inclusions", inside, "both inclusions", "checked"
            )
        )
        pi_divisors = ker_pi.divisors
    else:
        items.append(item("correspondence_degree", l ** (2 * g - 2), "not an isogeny"))
        items.append(
            product_audit.AuditItem(
                "correspondence_kernel_inclusions", False, "both inclusions", "no isogeny"
            )
        )
        pi_divisors = ()
    cmp = graph_subgroup_comparison(pc, l)
    items.append(item("graph_subgroup_order", l * l, cmp.order))
    items.append(
        product_audit.AuditItem(
            "graph_subgroups_equal", cmp.equal, "equal", "equal" if cmp.equal else "different"
        )
    )
    level = l * max((1,) + kern.divisors + pi_divisors)
    sv = slope_subvariety(mu)
    n_amb = 2 * prod.dim
    window = Lattice.standard(n_amb).scaled(Fraction(1, level))
    ann = integer_kernel(sv.embedding.T).T
    # the annihilator vanishes on the embedded image
    ann_on_image = ann @ sv.to_ambient.m
    assert ann_on_image == Mat.zeros(ann_on_image.rows, ann_on_image.cols)
    on_subtorus = where_integral_by_kernel(level, Lattice(ann).basis.inverse() @ ann)
    generated = Lattice(
        Mat.hstack(Fraction(1, level * l) * sv.embedding, Mat.identity(n_amb))
    ).intersect(window)
    items.append(
        product_audit.AuditItem(
            "subtorus_torsion_generated_by_tuples",
            on_subtorus == generated,
            f"tuple generation at level {level}",
            "equal" if on_subtorus == generated else "mismatch",
        )
    )
    return product_audit.AuditReport(pc, l, tuple(items), sv)


def _assert_audit_matches_reference(pc, l):
    assert audit_equivalence(pc, l) == _ref_audit(pc, l)


def test_poincare_audit_matches_the_reference():
    _assert_audit_matches_reference(poincare_class(), 1)


@pytest.mark.parametrize(
    "curve", (square_lattice_curve(), SHIPPED_VARIETIES["e_2i.json"]), ids=("E_i", "E_2i")
)
@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize("bound", (1, 2))
def test_audits_of_every_search_hit_match_the_reference(curve, l, bound):
    hits = search_product_classes(curve, curve, l, bound, limit=SEARCH_CANDIDATE_CAP)
    assert hits
    for pc in hits:
        _assert_audit_matches_reference(pc, l)


@pytest.mark.parametrize(
    "curve", (square_lattice_curve(), SHIPPED_VARIETIES["e_2i.json"]), ids=("E_i", "E_2i")
)
@pytest.mark.parametrize("l", (1, 2, 3))
def test_failing_correspondences_audit_as_the_reference(curve, l):
    # every class of the bound-1 box that meets the audit's preconditions and
    # whose correspondence is not an isogeny or has the wrong degree
    prod = product_audit._product_variety(curve, curve)
    kinds = set()
    for coeffs in itertools.product(range(-1, 2), repeat=len(prod.ns_basis)):
        m = prod.ns_class(coeffs).e
        if gcd(m.content(), l) != 1:
            continue
        pc = ProductNSClass(curve, curve, m)
        if l > 1 and not is_ample(pc.block_b):
            continue
        det = pc.correspondence.det()
        if abs(det) == l ** (2 * curve.g - 2):
            continue
        kinds.add(det == 0)
        _assert_audit_matches_reference(pc, l)
    assert kinds == {True, False}


def test_a_second_audit_builds_no_dual(e_i, monkeypatch):
    pc = search_product_classes(e_i, e_i, 2, 2)[0]
    first = audit_equivalence(pc, 2)  # warms the product caches
    calls = [_count_calls(monkeypatch, "dual", m) for m in (varieties, product_audit)]
    assert audit_equivalence(pc, 2) == first
    assert calls == [[], []]


def test_kernel_search_computes_no_group_structure(e_i_squared, monkeypatch):
    calls = [_count_calls(monkeypatch, "quotient_structure", m) for m in (lattices, varieties)]
    v = e_i_squared
    for l, coeffs in ((2, (1, 0, 1, 1)), (3, (2, -1, 0, 1))):
        target = kernel_torsion_subgroup(v, v.ns_class(coeffs), l)
        assert search_kernel_class(v, l, target, 2) is not None
    assert calls == [[], []]
