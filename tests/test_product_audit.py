import pytest

from fmtori import product_audit
from fmtori.corpus import poincare_class, square_lattice_curve
from fmtori.matrices import Mat
from fmtori.partners import SEARCH_CANDIDATE_CAP
from fmtori.product_audit import (
    ProductNSClass,
    assemble,
    audit_equivalence,
    decompose,
    graph_subgroup_comparison,
    graph_subgroup_equalities,
    is_ample,
    partner_dual_certificate,
    projection_iso,
    search_kernel_class,
    search_product_classes,
    twist_to_ample,
)
from fmtori.slopes import projection_invariants, reduce_slope, slope_subvariety
from fmtori.varieties import (
    PreconditionError,
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
    iso = projection_iso(poincare_class(), 1)
    assert is_isomorphism_certificate(iso.to_a_side)
    assert is_isomorphism_certificate(iso.to_b_side)
    z, i = Mat.zeros(2, 2), Mat.identity(2)
    assert iso.eta.m == Mat.block(((z, i), (-i, z)))


def test_block_diagonal_class_fails(e_i):
    pc = assemble(e_i, e_i, e_i.ns_basis[0], Mat.zeros(2, 2), e_i.ns_basis[0])
    report = audit_equivalence(pc, 1)
    assert not report.all_pass
    failed = {item.name for item in report.items if not item.passed}
    assert "correspondence_degree" in failed


def test_decompose_assemble_round_trip(e_i):
    pc = poincare_class()
    m_a, pi, m_b = decompose(pc)
    again = assemble(pc.a, pc.b, m_a.e, pi.m.T, m_b.e)
    assert again == pc
    assert pi.degree() == 1


def test_projection_iso_requires_all_pass(e_i):
    pc = assemble(e_i, e_i, e_i.ns_basis[0], Mat.zeros(2, 2), e_i.ns_basis[0])
    with pytest.raises(PreconditionError):
        projection_iso(pc, 1)


def test_audit_rejects_non_ample_b_block_for_l_two(e_i):
    pc = poincare_class()
    with pytest.raises(PreconditionError):
        audit_equivalence(pc, 2)


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
        prod = pc.as_class().variety
        mu = reduce_slope(pc.as_class(), 2)
        inv = projection_invariants(prod, mu)
        assert inv.degree == inv.rank**2
        iso = projection_iso(pc, 2)
        assert is_isomorphism_certificate(iso.eta)
        cert = partner_dual_certificate(pc, 2, bound=3)
        assert cert is not None and is_isomorphism_certificate(cert)


def test_search_is_deterministic_across_threads(e_i):
    one = search_product_classes(e_i, e_i, 2, 2, threads=1, limit=2)
    four = search_product_classes(e_i, e_i, 2, 2, threads=4, limit=2)
    assert [pc.m for pc in one] == [pc.m for pc in four]


def test_graph_equalities_standalone(e_i):
    assert graph_subgroup_equalities(poincare_class(), 1)
    # with no correspondence the two graphs live on different factors; at
    # l = 2 they are both of order four but disjoint
    bad = assemble(e_i, e_i, e_i.ns_basis[0], Mat.zeros(2, 2), e_i.ns_basis[0])
    assert not graph_subgroup_equalities(bad, 2)


def test_twist_restores_ampleness(e_i):
    pc = poincare_class()  # B-block is zero, not ample
    assert not is_ample(pc.block_b)
    twisted, steps = twist_to_ample(pc, 2, e_i.ns_class((1,)))
    assert steps >= 1
    assert is_ample(twisted.block_b)
    assert twisted.correspondence == pc.correspondence
    assert twisted.block_a == pc.block_a


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
        e_i, Lattice(2, M(((Fraction(1, 4), 0), (0, 1))))
    )
    assert search_kernel_class(e_i, 4, quarter, 3) is None


def test_search_kernel_class_precondition(e_i):
    with pytest.raises(PreconditionError):
        search_kernel_class(e_i, 2, torsion_subgroup(e_i, 3), 3)


@pytest.mark.parametrize("bound", [0, -1])
def test_searches_reject_bounds_below_one(e_i, bound):
    with pytest.raises(PreconditionError):
        search_kernel_class(e_i, 2, trivial_subgroup(e_i), bound)
    with pytest.raises(PreconditionError):
        search_product_classes(e_i, e_i, 2, bound)


def test_searches_over_the_cap_raise_before_any_candidate(e_i, e_i_squared, monkeypatch):
    def no_candidate(*args):
        raise AssertionError("a candidate was evaluated past the cap")

    # 201**4 (about 1.6e9) candidates at bound 100 on E_i x E_i
    assert 201 ** len(e_i_squared.ns_basis) > SEARCH_CANDIDATE_CAP
    # every candidate of both searches reaches its evaluator through pmap
    monkeypatch.setattr(product_audit, "pmap", no_candidate)
    target = torsion_subgroup(e_i_squared, 2)
    with pytest.raises(PreconditionError, match="candidate cap"):
        search_kernel_class(e_i_squared, 2, target, coeff_bound=100)
    with pytest.raises(PreconditionError, match="candidate cap"):
        search_product_classes(e_i, e_i, 2, 100)


def test_cached_products_keep_each_variety_name():
    # equal presentations share cache entries, since TorusVariety equality
    # ignores names; every product must still be named after its factors
    for n in ("A", "B"):
        a = square_lattice_curve(n)
        sv = slope_subvariety(a, reduce_slope(a.ns_class((1,)), 2))
        assert sv.ambient.name == f"{n}x{n}^"
        pc = ProductNSClass(a, a, poincare_class().m)
        assert pc.as_class().variety.name == f"{n}x{n}"
        assert graph_subgroup_comparison(pc, 1).first.variety.name == f"{n}^x{n}^"
