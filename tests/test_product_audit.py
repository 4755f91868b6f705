import itertools
import json
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmtori import lattices, oracles, product_audit, varieties
from fmtori.corpus import (
    doubled_square_lattice_curve,
    poincare_class,
    square_curve_product,
    square_curve_product_principal,
    square_lattice_curve,
)
from fmtori.lattices import Lattice
from fmtori.matrices import Mat
from fmtori.partners import SEARCH_CANDIDATE_CAP
from fmtori.product_audit import (
    ProductNSClass,
    assemble,
    audit_equivalence,
    decompose,
    graph_subgroup_comparison,
    is_ample,
    kernel_torsion_subgroup,
    partner_dual_certificate,
    projection_iso,
    search_kernel_class,
    search_product_classes,
    twist_to_ample,
)
from fmtori.slopes import Slope, projection_invariants, reduce_slope, slope_kernel, slope_subvariety
from fmtori.varieties import (
    FiniteSubgroup,
    PreconditionError,
    _is_positive_definite,
    dual,
    is_isomorphism_certificate,
    lift_second,
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
    good = graph_subgroup_comparison(poincare_class(), 1)
    assert good.equal and good.order == 1
    # with no correspondence the two graphs live on different factors; at
    # l = 2 they are both of order four but disjoint
    bad = assemble(e_i, e_i, e_i.ns_basis[0], Mat.zeros(2, 2), e_i.ns_basis[0])
    cmp = graph_subgroup_comparison(bad, 2)
    assert cmp.order == 4 and not cmp.equal


def test_twist_restores_ampleness(e_i):
    pc = poincare_class()  # B-block is zero, not ample
    assert not is_ample(pc.block_b)
    twisted, steps = twist_to_ample(pc, 2, e_i.ns_class((1,)))
    assert steps >= 1
    assert is_ample(twisted.block_b)
    assert twisted.correspondence == pc.correspondence
    assert twisted.block_a == pc.block_a


def _ref_twist(pc, l, ample_class):
    # the loop before the computed bound: up to 10 000 steps
    step = l * lift_second(ample_class.e, pc.a.dim)
    m = pc.m
    for v in range(10_000):
        if is_ample(ProductNSClass(pc.a, pc.b, m).block_b):
            return m, v
        m = m + step
    raise AssertionError("no ample twist within 10 000 steps")


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("l", (1, 2, 3))
def test_twist_step_count_matches_the_unbounded_loop(e_i, k, l):
    # a B-block of -k E0 turns ample after k // l + 1 steps of l E0
    e0 = e_i.ns_basis[0]
    pc = assemble(e_i, e_i, e0, Mat.identity(2), -k * e0)
    twisted, steps = twist_to_ample(pc, l, e_i.ns_class((1,)))
    assert (twisted.m, steps) == _ref_twist(pc, l, e_i.ns_class((1,)))
    assert steps == k // l + 1


@pytest.mark.parametrize("coeffs", [(-3, 0, 0, 0), (-2, 5, 0, 0), (0, 0, 3, -2), (-4, -4, 1, 1)])
@pytest.mark.parametrize("l", (1, 2))
def test_twist_on_the_surface_matches_the_unbounded_loop(e_i_squared, coeffs, l):
    # B-blocks whose form is not a multiple of the twisting class's
    v = e_i_squared
    pc = assemble(v, v, v.polarization_class(), Mat.zeros(4, 4), v.ns_class(coeffs).e)
    ample = v.ns_class(v.polarization)
    twisted, steps = twist_to_ample(pc, l, ample)
    assert (twisted.m, steps) == _ref_twist(pc, l, ample)
    assert is_ample(twisted.block_b)


def test_twist_needs_several_steps(e_i_squared):
    v = e_i_squared
    pc = assemble(v, v, v.polarization_class(), Mat.zeros(4, 4), v.ns_class((-4, -4, 1, 1)).e)
    assert twist_to_ample(pc, 1, v.ns_class(v.polarization))[1] >= 2


def test_twist_rejects_a_nonpositive_l(e_i):
    pc = poincare_class()
    for l in (0, -1):
        with pytest.raises(PreconditionError):
            twist_to_ample(pc, l, e_i.ns_class((1,)))


@st.composite
def symmetric_and_positive_forms(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-9, 9)
    upper = [[draw(entries) for _ in range(n)] for _ in range(n)]
    s = Mat([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    a = Mat([[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)])
    t = a.T @ a + Mat.identity(n)
    return s, t


@given(symmetric_and_positive_forms())
def test_twist_bound_makes_the_form_positive(forms):
    s, t = forms
    v_max = product_audit._twist_bound(s, t)
    assert v_max >= 1
    for v in (v_max, v_max + 1, 2 * v_max):
        assert _is_positive_definite(s + v * t)


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


# -- reference funnels: the searches without pre-filters, memo or exact stop ------


def _ref_search_product_classes(a, b, l, coeff_bound, limit):
    # the funnel before the degree pre-filter: any correspondence isogeny
    # goes on to the kernel-order filter and the audit, 16 candidates a time
    prod = product_audit._product_variety(a, b, a.name, b.name)

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
        if slope_kernel(prod, Slope(pc.as_class(), l)).order != l * l:
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


@pytest.mark.parametrize(
    "curve", (square_lattice_curve(), doubled_square_lattice_curve()), ids=("E_i", "E_2i")
)
@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize("bound", (1, 2))
def test_product_search_matches_reference_funnel(curve, l, bound):
    # the reference's hits at a smaller limit are a prefix of these
    want = [pc.m for pc in _ref_search_product_classes(curve, curve, l, bound, 3)]
    for limit in (1, 2, 3):
        got = search_product_classes(curve, curve, l, bound, limit=limit)
        assert [pc.m for pc in got] == want[:limit]


def _cyclic_subgroup(v, l):
    # order l, inside the l-torsion; kernels of alternating forms are never
    # cyclic of order l > 1, so no class has it as kernel
    n = v.dim
    diag = [[Fraction(1, l) if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    return FiniteSubgroup(v, Lattice(n, Mat(diag)))


_KERNEL_VARIETIES = {
    "E_i": square_lattice_curve(),
    "E_2i": doubled_square_lattice_curve(),
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
    doubled_square_lattice_curve(),
    square_curve_product(),
    square_curve_product_principal(),
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
    quarter = FiniteSubgroup(e_i, Lattice(2, Mat(((Fraction(1, 4), 0), (0, 1)))))
    full = torsion_subgroup(e_i_squared, 3)
    for v, l, target, bound in ((e_i, 4, quarter, 3), (e_i_squared, 3, full, 2)):
        assert _reference_kernel_search(v, l, target, bound) is None
        assert search_kernel_class(v, l, target, bound) is None


@given(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.sampled_from((2, 3, 4, 6)),
)
def test_torsion_kernel_order_counts_the_kernel_points(coeffs, l):
    e = square_curve_product().ns_class(coeffs).e
    assert product_audit._torsion_kernel_order(e, l) == len(
        oracles.kernel_points_of_class(e, l)
    )


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


def test_product_search_audits_only_its_hits(e_i, monkeypatch):
    audits = _count_calls(monkeypatch, "audit_equivalence")
    batches = _count_calls(monkeypatch, "pmap")
    hits = search_product_classes(e_i, e_i, 2, 2, limit=2)
    assert len(hits) == 2
    assert len(audits) == 2
    # the last candidate evaluated is the second hit
    last = batches[-1][1]
    prod = hits[-1].as_class().variety
    assert len(last) == 1 and prod.ns_class(last[0]).e == hits[-1].m


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
        batches = _count_calls(monkeypatch, "pmap")
        found = search_kernel_class(v, l, target, 2)
        monkeypatch.undo()
        evaluated = [c for _, block, *_ in batches for c in block]
        sub = _sub_box(r, 2, l)
        assert evaluated == sub[: len(evaluated)]
        assert len({tuple(x % l for x in c) for c in evaluated}) == len(evaluated)
        if coeffs is None:
            assert found is None and evaluated == sub
            assert len(kernels) == len(sublattices) == 0
        else:
            assert len(kernels) == len(sublattices) == 1
            # no candidate past the hit
            assert found == v.ns_class(evaluated[-1])


def test_kernel_search_answer_does_not_depend_on_threads(e_i_squared):
    # with frequent thread switches and more threads than cores, every
    # answer must equal the one-thread answer
    v = e_i_squared
    targets = [(l, kernel_torsion_subgroup(v, v.ns_class(c), l))
               for l, c in ((2, (1, 0, 1, 1)), (3, (2, -1, 0, 1)), (3, (1, 1, 1, 1)))]
    targets.append((3, torsion_subgroup(v, 3)))
    one = [search_kernel_class(v, l, t, 2) for l, t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = [search_kernel_class(v, l, t, 2, threads=4) for l, t in targets]
    finally:
        sys.setswitchinterval(interval)
    assert four == one


# -- the audit against its former construction ------------------------------------


def _ref_kernel_inside(kernel, cls, l):
    over = kernel.overlattice
    shell = Lattice.standard(over.ambient_dim).scaled(Fraction(1, l))
    return shell.contains_lattice(over) and (cls @ over.basis).is_integral()


def _ref_audit(pc, l):
    # audit_equivalence as it was before it read the kernels from corr^-1:
    # the correspondence homomorphism from decompose, which builds dual(B),
    # and the kernels of it and of its dual homomorphism
    mu = product_audit._slope_of(pc, l)
    if pc.a.g != pc.b.g:
        item = product_audit._item("equal_dimensions", pc.a.g, pc.b.g)
        return product_audit.AuditReport(pc.a.name, pc.b.name, l, (item,), False)
    if l > 1 and not is_ample(pc.block_b):
        raise PreconditionError("B-block not ample")
    g, prod, item = pc.a.g, mu.variety, product_audit._item
    items = []
    kern = slope_kernel(prod, mu)
    items.append(item("subtorus_kernel_order", l * l, kern.order))
    _, pi, _ = decompose(pc)
    if pi.is_isogeny():
        items.append(item("correspondence_degree", l ** (2 * g - 2), pi.degree()))
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
    sv = slope_subvariety(prod, mu)
    n_amb = 2 * prod.dim
    window = Lattice.standard(n_amb).scaled(Fraction(1, level))
    on_subtorus = product_audit.sublattice_where_integral(
        window, sv.annihilator_lattice.basis.inverse() @ sv.annihilator
    )
    generated = Lattice(
        n_amb, Mat.hstack(Fraction(1, level * l) * sv.embedding, Mat.identity(n_amb))
    ).intersect(window)
    items.append(
        product_audit.AuditItem(
            "subtorus_torsion_generated_by_tuples",
            on_subtorus == generated,
            f"tuple generation at level {level}",
            "equal" if on_subtorus == generated else "mismatch",
        )
    )
    return product_audit.AuditReport(
        pc.a.name, pc.b.name, l, tuple(items), all(i.passed for i in items)
    )


def _assert_audit_matches_reference(pc, l):
    assert audit_equivalence(pc, l) == _ref_audit(pc, l)


def test_poincare_audit_matches_the_reference():
    _assert_audit_matches_reference(poincare_class(), 1)


@pytest.mark.parametrize(
    "curve", (square_lattice_curve(), doubled_square_lattice_curve()), ids=("E_i", "E_2i")
)
@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize("bound", (1, 2))
def test_audits_of_every_search_hit_match_the_reference(curve, l, bound):
    hits = search_product_classes(curve, curve, l, bound, limit=SEARCH_CANDIDATE_CAP)
    assert hits
    for pc in hits:
        _assert_audit_matches_reference(pc, l)


@pytest.mark.parametrize(
    "curve", (square_lattice_curve(), doubled_square_lattice_curve()), ids=("E_i", "E_2i")
)
@pytest.mark.parametrize("l", (1, 2, 3))
def test_failing_correspondences_audit_as_the_reference(curve, l):
    # every class of the bound-1 box that meets the audit's preconditions and
    # whose correspondence is not an isogeny or has the wrong degree
    prod = product_audit._product_variety(curve, curve, curve.name, curve.name)
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
