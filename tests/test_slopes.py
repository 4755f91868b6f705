from math import gcd

import pytest
from conftest import SHIPPED_VARIETIES, clear_caches, entry_slope, kernel_by_inverse, mat_sum
from hypothesis import given
from hypothesis import strategies as st

from fmtori import corpus, partners
from fmtori.lattices import Lattice, saturate
from fmtori.matrices import Mat
from fmtori.slopes import (
    Slope,
    _member_data,
    _restriction,
    member_lattice,
    parse_slope_literal,
    projection_invariants,
    reduce_slope,
    slope_kernel,
    slope_subvariety,
)
from fmtori.varieties import (
    FiniteSubgroup,
    Homomorphism,
    NSClass,
    PreconditionError,
    TorusVariety,
    _compatible_forms,
    _from_upper,
    _span,
    _transport,
    _upper,
    class_kernel,
    dual,
    product,
    torsion_subgroup,
    validate,
)
from test_varieties import _ref_coefficients_in_basis, _ref_generated_span_basis


def test_slope_is_reduced_by_construction(e_i):
    with pytest.raises(ValueError):
        Slope(e_i.ns_class((2,)), 2)
    with pytest.raises(ValueError):
        Slope(e_i.ns_class((1,)), 0)


def test_reduce_slope_divides_out_gcd(e_i):
    mu = reduce_slope(e_i.ns_class((4,)), 6)
    assert mu.l == 3
    assert mu.numerator.e == 2 * e_i.ns_basis[0]
    zero = reduce_slope(e_i.ns_class((0,)), 5)
    assert zero.l == 1 and zero.numerator.e == Mat.zeros(2, 2)


def test_member_lattice_unimodular_numerator(e_i):
    # reduced slope with unimodular numerator: members are just the lattice
    mu = Slope(e_i.ns_class((1,)), 4)
    assert member_lattice(mu) == Lattice.standard(2)
    assert slope_kernel(mu).order == 1


def test_slope_kernel_is_torsion_meet_class_kernel(e_i_squared):
    # two-route identity on a denominator-2 slope of the product
    mu = reduce_slope(e_i_squared.ns_class((1, 1, 0, 0)), 2)
    kern = slope_kernel(mu)
    other = FiniteSubgroup(
        e_i_squared,
        torsion_subgroup(e_i_squared, 2).overlattice.intersect(
            class_kernel(mu.numerator).overlattice
        ),
    )
    assert kern == other


def test_subvariety_is_valid_and_embeds_primitively(e_i):
    mu = Slope(e_i.ns_class((1,)), 5)
    sv = slope_subvariety(mu)
    assert validate(sv.variety).ok
    # quotient then projection is multiplication by l on the source
    comp = sv.projection.compose(sv.quotient)
    assert comp.m == 5 * Mat.identity(2)


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4))
def test_projection_invariants_square_law(n, l):
    from fmtori.corpus import square_lattice_curve

    a = square_lattice_curve()
    num = a.ns_class((n,))
    if gcd(num.e.content(), l) != 1:
        return
    inv = projection_invariants(Slope(num, l))
    assert inv.degree == inv.rank**2
    assert inv.stabilizer.order == inv.degree
    if abs(n) == 1:
        assert inv.rank == l


def test_translation_invariance_of_invariants(e_i):
    # shifting the numerator by l times an integral class changes nothing
    mu = Slope(e_i.ns_class((1,)), 3)
    shifted = reduce_slope(e_i.ns_class((1 + 3 * 2,)), 3)
    a, b = projection_invariants(mu), projection_invariants(shifted)
    assert (a.degree, a.rank) == (b.degree, b.rank)
    assert slope_kernel(mu).order == slope_kernel(shifted).order


def test_projection_invariants_read_the_stabilizer_without_a_determinant(
    e_i, e_2i, e_i_squared, cold_caches, monkeypatch
):
    # the degree is the product of the Hermite diagonal of pi, and it bounds
    # the denominators of the kernel pi^-1 Z^n, so no determinant is taken
    dets = []
    det = Mat.det
    monkeypatch.setattr(Mat, "det", lambda m: dets.append(m) or det(m))
    classes = [(e_i, (1,)), (e_i, (3,)), (e_2i, (1,)), (e_2i, (2,))]
    classes += [(e_i_squared, c) for c in ((1, 1, 0, 0), (1, 0, 0, 0), (1, 2, 1, -1))]
    for a, coeffs in classes:
        for l in (1, 2, 3):
            mu = reduce_slope(a.ns_class(coeffs), l)
            dets.clear()
            inv = projection_invariants(mu)
            assert dets == [], (a.name, coeffs, l)
            pi = slope_subvariety(mu).projection.m
            assert inv.stabilizer.overlattice == kernel_by_inverse(pi)
            assert inv.stabilizer.order == inv.degree == abs(det(pi))


def test_degenerate_numerator_on_product(e_i_squared):
    # lift of a curve class is degenerate on the surface but still slopes
    mu = reduce_slope(e_i_squared.ns_class((1, 0, 0, 0)), 2)
    kern = slope_kernel(mu)
    assert kern.order == 4
    sv = slope_subvariety(mu)
    assert validate(sv.variety).ok


def test_literal_parsing(e_i, e_i_squared):
    cls, l = parse_slope_literal(e_i, "1*E0/2")
    assert l == 2 and cls.e == e_i.ns_basis[0]
    cls, l = parse_slope_literal(e_i, "E0")
    assert l == 1 and cls.e == e_i.ns_basis[0]
    cls, l = parse_slope_literal(e_i_squared, "2*E0-E2+1*E3/3")
    assert l == 3
    basis = e_i_squared.ns_basis
    expected = mat_sum(mat_sum(2 * basis[0], (-1) * basis[2]), basis[3])
    assert cls.e == expected


def test_literal_rejections(e_i):
    for bad in ("", "E9", "1*E0/0", "1*E0/-2", "q*E0", "1*E0//2"):
        with pytest.raises(ValueError):
            parse_slope_literal(e_i, bad)


def test_slope_results_live_on_the_slopes_variety(e_i, e_2i, e_i_squared):
    # every result is read off mu.variety, its name included, also for a
    # presentation equal to E_i under another name
    renamed = TorusVariety(e_i.g, e_i.j, e_i.ns_basis, e_i.polarization, name="X")
    for a in (e_i, e_2i, e_i_squared, renamed):
        mu = reduce_slope(a.ns_class((1,) + (0,) * (len(a.ns_basis) - 1)), 2)
        assert mu.variety is a
        assert slope_kernel(mu).variety is a
        sv = slope_subvariety(mu)
        assert (sv.variety.name, sv.to_ambient.target.name) == (
            f"{a.name}_mu", f"{a.name}x{a.name}^")
        assert sv.quotient.source is a and sv.projection.target is a
        stabilizer = projection_invariants(mu).stabilizer
        assert stabilizer.variety.name == f"{a.name}_mu"
        assert stabilizer.variety.j == sv.variety.j
        rec = next(e.record for e in partners.enumerate_partners(a, 1, 2) if entry_slope(a, e) == mu)
        assert rec.dual_certificate.target == sv.variety
        assert (rec.dual_certificate.target.name, rec.partner.name) == (
            f"{a.name}_mu", f"{a.name}_partner")


SHIPPED = list(SHIPPED_VARIETIES.values())


@given(st.data(), st.integers(min_value=1, max_value=6))
def test_reduced_slopes_pass_the_public_constructor(data, l):
    # reduce_slope builds its result unchecked; the checks it skips pass
    a = data.draw(st.sampled_from(SHIPPED))
    rank = len(a.ns_basis)
    coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    cls = a.ns_class(coeffs)
    mu = reduce_slope(cls, l)
    mu.__post_init__()
    mu.numerator.__post_init__()
    public = Slope(NSClass(a, Mat(mu.numerator.e.data)), mu.l)
    assert public == mu and hash(public) == hash(mu)
    # the same fraction: e / l == e' / l'
    assert mu.l * cls.e == l * mu.numerator.e


def test_nonpositive_denominators_are_precondition_errors(e_i):
    cls = e_i.ns_class((1,))
    for l in (0, -2):
        with pytest.raises(PreconditionError):
            Slope(cls, l)
        with pytest.raises(PreconditionError):
            reduce_slope(cls, l)
        with pytest.raises(PreconditionError):
            torsion_subgroup(e_i, l)


# -- the subvariety against its construction by definition ------------------------


def _ref_slope_subvariety(a, mu):
    """Every field of slope_subvariety by the construction it replaced: a
    freshly built ambient product, primitivity through saturate, every class
    restricted by matrix products and the validated ambient polarization."""
    n = a.dim
    amb = product(a, dual(a), name=f"{a.name}x{a.name}^").variety
    lam_mu = member_lattice(mu)
    h = lam_mu.basis
    emb = Mat.vstack(mu.l * Mat.identity(n), mu.numerator.e)
    emb_h = emb @ h
    assert emb_h.is_integral()
    image = Lattice(emb_h)
    assert saturate(image, Lattice.standard(2 * n)) == image
    j_mu = h.inverse() @ a.j @ h
    ns_mu = _ref_generated_span_basis([emb_h.T @ e @ emb_h for e in amb.ns_basis])
    pol_r = emb_h.T @ amb.ns_class(amb.polarization).e @ emb_h
    pol = _ref_coefficients_in_basis(pol_r, ns_mu)
    abstract = TorusVariety(a.g, j_mu, ns_mu, pol, name=f"{a.name}_mu")
    return {
        "embedding": emb,
        "variety": abstract,
        "to_ambient": Homomorphism(abstract, amb, emb_h),
        "quotient": Homomorphism(a, abstract, h.inverse()),
        "projection": Homomorphism(abstract, a, mu.l * h),
    }


def _assert_matches_reference(sv, a, mu):
    ref = _ref_slope_subvariety(a, mu)
    for name, want in ref.items():
        assert getattr(sv, name) == want, name
    assert sv.variety.name == ref["variety"].name
    assert sv.to_ambient.target.name == ref["to_ambient"].target.name
    assert all(e.is_integral() for e in sv.variety.ns_basis)
    assert all(type(c) is int for c in sv.variety.polarization)


def _corpus_slopes():
    for a in SHIPPED:
        for coeffs in partners._normalized_coefficient_vectors(len(a.ns_basis), 1):
            for l in (1, 2, 3):
                yield a, reduce_slope(a.ns_class(coeffs), l)


def test_subvariety_matches_reference_on_the_enumeration_slopes(partner_entries):
    assert len(partner_entries) == 80
    source = corpus.square_curve_product()
    for entry in partner_entries:
        mu = entry_slope(source, entry)
        sv = slope_subvariety(mu)
        assert sv.variety == entry.record.dual_certificate.target
        _assert_matches_reference(sv, source, mu)


def test_subvariety_matches_reference_on_corpus_slopes():
    cases = list(_corpus_slopes())
    assert len(cases) >= 120
    for a, mu in cases:
        _assert_matches_reference(slope_subvariety(mu), a, mu)


# -- the shared subtorus and dual NS lattices against per-slope construction -------


def _index_two(p):
    """E_i x E_i with its second class doubled: valid, and its NS lattice has
    index 2 in the full one, so its slopes restrict every class."""
    e0, e1, *rest = p.ns_basis
    return TorusVariety(p.g, p.j, (e0, mat_sum(e1, e1), *rest), (1, 1, 0, 0), name="index2")


def _rank_two(p):
    """E_i x E_i with its two factor classes only: valid, of NS rank 2 < g^2."""
    return TorusVariety(p.g, p.j, p.ns_basis[:2], (1, 1), name="rank2")


def _distinct_slopes(a, coeff_bound, denom_bound):
    """Every distinct reduced slope of a over the bounded box."""
    slopes = {}
    for l in range(1, denom_bound + 1):
        for coeffs in partners._normalized_coefficient_vectors(len(a.ns_basis), coeff_bound):
            mu = reduce_slope(a.ns_class(coeffs), l)
            slopes.setdefault((mu.numerator.e, mu.l), mu)
    return list(slopes.values())


def _per_slope_ns_basis(a, mu):
    """mu's subtorus NS basis restricted for mu alone: every class of a
    freshly built ambient product along mu's own embedding, and the lattice
    they generate."""
    amb = product(a, dual(a)).variety
    emb_h = Mat.vstack(mu.l * Mat.identity(a.dim), mu.numerator.e) @ member_lattice(mu).basis
    basis = _span(_transport([_upper(e) for e in amb.ns_basis], emb_h), saturated=False)
    return tuple(_from_upper(v, a.dim) for v in basis)


def _saturated_dual_ns_basis(b):
    """The dual NS basis by transport and saturation, for any presentation."""
    hi, _ = b.polarization_class().inverse().cleared()
    basis = _span(_transport([_upper(e) for e in b.ns_basis], hi), saturated=True)
    return tuple(_from_upper(v, b.dim) for v in basis)


def _subtori_and_duals(slopes):
    """(subtorus, dual) of every slope, in the order given."""
    out = []
    for mu in slopes:
        sub = slope_subvariety(mu).variety
        out.append((sub, dual(sub)))
    return out


def _assert_shared_ns_is_per_slope(a, coeff_bound, denom_bound):
    """Every slope's subtorus NS basis is its own per-slope restriction,
    every dual's is the saturated transport; returns the distinct per-slope
    bases of each member-data key (a, e mod l, l)."""
    assert dual(a).ns_basis == _saturated_dual_ns_basis(a)
    bases = {}
    slopes = _distinct_slopes(a, coeff_bound, denom_bound)
    for mu, (sub, d) in zip(slopes, _subtori_and_duals(slopes)):
        want = _per_slope_ns_basis(a, mu)
        assert sub.ns_basis == want
        assert d.ns_basis == _saturated_dual_ns_basis(sub)
        key = (tuple(tuple(x % mu.l for x in row) for row in mu.numerator.e.num), mu.l)
        bases.setdefault(key, set()).add(want)
    return bases


@pytest.mark.parametrize("name, bounds", (
    ("e_i_squared", (2, 3)), ("e_i", (4, 6)), ("e_2i", (4, 6)),
))
def test_full_ns_lattices_share_the_per_slope_bases(name, bounds, request):
    a = request.getfixturevalue(name)
    assert _restriction(a)[1]
    _assert_shared_ns_is_per_slope(a, *bounds)


@pytest.mark.parametrize(
    "build, bounds", ((_index_two, (1, 3)), (_rank_two, (2, 4))), ids=("index2", "rank2")
)
def test_partial_ns_lattices_restrict_per_slope(build, bounds, e_i_squared):
    # a key holds slopes with distinct per-slope NS bases on these
    # presentations (up to 3 on index2, 2 on rank2), so a sharing that
    # ignored the full-lattice condition would give one slope another's
    a = build(e_i_squared)
    assert validate(a).ok and not _restriction(a)[1]
    bases = _assert_shared_ns_is_per_slope(a, *bounds)
    assert max(len(b) for b in bases.values()) > 1


def test_shared_ns_lattices_do_not_depend_on_the_caches(e_i_squared):
    # the first slope of each key fills its slot; from cold caches in
    # reverse order another slope comes first, and every answer, names
    # included, is still the warm one
    cases = [(a, _distinct_slopes(a, 1, 3)) for a in (e_i_squared, _index_two(e_i_squared))]
    shared = (_restriction, _member_data, _compatible_forms)
    clear_caches()
    assert all(f.cache_info().currsize == 0 for f in shared)
    cold = [_subtori_and_duals(slopes) for _, slopes in cases]
    assert all(f.cache_info().currsize > 0 for f in shared)
    warm = [_subtori_and_duals(slopes) for _, slopes in cases]
    clear_caches()
    backwards = [_subtori_and_duals(slopes[::-1])[::-1] for _, slopes in cases]
    for got in (warm, backwards):
        assert got == cold
        assert [[(s.name, d.name) for s, d in run] for run in got] == [
            [(s.name, d.name) for s, d in run] for run in cold
        ]
