import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmtori import corpus, oracles
from fmtori.corpus import (
    doubled_square_lattice_curve,
    square_curve_product,
    square_curve_product_principal,
    square_lattice_curve,
)
from fmtori.lattices import Lattice
from fmtori.matrices import Mat, integer_kernel, solve_exact, vec_is_integral
from fmtori.partners import homomorphism_space_basis
from fmtori.varieties import (
    Homomorphism,
    _is_positive_definite,
    _transport,
    coefficients_in_basis,
    generated_span_basis,
    integral_span_basis,
    NotAnIsogenyError,
    NSClass,
    TorusVariety,
    VarietyMismatchError,
    class_kernel,
    dual,
    image_under,
    is_isomorphism_certificate,
    ns_pullback,
    preimage_under,
    product,
    torsion_subgroup,
    trivial_subgroup,
    validate,
)


def test_validate_passes_on_good_curve(e_i, e_2i):
    assert validate(e_i).ok
    assert validate(e_2i).ok


def test_validate_reports_bad_complex_structure(e_i):
    bad = TorusVariety(1, Mat(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))),
                       e_i.ns_basis, e_i.polarization)
    report = validate(bad)
    assert not report.ok
    assert any("J^2" in f for f in report.failures)


@pytest.mark.parametrize("entries, failure", [
    ({(0, 0): 1}, "is not alternating"),  # and not J-compatible either
    ({(0, 2): 1, (2, 0): -1}, "is not J-compatible"),  # alternating
])
def test_validate_reports_one_failure_per_basis_class(e_i_squared, entries, failure):
    e = Mat([[entries.get((i, j), 0) for j in range(4)] for i in range(4)])
    basis = e_i_squared.ns_basis[:3] + (e,)
    report = validate(TorusVariety(2, e_i_squared.j, basis, e_i_squared.polarization))
    assert report.failures == (f"ns_basis[3] {failure}",)


def test_validate_reports_indefinite_polarization(e_i):
    flipped = TorusVariety(e_i.g, e_i.j, e_i.ns_basis, (-1,))
    report = validate(flipped)
    assert not report.ok


def test_dual_is_an_involution_on_curves(e_i, e_2i):
    for a in (e_i, e_2i):
        assert dual(dual(a)) == a


def test_double_dual_preserves_everything_but_basis_order(e_i_squared):
    # the transported ns basis is re-canonicalized, so compare content,
    # not enumeration order
    from fmtori.varieties import integral_span_basis

    dd = dual(dual(e_i_squared))
    assert dd.j == e_i_squared.j
    assert integral_span_basis(list(dd.ns_basis)) == integral_span_basis(
        list(e_i_squared.ns_basis)
    )
    assert dd.polarization_class() == e_i_squared.polarization_class()


def test_dual_transports_ns_rank(e_i_squared):
    assert len(dual(e_i_squared).ns_basis) == len(e_i_squared.ns_basis)


def test_class_arithmetic_guards(e_i, e_2i):
    with pytest.raises(VarietyMismatchError):
        e_i.ns_class((1,)) + e_2i.ns_class((1,))
    with pytest.raises(ValueError):
        NSClass(e_i, Mat(((0, 1), (1, 0))))  # not alternating


@given(st.integers(min_value=-6, max_value=6))
def test_polarization_multiples_degree_law(n):
    from fmtori.corpus import square_lattice_curve

    a = square_lattice_curve()
    cls = a.ns_class((n,))
    if n == 0:
        with pytest.raises(NotAnIsogenyError):
            class_kernel(cls)
        return
    kern = class_kernel(cls)
    assert cls.degree() == n * n
    assert kern.order == n * n
    pts = oracles.kernel_points_of_class(cls.e, abs(n))
    assert len(pts) == n * n


def test_homomorphism_requires_intertwining(e_i, e_2i):
    with pytest.raises(ValueError):
        Homomorphism(e_i, e_2i, Mat.identity(2))


def test_isogeny_degree_and_kernel(e_i):
    f = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    assert f.is_isogeny()
    assert f.degree() == 4
    kern = f.kernel()
    assert kern.divisors == (2, 2)
    assert oracles.same_point_sets(
        oracles.subgroup_points(kern), oracles.torsion_points(2, 2)
    )


def test_degree_and_kernel_of_non_isogenies(e_i, e_i_squared):
    zero = Homomorphism(e_i, e_i, Mat.zeros(2, 2))
    assert not zero.is_isogeny()
    with pytest.raises(NotAnIsogenyError, match="degree of a non-isogeny"):
        zero.degree()
    embed = Homomorphism(e_i, e_i_squared, Mat.vstack(Mat.identity(2), Mat.zeros(2, 2)))
    with pytest.raises(NotAnIsogenyError, match="degree of a non-isogeny"):
        embed.degree()
    with pytest.raises(NotAnIsogenyError, match="kernel of a degenerate class is not finite"):
        class_kernel(e_i_squared.ns_class((0,) * len(e_i_squared.ns_basis)))


def test_dual_hom_preserves_degree(e_i):
    f = Homomorphism(e_i, e_i, Mat(((1, -2), (2, 1))))  # 1 + 2i
    fd = f.dual_hom()
    assert fd.degree() == f.degree() == 5
    assert fd.source == dual(e_i)


def test_compose_and_inverse(e_i):
    two = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    rot = Homomorphism(e_i, e_i, e_i.ns_basis[0])
    assert rot.compose(rot).m == -Mat.identity(2)
    assert is_isomorphism_certificate(rot)
    assert rot.inverse().compose(rot).m == Mat.identity(2)
    with pytest.raises(ValueError):
        two.inverse()


def test_subgroup_operations(e_i):
    a4 = torsion_subgroup(e_i, 4)
    a2 = torsion_subgroup(e_i, 2)
    a3 = torsion_subgroup(e_i, 3)
    assert a4.contains(a2)
    assert a4.intersect(a3).order == 1
    assert a4.intersect(a2) == a2
    joined = a2.join(a3)
    assert joined.order == 36
    assert trivial_subgroup(e_i).order == 1


def test_image_and_preimage(e_i):
    double = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    a4 = torsion_subgroup(e_i, 4)
    img = image_under(double, a4)
    assert img == torsion_subgroup(e_i, 2)
    pre = preimage_under(double, torsion_subgroup(e_i, 2))
    assert pre == a4


def test_product_structure(e_i):
    p = product(e_i, e_i)
    assert p.variety.g == 2
    assert len(p.variety.ns_basis) == 4
    assert validate(p.variety).ok
    # projections and injections compose to the identity on each factor
    assert p.proj_a.compose(p.inj_a).m == Mat.identity(2)
    assert p.proj_b.compose(p.inj_b).m == Mat.identity(2)


def test_correspondence_classes_have_disjoint_support(e_i_squared):
    seen = set()
    for e in e_i_squared.ns_basis:
        support = {(i, j) for i in range(4) for j in range(4) if e[i, j]}
        assert not (support & seen)
        seen |= support


def test_pullback_matches_matrix_formula(e_i):
    f = Homomorphism(e_i, e_i, Mat(((1, -1), (1, 1))))
    cls = e_i.ns_class((1,))
    pulled = ns_pullback(f, cls)
    assert pulled.e == f.m.T @ cls.e @ f.m
    assert pulled.degree() == f.degree() ** 2 * cls.degree()


def test_kernel_of_pullback_contains_kernel_of_map(e_i):
    f = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    pulled = ns_pullback(f, e_i.ns_class((1,)))
    assert class_kernel(pulled).contains(f.kernel())


def _fixed_by_conjugation(a, b):
    """Integral c with J_A^T c J_B = c, the compatibility condition of a
    correspondence block, solved on matrix units without the intertwiner."""
    na, nb = a.dim, b.dim
    units = []
    for p in range(na):
        for q in range(nb):
            e = Mat([[int((i, j) == (p, q)) for j in range(nb)] for i in range(na)])
            units.append(tuple(x for row in (a.j.T @ e @ b.j - e).data for x in row))
    ker = integer_kernel(Mat.from_cols(units))
    return tuple(
        Mat([list(ker.col(k)[i * nb : (i + 1) * nb]) for i in range(na)])
        for k in range(ker.cols)
    )


def test_correspondence_blocks_are_homomorphisms_into_the_dual():
    shipped = [
        square_lattice_curve(),
        doubled_square_lattice_curve(),
        square_curve_product(),
        square_curve_product_principal(),
    ]
    shipped += [dual(v) for v in shipped]
    for a in shipped:
        for b in shipped:
            p = product(a, b).variety
            na, nb = a.dim, b.dim
            k = len(a.ns_basis) + len(b.ns_basis)
            blocks = tuple(e.submatrix(range(na), range(na, na + nb)) for e in p.ns_basis[k:])
            assert blocks == homomorphism_space_basis(b, dual(a))
            assert blocks == _fixed_by_conjugation(a, b)


# -- dual and the polarization class against their constructions by definition --


def _ref_dual(a, name=None):
    """The dual with the rational transport it replaced: the validated
    polarization class, its det, and h^-1 itself carrying the classes."""
    jd = -1 * a.j.T
    h = a.ns_class(a.polarization).e
    if h.det() == 0:
        raise ValueError("variety has a degenerate designated polarization")
    hi = h.inverse()
    ns_d = _ref_integral_span_basis([hi.T @ e @ hi for e in a.ns_basis])
    m0, _ = (-1 * hi).cleared()
    c = m0.content()
    hd = Mat([[x // c for x in row] for row in m0.data]) if c > 1 else m0
    if not _is_positive_definite(hd @ jd):
        hd = -1 * hd
    pol = _ref_coefficients_in_basis(hd, ns_d)
    return TorusVariety(a.g, jd, ns_d, pol, name if name is not None else a.name + "^")


def _dual_inputs(entries):
    for fname in corpus.shipped_names():
        doc = json.loads(corpus.corpus_text(fname))
        if doc["format"] == "fmtori/variety":
            a = corpus.variety_from_json(doc)
            yield a
            yield dual(a)
    for entry in entries:
        yield entry.record.partner
        yield entry.record.subvariety.variety


def test_dual_matches_rational_transport(partner_entries):
    inputs = list(_dual_inputs(partner_entries))
    assert len(inputs) == 8 + 160
    for v in inputs:
        got, want = dual(v), _ref_dual(v)
        assert got == want and got.name == want.name, v.name
        assert all(e.is_integral() for e in got.ns_basis)
        assert all(type(c) is int for c in got.polarization)


def test_polarization_class_is_the_validated_combination(partner_entries):
    for v in _dual_inputs(partner_entries):
        got = v.polarization_class()
        assert got == v.ns_class(v.polarization).e and got.is_integral()


def test_polarization_class_checks_the_coefficient_length(e_i):
    short = TorusVariety(e_i.g, e_i.j, e_i.ns_basis, (), "short")
    with pytest.raises(ValueError, match="coefficient vector length"):
        short.polarization_class()
    with pytest.raises(ValueError, match="coefficient vector length"):
        dual(short)


def test_dual_of_a_degenerate_polarization_raises(e_i_squared):
    # the first basis class is the lift of a curve class: degenerate
    flat = TorusVariety(e_i_squared.g, e_i_squared.j, e_i_squared.ns_basis, (1, 0, 0, 0), "flat")
    assert flat.polarization_class().det() == 0
    with pytest.raises(ValueError, match="degenerate designated polarization"):
        dual(flat)


# -- the span layer against the constructions on all n^2 entries --------------


def _flat(m):
    return tuple(x for row in m.data for x in row)


def _unflat(v, n):
    return Mat([list(v[i : i + n]) for i in range(0, len(v), n)])


def _ref_integral_span_basis(mats):
    """The saturated span on all n^2 entries: the integer kernel of the
    integer kernel of the flattened matrices."""
    nz = [m for m in mats if not m.is_zero()]
    if not nz:
        return ()
    n = nz[0].rows
    v = Mat.from_cols([_flat(m) for m in nz])
    y = integer_kernel(v.T)
    sol = Mat.identity(n * n) if y.cols == 0 else integer_kernel(y.T)
    return tuple(_unflat(sol.col(j), n) for j in range(sol.cols))


def _ref_generated_span_basis(mats):
    """The generated lattice on all n^2 entries."""
    nz = [m for m in mats if not m.is_zero()]
    if not nz:
        return ()
    n = nz[0].rows
    lat = Lattice(n * n, Mat.from_cols([_flat(m) for m in nz]))
    return tuple(_unflat(lat.basis.col(j), n) for j in range(lat.rank))


def _ref_coefficients_in_basis(target, basis):
    """Coordinates by one exact solve on all n^2 entries."""
    x = solve_exact(Mat.from_cols([_flat(m) for m in basis]), _flat(target))
    if x is None or not vec_is_integral(x):
        raise ValueError("matrix is not an integer combination of the basis")
    return x


def _assert_same_mats(got, want):
    assert got == want
    assert [(m.rows, m.cols, m.data) for m in got] == [(m.rows, m.cols, m.data) for m in want]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _assert_span_layer_matches(mats, targets=()):
    """Both span bases, and the coordinates of each target in each, equal
    the n^2 constructions' exactly (a failed solve on both sides alike)."""
    for new, ref in (
        (integral_span_basis, _ref_integral_span_basis),
        (generated_span_basis, _ref_generated_span_basis),
    ):
        got, want = new(mats), ref(mats)
        _assert_same_mats(got, want)
        if not want:
            continue
        for target in targets:
            x = _outcome(coefficients_in_basis, target, got)
            assert x == _outcome(_ref_coefficients_in_basis, target, want)
            assert type(x) is str or all(type(c) is int for c in x)


def _alternating(n, upper):
    """The alternating n x n matrix with the given entries above the
    diagonal, row by row."""
    rows = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(it)
            rows[j][i] = -rows[i][j]
    return Mat(rows)


def test_span_layer_matches_on_the_dual_inputs(partner_entries):
    inputs = list(_dual_inputs(partner_entries))
    assert len(inputs) == 168
    for v in inputs:
        hi = v.polarization_class().inverse()
        hi_int, _ = hi.cleared()
        for t in (hi, hi_int):
            classes = [t.T @ e @ t for e in v.ns_basis]
            _assert_span_layer_matches(classes, [-1 * hi_int, hi_int, classes[0]])
        _assert_span_layer_matches(list(v.ns_basis), [v.polarization_class()])


def test_span_layer_matches_on_the_enumeration_restrictions(partner_entries):
    assert len(partner_entries) == 80
    for entry in partner_entries:
        sv = entry.record.subvariety
        t = sv.to_ambient.m
        restricted = [t.T @ e @ t for e in sv.ambient.ns_basis]
        pol_r = t.T @ sv.ambient.polarization_class() @ t
        _assert_span_layer_matches(restricted, [pol_r])


@st.composite
def _alternating_families(draw):
    """Integer alternating n x n families with zero members, duplicates,
    sums (rank-deficient families) and k-multiples (non-saturated
    generated lattices), and targets in and out of their span."""
    n = draw(st.sampled_from((2, 4, 6)))
    m = n * (n - 1) // 2
    fresh = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    family = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("fresh", "zero", "duplicate", "sum", "multiple")))
        if kind == "fresh" or (kind != "zero" and not family):
            family.append(_alternating(n, draw(fresh)))
        elif kind == "zero":
            family.append(Mat.zeros(n, n))
        elif kind == "duplicate":
            family.append(draw(st.sampled_from(family)))
        elif kind == "sum":
            family.append(draw(st.sampled_from(family)) + draw(st.sampled_from(family)))
        else:
            family.append(draw(st.integers(2, 5)) * draw(st.sampled_from(family)))
    targets = [_alternating(n, draw(fresh))]
    if family:
        acc = Mat.zeros(n, n)
        for e in family:
            acc = acc + draw(st.integers(-3, 3)) * e
        targets += [acc, Fraction(1, draw(st.integers(2, 4))) * acc]
    return family, targets


@given(_alternating_families())
def test_span_layer_matches_on_alternating_families(case):
    family, targets = case
    _assert_span_layer_matches(family, targets)


@given(st.data())
def test_minor_transport_is_the_congruence(data):
    n = data.draw(st.sampled_from((2, 4, 6, 8)))
    k = data.draw(st.integers(1, n))
    big = st.integers(-(2**40), 2**40)
    rational = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    entries = data.draw(st.sampled_from((big, rational)))
    t = Mat(data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)))
    m = n * (n - 1) // 2
    # dense forms, and the zero-biased ones the transport skips through: all
    # zero, or a single nonzero coordinate, which later forms may share
    dense = st.lists(big, min_size=m, max_size=m)
    single = st.tuples(st.integers(0, m - 1), big.filter(bool)).map(
        lambda c: [c[1] if i == c[0] else 0 for i in range(m)]
    )
    forms = data.draw(
        st.lists(st.one_of(dense, st.just([0] * m), single), min_size=1, max_size=4)
    )
    want = []
    for upper in forms:
        c = (t.T @ _alternating(n, upper) @ t).data
        want.append(tuple(c[p][q] for p in range(k) for q in range(p + 1, k)))
    assert _transport([tuple(f) for f in forms], t) == want


def _with_entry(m, i, j, x):
    rows = [list(r) for r in m.data]
    rows[i][j] += x
    return Mat(rows)


def test_coefficients_reject_non_alternating_matrices(e_i_squared):
    basis = e_i_squared.ns_basis
    good = basis[0] + basis[2]
    assert coefficients_in_basis(good, basis) == (1, 0, 1, 0)
    # the same entries above the diagonal as good, mirrored without the sign
    symmetric = Mat([[good[min(i, j), max(i, j)] for j in range(4)] for i in range(4)])
    lower_only = (_with_entry(basis[0], 1, 0, 1),) + basis[1:]
    assert lower_only[0][0, 1] == basis[0][0, 1]
    for target, b in (
        (symmetric, basis),
        (_with_entry(good, 0, 0, 1), basis),
        (good, lower_only),
    ):
        with pytest.raises(ValueError, match="matrix is not an integer combination of the basis"):
            coefficients_in_basis(target, b)
        with pytest.raises(ValueError, match="matrix is not an integer combination of the basis"):
            _ref_coefficients_in_basis(target, b)


def test_span_bases_reject_non_alternating_matrices(e_i_squared):
    for f in (integral_span_basis, generated_span_basis):
        with pytest.raises(ValueError, match="alternating"):
            f([e_i_squared.ns_basis[0], Mat.identity(4)])


def _shipped_varieties_and_duals():
    for fname in corpus.shipped_names():
        doc = json.loads(corpus.corpus_text(fname))
        if doc["format"] == "fmtori/variety":
            a = corpus.variety_from_json(doc)
            yield from (a, dual(a))


def test_ns_class_is_the_mat_sum_of_the_basis():
    for v in _shipped_varieties_and_duals():
        bound = 2 if len(v.ns_basis) <= 2 else 1
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(v.ns_basis)):
            acc = Mat.zeros(v.dim, v.dim)
            for c, e in zip(coeffs, v.ns_basis):
                if c:
                    acc = acc + c * e
            assert v.ns_class(coeffs).e == acc, (v.name, coeffs)


def test_subgroup_structure_is_computed_on_first_use(e_i, e_i_squared):
    from fmtori.lattices import quotient_structure
    from fmtori.product_audit import kernel_torsion_subgroup
    from fmtori.slopes import reduce_slope, slope_kernel

    double = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    c = e_i_squared.ns_class((1, 2, 0, 1))
    subgroups = [
        torsion_subgroup(e_i, 6),
        image_under(double, torsion_subgroup(e_i, 4)),
        preimage_under(double, torsion_subgroup(e_i, 3)),
        torsion_subgroup(e_i, 4).intersect(torsion_subgroup(e_i, 6)),
        torsion_subgroup(e_i, 2).join(torsion_subgroup(e_i, 3)),
        double.kernel(),
        class_kernel(c),
        class_kernel(2 * c).intersect(torsion_subgroup(e_i_squared, 4)),
        kernel_torsion_subgroup(e_i_squared, c, 3),
        slope_kernel(e_i_squared, reduce_slope(c, 2)),
    ]
    for sub in subgroups:
        assert "structure" not in vars(sub)
        std = Lattice.standard(sub.variety.dim)
        assert sub.structure == quotient_structure(std, sub.overlattice)
        assert sub.structure is sub.structure
