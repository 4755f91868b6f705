import itertools
import random
from fractions import Fraction

import pytest
from conftest import (
    SHIPPED_VARIETIES,
    entry_slope,
    kernel_by_inverse,
    mat_sum,
    quotient_by_inverse,
)
from hypothesis import example, given
from hypothesis import strategies as st

from fmtori import matrices, oracles
from fmtori.corpus import square_curve_product, square_lattice_curve
from fmtori.lattices import Lattice, quotient_structure
from fmtori.matrices import Mat, integer_kernel, solve_exact, vec_is_integral
from fmtori.slopes import slope_subvariety
from fmtori.varieties import (
    FiniteSubgroup,
    Homomorphism,
    _from_upper,
    _hermite_coordinates,
    _is_positive_definite,
    _span,
    _transport,
    _upper,
    coefficients_in_basis,
    intertwiner_basis,
    NotAnIsogenyError,
    NSClass,
    TorusVariety,
    class_kernel,
    dual,
    is_isomorphism_certificate,
    ns_pullback,
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
    assert validate(bad).failures == ("J^2 differs from -I",)


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
    # up to the name, which is part of a variety's identity: dual appends "^"
    for a in (e_i, e_2i):
        assert dual(dual(a)).name == a.name + "^^"
        assert dual(dual(a), name=a.name) == a


def test_double_dual_preserves_everything_but_basis_order(e_i_squared):
    # the transported ns basis is re-canonicalized, so compare content,
    # not enumeration order
    dd = dual(dual(e_i_squared))
    assert dd.j == e_i_squared.j
    assert _ref_integral_span_basis(list(dd.ns_basis)) == _ref_integral_span_basis(
        list(e_i_squared.ns_basis)
    )
    assert dd.polarization_class() == e_i_squared.polarization_class()


def test_dual_transports_ns_rank(e_i_squared):
    assert len(dual(e_i_squared).ns_basis) == len(e_i_squared.ns_basis)


def test_class_arithmetic_guards(e_i):
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
    # the degree of an isogeny f is abs(f.m.det())
    assert abs(f.m.det()) == 4
    kern = f.kernel()
    assert kern.divisors == (2, 2)
    assert oracles.same_point_sets(
        oracles.subgroup_points(kern), oracles.torsion_points(2, 2)
    )


def test_degree_and_kernel_of_non_isogenies(e_i, e_i_squared):
    zero = Homomorphism(e_i, e_i, Mat.zeros(2, 2))
    assert zero.m.det() == 0
    embed = Homomorphism(e_i, e_i_squared, Mat.vstack(Mat.identity(2), Mat.zeros(2, 2)))
    assert not embed.m.is_square
    for f in (zero, embed):
        with pytest.raises(NotAnIsogenyError, match="kernel of a non-isogeny is not finite"):
            f.kernel()
    for coeffs in ((0, 0, 0, 0), (1, 0, 0, 0)):
        with pytest.raises(NotAnIsogenyError, match="kernel of a degenerate class is not finite"):
            class_kernel(e_i_squared.ns_class(coeffs))


KERNEL_VARIETIES = (square_lattice_curve(), SHIPPED_VARIETIES["e_2i.json"], square_curve_product())


@given(data=st.data())
def test_class_kernel_matches_the_inverse_route(data):
    a = data.draw(st.sampled_from(KERNEL_VARIETIES))
    coeffs = data.draw(st.tuples(*[st.integers(-4, 4)] * len(a.ns_basis)))
    c = a.ns_class(coeffs)
    if c.e.det() == 0:
        with pytest.raises(NotAnIsogenyError, match="kernel of a degenerate class is not finite"):
            class_kernel(c)
        return
    kern = class_kernel(c)
    assert kern.overlattice == kernel_by_inverse(c.e)
    assert kern.structure == quotient_structure(kern.overlattice)


@given(st.tuples(*[st.integers(-2, 2)] * 8))
def test_isogeny_kernel_matches_the_inverse_route(coeffs):
    p = square_curve_product()
    basis = intertwiner_basis(p.j, p.j)
    assert len(basis) == len(coeffs)
    m = Mat.zeros(4, 4)
    for k, b in zip(coeffs, basis):
        m = mat_sum(m, k * b)
    f = Homomorphism(p, p, m)
    if m.det() == 0:
        with pytest.raises(NotAnIsogenyError, match="kernel of a non-isogeny is not finite"):
            f.kernel()
        return
    kern = f.kernel()
    assert "structure" not in vars(kern)
    assert kern.overlattice == kernel_by_inverse(m)
    assert kern.order == abs(m.det())


@pytest.mark.parametrize("which", ("class_kernel", "Homomorphism.kernel"))
def test_kernels_take_no_inverse_and_no_hermite_pass(
    e_i_squared, cold_caches, count_calls, monkeypatch, which
):
    c = e_i_squared.ns_class((2, 4, 1, 0))
    f = Homomorphism(e_i_squared, e_i_squared, mat_sum(e_i_squared.j, Mat.identity(4)))
    assert c.e.det() != 0 and f.m.det() != 0
    counts = {"inverse": 0, "lattice": 0}
    for cls, name, key in ((Mat, "inverse", "inverse"), (Lattice, "__init__", "lattice")):

        def counted(*args, original=getattr(cls, name), key=key):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, counted)
    hermite = count_calls(matrices, "hnf_columns")
    kern = class_kernel(c) if which == "class_kernel" else f.kernel()
    assert counts == {"inverse": 0, "lattice": 0} and hermite == []
    # the isogeny kernel's structure is the lattice quotient, read here
    assert kern.order > 1


def test_dual_hom_preserves_degree(e_i):
    f = Homomorphism(e_i, e_i, Mat(((1, -2), (2, 1))))  # 1 + 2i
    fd = f.dual_hom()
    assert abs(fd.m.det()) == abs(f.m.det()) == 5
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
    # meets and joins of subgroups are those of their overlattices
    a4, a2, a3 = (torsion_subgroup(e_i, n).overlattice for n in (4, 2, 3))
    assert a4.sum(a2) == a4
    assert FiniteSubgroup(e_i, a4.intersect(a3)).order == 1
    assert FiniteSubgroup(e_i, a4.intersect(a2)) == torsion_subgroup(e_i, 2)
    assert FiniteSubgroup(e_i, a2.sum(a3)).order == 36
    assert trivial_subgroup(e_i).order == 1


def _image_under(f, s):
    # the README recipe for the removed image_under
    return FiniteSubgroup(f.target, Lattice(f.m @ s.overlattice.basis).sum(Lattice.standard(f.target.dim)))


def test_image_under_a_doubling(e_i):
    double = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    img = _image_under(double, torsion_subgroup(e_i, 4))
    assert img == torsion_subgroup(e_i, 2)


def test_product_structure(e_i):
    p = product(e_i, e_i)
    assert p.variety.g == 2
    assert len(p.variety.ns_basis) == 4
    assert validate(p.variety).ok


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
    assert pulled.degree() == abs(f.m.det()) ** 2 * cls.degree()


def test_kernel_of_pullback_contains_kernel_of_map(e_i):
    f = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    pulled = ns_pullback(f, e_i.ns_class((1,)))
    over = class_kernel(pulled).overlattice
    assert over.sum(f.kernel().overlattice) == over


def _fixed_by_conjugation(a, b):
    """Integral c with J_A^T c J_B = c, the compatibility condition of a
    correspondence block, solved on matrix units without the intertwiner."""
    na, nb = a.dim, b.dim
    units = []
    for p in range(na):
        for q in range(nb):
            e = Mat([[int((i, j) == (p, q)) for j in range(nb)] for i in range(na)])
            units.append(tuple(x for row in mat_sum(a.j.T @ e @ b.j, (-1) * e).data for x in row))
    ker = integer_kernel(Mat.from_cols(units))
    return tuple(
        Mat([list(ker.T.data[k][i * nb : (i + 1) * nb]) for i in range(na)])
        for k in range(ker.cols)
    )


def _ref_intertwiner_basis(j_src, j_dst):
    """intertwiner_basis as it was built on matrix units, one Mat and two
    products per unit."""
    rows, cols = j_dst.rows, j_src.rows
    units = []
    for p in range(rows):
        for q in range(cols):
            e_pq = Mat([[int((i, j) == (p, q)) for j in range(cols)] for i in range(rows)])
            unit = mat_sum(e_pq @ j_src, (-1) * j_dst @ e_pq)
            units.append(tuple(x for row in unit.data for x in row))
    ker = integer_kernel(Mat.from_cols(units))
    return tuple(
        Mat([list(ker.T.data[k][i : i + cols]) for i in range(0, rows * cols, cols)])
        for k in range(ker.cols)
    )


def _shipped_and_duals():
    shipped = [
        square_lattice_curve(),
        SHIPPED_VARIETIES["e_2i.json"],
        square_curve_product(),
        SHIPPED_VARIETIES["e_i_x_e_i_ppav.json"],
    ]
    return shipped + [dual(v) for v in shipped]


def test_intertwiner_basis_matches_the_unit_matrix_reference():
    # square and non-square (2x2 against 4x4), integral and rational J
    js = [s * v.j for v in _shipped_and_duals() for s in (1, -1)]
    assert len(js) == 16
    for j_src in js:
        for j_dst in js:
            assert intertwiner_basis(j_src, j_dst) == _ref_intertwiner_basis(j_src, j_dst)


def _invertible(draw, n):
    while True:
        p = Mat([[Fraction(draw.randint(-3, 3), draw.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)])
        if p.det() != 0:
            return p


def test_intertwiner_basis_on_rational_conjugates_matches_the_reference():
    # P J P^-1 squares to -I for any invertible rational P, so the conjugates
    # are complex structures with denominators the shipped ones lack
    draw = random.Random(1729)
    base = {2: [square_lattice_curve().j, SHIPPED_VARIETIES["e_2i.json"].j],
            4: [square_curve_product().j, SHIPPED_VARIETIES["e_i_x_e_i_ppav.json"].j]}
    for _ in range(12):
        js = []
        for n, choices in base.items():
            p = _invertible(draw, n)
            js.append(p @ draw.choice(choices) @ p.inverse())
        assert any(not j.is_integral() for j in js)
        for j_src in js:
            for j_dst in js:
                assert intertwiner_basis(j_src, j_dst) == _ref_intertwiner_basis(j_src, j_dst)


def test_correspondence_blocks_are_homomorphisms_into_the_dual():
    shipped = _shipped_and_duals()
    for a in shipped:
        for b in shipped:
            p = product(a, b).variety
            na, nb = a.dim, b.dim
            k = len(a.ns_basis) + len(b.ns_basis)
            blocks = tuple(e.submatrix(range(na), range(na, na + nb)) for e in p.ns_basis[k:])
            assert blocks == intertwiner_basis(b.j, dual(a).j)
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
    for a in SHIPPED_VARIETIES.values():
        yield a
        yield dual(a)
    for entry in entries:
        yield entry.record.partner
        yield entry.record.dual_certificate.target


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


# combination maps built in each workload's timed call, with every cache
# empty as in a fresh process: one per variety whose classes are
# combined, plus the correspondence and certificate combinations (regress
# took 19 and search_l2 4 while the gate ran its dual-partner search once
# per instance and the graph comparison built the dual product)
COMBINATION_MAPS = {"regress": 17, "partners": 66, "search_l2": 3, "kernel_search": 0}


@pytest.mark.parametrize("name", sorted(COMBINATION_MAPS))
def test_timed_calls_flatten_each_ns_basis_once(bench_modules, cold_caches, count_calls, name):
    _, workloads = bench_modules
    inputs = workloads.BUILD[name](0)
    maps = count_calls(matrices, "combination_map")
    workloads.RUN[name](inputs)
    assert len(maps) == COMBINATION_MAPS[name]


def test_polarization_class_checks_the_coefficient_length(e_i):
    short = TorusVariety(e_i.g, e_i.j, e_i.ns_basis, (), "short")
    with pytest.raises(ValueError, match="coefficient vector length"):
        short.polarization_class()
    with pytest.raises(ValueError, match="coefficient vector length"):
        dual(short)


@pytest.mark.parametrize("c", (Fraction(1, 2), Fraction(1), 0.5, True), ids=repr)
def test_ns_class_takes_integer_coefficients_only(e_i, c):
    # a Fraction coefficient once gave a class of "degree" 1 for a form of
    # determinant 1/4; bools are rejected as the corpus loader rejects them
    with pytest.raises(ValueError, match="class coefficients must be integers"):
        e_i.ns_class((c,))


@pytest.mark.parametrize("c", (Fraction(1, 2), Fraction(1), 0.5, True), ids=repr)
def test_validate_reports_non_integer_polarization_coefficients(e_i, c):
    a = TorusVariety(e_i.g, e_i.j, e_i.ns_basis, (c,), "odd")
    assert validate(a).failures == ("polarization coefficients must be integers",)


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
    nz = [m for m in mats if m != Mat.zeros(m.rows, m.cols)]
    if not nz:
        return ()
    n = nz[0].rows
    v = Mat.from_cols([_flat(m) for m in nz])
    y = integer_kernel(v.T)
    sol = Mat.identity(n * n) if y.cols == 0 else integer_kernel(y.T)
    return tuple(_unflat(col, n) for col in sol.T.data)


def _ref_generated_span_basis(mats):
    """The generated lattice on all n^2 entries."""
    nz = [m for m in mats if m != Mat.zeros(m.rows, m.cols)]
    if not nz:
        return ()
    n = nz[0].rows
    lat = Lattice(Mat.from_cols([_flat(m) for m in nz]))
    return tuple(_unflat(col, n) for col in lat.basis.T.data)


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
    """Both span bases of integer alternating matrices, on their upper
    coordinates, and the coordinates of each alternating target in each,
    by the general solve and by substitution on the Hermite rows, equal the
    n^2 constructions' exactly (a failed solve on all sides alike)."""
    assert all(m.is_integral() for m in mats)
    assert all(t.is_alternating() for t in targets)
    forms = [_upper(m) for m in mats]
    for saturated, ref in (
        (True, _ref_integral_span_basis),
        (False, _ref_generated_span_basis),
    ):
        rows = _span(forms, saturated)
        got = tuple(_from_upper(v, mats[0].rows) for v in rows)
        want = ref(mats)
        _assert_same_mats(got, want)
        if not want:
            continue
        for target in targets:
            expected = _outcome(_ref_coefficients_in_basis, target, want)
            x = _outcome(coefficients_in_basis, target, got)
            assert x == expected
            assert type(x) is str or all(type(c) is int for c in x)
            y = _outcome(_hermite_coordinates, _upper(target), rows)
            assert y == expected
            assert type(y) is str or all(type(c) is int for c in y)


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
        hi_int, _ = v.polarization_class().inverse().cleared()
        classes = [hi_int.T @ e @ hi_int for e in v.ns_basis]
        _assert_span_layer_matches(classes, [-1 * hi_int, hi_int, classes[0]])
        _assert_span_layer_matches(list(v.ns_basis), [v.polarization_class()])


def test_span_layer_matches_on_the_enumeration_restrictions(partner_entries):
    assert len(partner_entries) == 80
    a = square_curve_product()
    for entry in partner_entries:
        embedding = slope_subvariety(entry_slope(a, entry)).to_ambient
        t, ambient = embedding.m, embedding.target
        restricted = [t.T @ e @ t for e in ambient.ns_basis]
        pol_r = t.T @ ambient.polarization_class() @ t
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
            family.append(mat_sum(draw(st.sampled_from(family)), draw(st.sampled_from(family))))
        else:
            family.append(draw(st.integers(2, 5)) * draw(st.sampled_from(family)))
    targets = [_alternating(n, draw(fresh))]
    if family:
        acc = Mat.zeros(n, n)
        for e in family:
            acc = mat_sum(acc, draw(st.integers(-3, 3)) * e)
        targets += [acc, Fraction(1, draw(st.integers(2, 4))) * acc]
    return family, targets


@given(_alternating_families())
def test_span_layer_matches_on_alternating_families(case):
    family, targets = case
    _assert_span_layer_matches(family, targets)


@st.composite
def _families_with_repeats(draw):
    """A few fresh integer alternating forms, listed with zero forms,
    repeats and negated repeats in any order, and targets that are integer
    members, fractional members, and (as the family spans at most 3 of the
    n(n-1)/2 >= 6 upper coordinates) mostly outside its Q-span."""
    n = draw(st.sampled_from((4, 6)))
    m = n * (n - 1) // 2
    fresh = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    base = [_alternating(n, draw(fresh)) for _ in range(draw(st.integers(1, 3)))]
    family = list(base)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("zero", "repeat", "negated")))
        if kind == "zero":
            family.append(Mat.zeros(n, n))
        else:
            e = draw(st.sampled_from(base))
            family.append(e if kind == "repeat" else -1 * e)
    family = draw(st.permutations(family))
    acc = Mat.zeros(n, n)
    for e in base:
        acc = mat_sum(acc, draw(st.integers(-3, 3)) * e)
    k = draw(st.integers(2, 4))
    part = Fraction(1, k)
    targets = [acc, part * acc, part * mat_sum(acc, base[0]), _alternating(n, draw(fresh))]
    return base, family, targets


@given(_families_with_repeats())
def test_span_drops_zeros_and_repeats_up_to_sign(case):
    base, family, targets = case
    forms = [_upper(e) for e in family]
    for saturated in (True, False):
        assert _span(forms, saturated) == _span([_upper(e) for e in base], saturated)
    _assert_span_layer_matches(family, targets)


@st.composite
def _square_rationals(draw):
    """Square rational matrices up to 5 x 5: plain, symmetric, Gram
    matrices shifted to be often definite, and Gram matrices whose leading
    k x k block is singular (column k-1 of the Gram basis repeats column 0,
    or is zero for k = 1), some with 1 added at the last diagonal entry so
    that a later minor is nonzero."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    m = Mat(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("plain", "symmetric", "gram", "singular_lead")))
    if kind == "plain":
        return m
    if kind == "symmetric":
        return mat_sum(m, m.T)
    if kind == "gram":
        return mat_sum(m.T @ m, draw(st.integers(-2, 3)) * Mat.identity(n))
    k = draw(st.integers(1, n))
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        p[i][k - 1] = int(k > 1 and i == 0)
    t = m @ Mat(p)
    corner = _with_entry(Mat.zeros(n, n), n - 1, n - 1, 1)
    return mat_sum(t.T @ t, draw(st.sampled_from((0, 1))) * corner)


def _leading_minors_positive(s):
    return all(s.submatrix(range(k), range(k)).det() > 0 for k in range(1, s.rows + 1))


@given(_square_rationals())
@example(Mat([[0, 1], [1, 0]]))  # indefinite, with positive pivots after a swap
def test_one_pass_sylvester_is_the_leading_minor_test(s):
    assert _is_positive_definite(s) == _leading_minors_positive(s)


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
    good = mat_sum(basis[0], basis[2])
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


def _shipped_varieties_and_duals():
    for a in SHIPPED_VARIETIES.values():
        yield from (a, dual(a))


def test_ns_class_is_the_mat_sum_of_the_basis():
    for v in _shipped_varieties_and_duals():
        bound = 2 if len(v.ns_basis) <= 2 else 1
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(v.ns_basis)):
            acc = Mat.zeros(v.dim, v.dim)
            for c, e in zip(coeffs, v.ns_basis):
                if c:
                    acc = mat_sum(acc, c * e)
            assert v.ns_class(coeffs).e == acc, (v.name, coeffs)


def test_subgroup_structure_is_computed_on_first_use(e_i, e_i_squared):
    from fmtori.product_audit import kernel_torsion_subgroup
    from fmtori.slopes import reduce_slope, slope_kernel

    double = Homomorphism(e_i, e_i, Mat(((2, 0), (0, 2))))
    c = e_i_squared.ns_class((1, 2, 0, 1))
    a2, a3, a4, a6 = (torsion_subgroup(e_i, n).overlattice for n in (2, 3, 4, 6))
    doubled = class_kernel(NSClass(e_i_squared, 2 * c.e)).overlattice
    subgroups = [
        FiniteSubgroup(e_i, a6),
        _image_under(double, torsion_subgroup(e_i, 4)),
        FiniteSubgroup(e_i, a4.intersect(a6)),
        FiniteSubgroup(e_i, a2.sum(a3)),
        double.kernel(),
        FiniteSubgroup(e_i_squared, doubled.intersect(torsion_subgroup(e_i_squared, 4).overlattice)),
        kernel_torsion_subgroup(e_i_squared, c, 3),
        slope_kernel(reduce_slope(c, 2)),
    ]
    for sub in subgroups:
        assert "structure" not in vars(sub)
        std = Lattice.standard(sub.variety.dim)
        assert sub.structure == quotient_by_inverse(std, sub.overlattice)
        assert sub.structure is sub.structure
    # a class kernel reads its structure off the Smith form of the class,
    # and the torsion and trivial subgroups are (Z/n)^2g and 0 outright: each
    # fills the same slot at construction
    known = [
        class_kernel(c),
        torsion_subgroup(e_i, 6),
        torsion_subgroup(e_i_squared, 4),
        trivial_subgroup(e_i),
        trivial_subgroup(e_i_squared),
    ]
    for kern in known:
        assert "structure" in vars(kern)
        std = Lattice.standard(kern.variety.dim)
        assert kern.structure == quotient_by_inverse(std, kern.overlattice)
        assert kern.structure is kern.structure
    assert torsion_subgroup(e_i_squared, 4).divisors == (4, 4, 4, 4)
    assert trivial_subgroup(e_i_squared).order == 1
