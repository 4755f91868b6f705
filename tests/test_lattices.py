from fractions import Fraction

import pytest
from conftest import quotient_by_inverse, where_integral_by_kernel
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmtori.lattices import (
    FiniteGroupStructure,
    Lattice,
    LatticeContainmentError,
    quotient_structure,
    saturate,
    sublattice_where_integral,
)
from fmtori.matrices import Mat, snf, solve_exact, vec_is_integral

small = st.integers(min_value=-4, max_value=4)


def full_rank_lattices(n=2, scale_denominators=(1, 2, 3)):
    def build(entries, den):
        m = Mat(tuple(tuple(Fraction(v, den) for v in row) for row in entries))
        return m

    return (
        st.tuples(
            st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n),
            st.sampled_from(scale_denominators),
        )
        .map(lambda t: build(t[0], t[1]))
        .filter(lambda m: m.det() != 0)
        .map(Lattice)
    )


def _has_point(lat, v) -> bool:
    """v is a point of lat: its coordinates in the basis exist and are integral."""
    x = solve_exact(lat.basis, v)
    return x is not None and vec_is_integral(x)


def _contains(big, small) -> bool:
    """small lies in big: every basis vector of small is a point of big."""
    return all(_has_point(big, v) for v in small.basis.T.data)


def test_standard_and_scaled():
    lam = Lattice.standard(2)
    half = lam.scaled(Fraction(1, 2))
    assert _contains(half, lam)
    assert not _contains(lam, half)
    assert _has_point(half, (Fraction(1, 2), Fraction(3, 2)))


@st.composite
def lattices_of_any_rank(draw):
    """Lattices in Q^n spanned by k rational columns, k = 0..n+1: rank 0,
    partial rank (some columns dependent or zero) and full rank."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n + 1))
    den = draw(st.sampled_from((1, 2, 3, 6)))
    cols = [[Fraction(draw(small), den) for _ in range(n)] for _ in range(k)]
    return Lattice(Mat.from_cols(cols) if cols else Mat.zeros(n, 0))


scalings = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 8)),
)


@given(lattices_of_any_rank(), scalings)
def test_scaled_equals_canonicalized_scaling(lam, c):
    scaled = lam.scaled(c)
    canonical = Lattice(c * lam.basis)
    assert scaled == canonical
    assert scaled.basis.data == canonical.basis.data
    assert (scaled.basis.rows, scaled.basis.cols) == (canonical.basis.rows, canonical.basis.cols)


def test_standard_is_canonical():
    for n in range(5):
        canonical = Lattice(Mat.identity(n))
        assert Lattice.standard(n) == canonical
        assert Lattice.standard(n).basis.data == canonical.basis.data


def test_canonical_basis_is_presentation_independent():
    a = Lattice(Mat(((1, 0), (0, 1))))
    b = Lattice(Mat(((1, 3), (0, 1))))  # same lattice, shear basis
    assert a == b
    assert a.basis == b.basis


def test_quotient_structure_counts_index():
    sup = Lattice.standard(2).scaled(Fraction(1, 6))
    q = quotient_structure(sup)
    assert q.order == 36
    assert q.divisors == (6, 6)
    assert q.exponent == 6


def test_quotient_requires_containment():
    shifted = Lattice(Mat(((Fraction(1, 2), 0), (0, 1))))
    shrunk = Lattice(Mat(((Fraction(1, 3), 0), (0, 1))))
    with pytest.raises(LatticeContainmentError):
        quotient_by_inverse(shifted, shrunk)
    # the general index [sup : sub] is the quotient of sub^-1 sup by Z^n
    with pytest.raises(LatticeContainmentError, match="not contained"):
        quotient_structure(Lattice(shifted.basis.inverse() @ shrunk.basis))


def test_sum_and_intersection_against_definitions():
    a = Lattice(Mat(((Fraction(1, 2), 0), (0, 1))))
    b = Lattice(Mat(((1, 0), (0, Fraction(1, 3)))))
    s = a.sum(b)
    i = a.intersect(b)
    assert _contains(s, a) and _contains(s, b)
    assert _contains(a, i) and _contains(b, i)
    # index multiplicativity pins both down for these diagonal lattices
    assert quotient_by_inverse(i, s).order == 6


@given(full_rank_lattices(), full_rank_lattices())
def test_sum_is_smallest_and_intersection_largest(a, b):
    s = a.sum(b)
    i = a.intersect(b)
    assert _contains(s, a) and _contains(s, b)
    assert _contains(a, i) and _contains(b, i)
    # modularity of indices: [S : A][A : I] = [S : B][B : I]
    left = quotient_by_inverse(a, s).order * quotient_by_inverse(i, a).order
    right = quotient_by_inverse(b, s).order * quotient_by_inverse(i, b).order
    assert left == right
    # the one-argument route on sub^-1 sup gives the same quotient
    assert quotient_structure(Lattice(a.basis.inverse() @ s.basis)) == quotient_by_inverse(a, s)


def test_sublattice_where_integral():
    window = Lattice.standard(2).scaled(Fraction(1, 2))
    e = Mat(((0, 2), (-2, 0)))
    lam = sublattice_where_integral(2, e)
    # every half point already pairs integrally under 2*(alternating form)
    assert lam == window
    strict = sublattice_where_integral(2, Mat(((0, 1), (-1, 0))))
    assert strict == Lattice.standard(2)


def test_sublattice_where_integral_degenerate_condition():
    rank_one = Mat(((1, 0), (0, 0)))
    lam = sublattice_where_integral(4, rank_one)
    assert _has_point(lam, (0, Fraction(1, 4)))
    assert not _has_point(lam, (Fraction(1, 4), 0))


@pytest.mark.parametrize("level", (0, -2))
def test_sublattice_where_integral_rejects_a_level_below_one(level):
    with pytest.raises(ValueError, match="level must be positive"):
        sublattice_where_integral(level, Mat(((0, 1), (-1, 0))))


@st.composite
def integrality_conditions(draw):
    """(level, conditions): k x n rational conditions, n <= 6 and k <= 7
    (k = n or not), entries over denominators <= 4, with zero rows and rows
    that repeat a multiple of an earlier one mixed in; levels up to 12."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))
    for src, k in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=3)):
        rows.append([k * x for x in rows[src]] if src < len(rows) else [0] * n)
    dens = st.sampled_from((1, 2, 3, 4))
    if not rows:
        return draw(st.integers(1, 12)), Mat.zeros(0, n)
    return draw(st.integers(1, 12)), Mat([[Fraction(x, draw(dens)) for x in row] for row in rows])


@given(integrality_conditions())
@settings(max_examples=300)
@example((1, Mat(((Fraction(1, 2), 0, 1), (0, Fraction(3, 4), 0)))))
@example((12, Mat(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 2), (0, 0, -2, 0)))))
@example((6, Mat(((1, 2), (2, 4), (0, 0)))))
@example((4, Mat.zeros(2, 3)))
@example((3, Mat.zeros(0, 2)))
def test_sublattice_where_integral_matches_the_kernel_route(case):
    level, conditions = case
    n = conditions.cols
    lam = sublattice_where_integral(level, conditions)
    assert lam == where_integral_by_kernel(level, conditions)
    # by definition: a full rank lattice of points of (1/level) Z^n on which
    # the conditions are integral
    assert lam.rank == lam.ambient_dim
    assert (level * lam.basis).is_integral()
    assert (conditions @ lam.basis).is_integral()


def test_dual_lattice_of_form_degree():
    # the dual of Z^2 under e is e^-T Z^2, spanned by e^-1 since e^T = -e
    e = Mat(((0, 3), (-3, 0)))
    dual = Lattice(e.inverse())
    assert quotient_structure(dual).order == 9


def test_saturate_divides_out_content():
    thin = Lattice(Mat(((2, 0), (0, 2))))
    assert saturate(thin, Lattice.standard(2)) == Lattice.standard(2)


def test_group_structure_normalization():
    s = FiniteGroupStructure.from_diagonal((1, 2, 2, 6))
    assert s.divisors == (2, 2, 6)
    assert s.order == 24
    assert s.exponent == 6
    assert FiniteGroupStructure.from_diagonal(()).exponent == 1


@st.composite
def full_column_rank_integer_matrices(draw):
    """n x k integer matrices of rank k; with a drawn flag the first column
    is multiplied by 2 or 3, which makes the column span non-primitive."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    cols = [[draw(small) for _ in range(n)] for _ in range(k)]
    if draw(st.booleans()):
        f = draw(st.sampled_from((2, 3)))
        cols[0] = [f * x for x in cols[0]]
    m = Mat.from_cols(cols)
    if m.rank() < k:
        return draw(st.nothing())
    return m


@given(full_column_rank_integer_matrices())
@example(Mat(((1, 0), (0, 1), (0, 0))))
@example(Mat(((2, 0), (0, 1), (0, 0))))
@example(Mat(((1, 1), (1, -1))))
@example(Mat(((1,), (1,), (1,))))
def test_unit_invariant_factors_mean_primitive(m):
    # Z^n / image is torsion-free exactly when every invariant factor is 1,
    # which is the primitivity test slope_subvariety makes
    lat = Lattice(m)
    primitive = saturate(lat, Lattice.standard(m.rows)) == lat
    assert (snf(m) == (1,) * m.cols) == primitive
