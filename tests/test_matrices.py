from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmtori.matrices import Mat, hnf_columns, integer_kernel, snf, solve_exact

entries = st.integers(min_value=-9, max_value=9)
big_entries = st.integers(min_value=-(2**40), max_value=2**40)
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
sizes = st.integers(min_value=1, max_value=5)


def int_matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda d: Mat(tuple(tuple(r) for r in d)))


def _square(draw, elements):
    n = draw(sizes)
    return [draw(st.lists(elements, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def big_square(draw):
    return _square(draw, big_entries)


@st.composite
def zero_leading_pivots(draw):
    """The first column vanishes in the first z rows, so the leading
    principal minors of sizes 1..z are zero and elimination must swap rows."""
    rows = _square(draw, big_entries)
    n = len(rows)
    for i in range(draw(st.integers(0, n - 1))):
        rows[i][0] = 0
    return rows


@st.composite
def singular_square(draw):
    """A product through an inner dimension below n, or a row repeated up to
    an integer multiple."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        left = [draw(st.lists(big_entries, min_size=k, max_size=k)) for _ in range(n)]
        right = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
        return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                for i in range(n)]
    rows = [draw(st.lists(big_entries, min_size=n, max_size=n)) for _ in range(n)]
    i, j = draw(st.permutations(range(n)))[:2]
    c = draw(entries)
    rows[j] = [c * x for x in rows[i]]
    return rows


@st.composite
def fraction_square(draw):
    return _square(draw, fractions)


def _cofactor_det(rows):
    """Laplace expansion along the first row: the textbook definition, with
    no elimination, in exact Fraction arithmetic."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * Fraction(x) * _cofactor_det(minor)
    return total


def test_basic_algebra():
    a = Mat(((1, 2), (3, 4)))
    b = Mat(((0, 1), (1, 0)))
    assert a @ b == Mat(((2, 1), (4, 3)))
    assert (a + b) - b == a
    assert 2 * a == a + a
    assert a.T.T == a
    assert a.det() == -2
    assert a.inverse() @ a == Mat.identity(2)


def test_apply_and_blocks():
    a = Mat(((1, 0, 2), (0, 1, 3)))
    assert a.apply((1, 1, 1)) == (3, 4)
    stacked = Mat.vstack(Mat.identity(2), Mat.zeros(1, 2))
    assert stacked.rows == 3 and stacked.col(0) == (1, 0, 0)
    side = Mat.hstack(Mat.identity(2), Mat.identity(2))
    assert side.cols == 4


def test_rational_entries():
    m = Mat(((Fraction(1, 2), 0), (0, 2)))
    assert m.denominator() == 2
    assert (2 * m).is_integral()
    with pytest.raises(ValueError):
        m.to_int()


@given(int_matrices(3, 3))
def test_hnf_is_unimodular_reduction(m):
    h, u = hnf_columns(m)
    assert abs(u.det()) == 1
    assert m @ u == h
    # column echelon: pivot rows weakly increase, entries right of a pivot row are reduced
    for j in range(1, h.cols):
        col = h.col(j)
        prev = h.col(j - 1)
        if any(col) and any(prev):
            assert _pivot_row(prev) < _pivot_row(col)


def _pivot_row(col):
    for i, v in enumerate(col):
        if v:
            return i
    return len(col)


@given(int_matrices(3, 3))
def test_snf_divisibility_chain(m):
    d, u, v = snf(m)
    assert u @ m @ v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [int(d[i, i]) for i in range(3)]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@given(int_matrices(3, 4))
def test_integer_kernel_annihilates(m):
    k = integer_kernel(m)
    if k.cols:
        prod = m @ k
        assert prod.is_zero()
    assert k.rows == 4


@given(int_matrices(3, 3), st.lists(entries, min_size=3, max_size=3))
def test_solve_exact_round_trip(m, x):
    rhs = m.apply(tuple(x))
    sol = solve_exact(m, rhs)
    assert sol is not None
    assert m.apply(sol) == tuple(Fraction(v) for v in rhs)


def test_solve_exact_inconsistent():
    m = Mat(((1, 0), (1, 0)))
    assert solve_exact(m, (0, 1)) is None


def test_kernel_is_saturated():
    # 2x - 2y = 0 has primitive kernel generator (1, 1), not (2, 2)
    k = integer_kernel(Mat(((2, -2),)))
    assert k.cols == 1
    col = [abs(int(v)) for v in k.col(0)]
    assert col == [1, 1]


def test_content_and_alternating():
    m = Mat(((0, 4), (-4, 0)))
    assert m.content() == 4
    assert m.is_alternating()
    assert not Mat(((1, 0), (0, 1))).is_alternating()


def test_rank_drops_on_dependent_rows():
    m = Mat(((1, 2, 3), (2, 4, 6), (0, 1, 1)))
    assert m.rank() == 2


@given(st.one_of(big_square(), zero_leading_pivots(), fraction_square()))
def test_det_matches_cofactor_expansion(rows):
    d = Mat(rows).det()
    assert d == _cofactor_det(rows)
    # exact type: an integral determinant is an int, never Fraction(n, 1)
    assert isinstance(d, int) or Fraction(d).denominator > 1


@given(singular_square())
def test_det_of_singular_matrices_is_zero(rows):
    assert _cofactor_det(rows) == 0
    assert Mat(rows).det() == 0


def test_det_swaps_rows_at_zero_pivots():
    # the second pivot vanishes only after the first elimination step
    assert Mat(((1, 1, 0), (1, 1, 1), (0, 1, 1))).det() == -1
    assert Mat(((0, 0, 1), (0, 1, 0), (1, 0, 0))).det() == -1
    assert Mat(((0, 2), (3, 0))).det() == -6
    assert Mat(((0, 1), (0, 1))).det() == 0
    assert Mat(((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 6)))).det() == 0
    assert Mat.identity(0).det() == 1


def test_zero_width_shapes():
    assert (Mat.zeros(0, 3).rows, Mat.zeros(0, 3).cols) == (0, 3)
    t = Mat.zeros(3, 0).T
    assert (t.rows, t.cols) == (0, 3)
    assert t == Mat.zeros(0, 3) and Mat.zeros(0, 3).T == Mat.zeros(3, 0)
    # equality and hashing see the shape, not only the (empty) rows
    assert Mat.zeros(0, 3) != Mat.zeros(0, 2)
    assert Mat.zeros(0, 3) != Mat.zeros(3, 0)
    assert len({Mat.zeros(0, 3), Mat.zeros(0, 2), Mat.zeros(0, 0)}) == 3
    assert Mat.zeros(2, 0) @ Mat.zeros(0, 3) == Mat.zeros(2, 3)
    assert Mat.vstack(Mat.zeros(0, 3), Mat.zeros(0, 3)) == Mat.zeros(0, 3)
    assert Mat.hstack(Mat.zeros(0, 1), Mat.zeros(0, 2)) == Mat.zeros(0, 3)
    assert Mat.identity(3).submatrix(range(0), range(3)) == Mat.zeros(0, 3)


def test_integer_kernel_of_zero_width_matrices():
    # no equations: the kernel is all of Z^3
    assert integer_kernel(Mat.zeros(0, 3)) == Mat.identity(3)
    # no unknowns: the kernel is Z^0, an empty 0x0 basis
    k = integer_kernel(Mat.zeros(2, 0))
    assert (k.rows, k.cols) == (0, 0)
