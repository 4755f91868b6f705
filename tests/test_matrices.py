import math
from fractions import Fraction

import pytest
from conftest import mat_sum, small_rectangles
from hypothesis import example, given
from hypothesis import strategies as st

from fmtori.lattices import Lattice
from fmtori.matrices import (
    Mat,
    has_unit_invariant_factors,
    hnf_columns,
    integer_kernel,
    snf,
    solve_exact,
)

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


@st.composite
def skipped_pivots(draw):
    """Rank-deficient matrices whose pivot columns skip: a product through
    an inner dimension k in which some columns repeat a multiple of the
    column before them (or vanish), so elimination finds no pivot there."""
    rows, cols = draw(sizes), draw(sizes)
    k = draw(st.integers(1, min(rows, cols)))
    left = [draw(st.lists(big_entries, min_size=k, max_size=k)) for _ in range(rows)]
    right = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(k)]
    for j in range(1, cols):
        if draw(st.booleans()):
            c = draw(entries)
            for r in right:
                r[j] = c * r[j - 1]
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)]


@st.composite
def negative_leading_pivots(draw):
    """Zero leading pivots below a negative one: the first column is zero in
    the first z rows and negative in row z."""
    rows = draw(zero_leading_pivots())
    z = next((i for i, r in enumerate(rows) if r[0]), None)
    if z is not None:
        rows[z][0] = -abs(rows[z][0])
    return rows


@st.composite
def rectangular(draw, elements):
    rows, cols = draw(sizes), draw(sizes)
    return [draw(st.lists(elements, min_size=cols, max_size=cols)) for _ in range(rows)]


big_fractions = st.builds(Fraction, big_entries, st.integers(1, 2**20))


@st.composite
def big_fraction_square(draw):
    return _square(draw, big_fractions)


# every shape of input the fraction-free kernels must agree on
any_matrix = st.one_of(
    rectangular(entries),
    rectangular(big_entries),
    rectangular(fractions),
    rectangular(big_fractions),
    skipped_pivots(),
    singular_square(),
    negative_leading_pivots(),
    fraction_square(),
    big_fraction_square(),
)


def _ref_gauss_jordan(a, ncols):
    """Rational Gauss-Jordan in Fraction arithmetic: the reference for the
    fraction-free kernels.  Reduces the rows of a in place to reduced row
    echelon form, pivoting on the first nonzero entry of each of the first
    ncols columns; returns the pivot columns."""
    rows = len(a)
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][j]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
    return pivots


def _ref_rank(rows, ncols):
    return len(_ref_gauss_jordan([[Fraction(x) for x in r] for r in rows], ncols))


def _ref_inverse(rows):
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    if len(_ref_gauss_jordan(a, n)) < n:
        return None
    return [r[n:] for r in a]


def _ref_solve(rows, b, ncols):
    aug = [[Fraction(x) for x in r] + [Fraction(y)] for r, y in zip(rows, b)]
    pivots = _ref_gauss_jordan(aug, ncols)
    if any(aug[i][ncols] != 0 for i in range(len(pivots), len(rows))):
        return None
    x = [Fraction(0)] * ncols
    for i, j in enumerate(pivots):
        x[j] = aug[i][ncols]
    return tuple(x)


def _ref_product(a, b, inner):
    return [[sum((Fraction(r[t]) * c[t] for t in range(inner)), Fraction(0)) for c in zip(*b)]
            for r in a]


def _is_exact(x):
    # entries are ints, or Fractions that are not integers; never Fraction(n, 1)
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _same(m, ref_rows):
    """m holds exactly the reference values, each in exact form."""
    assert all(_is_exact(x) for row in m.data for x in row)
    assert [list(r) for r in m.data] == [list(r) for r in ref_rows]


@given(any_matrix)
def test_rank_matches_fraction_reference(rows):
    assert Mat(rows).rank() == _ref_rank(rows, len(rows[0]))


@given(st.one_of(big_square(), zero_leading_pivots(), negative_leading_pivots(),
                 fraction_square(), big_fraction_square(), singular_square()))
def test_inverse_matches_fraction_reference(rows):
    ref = _ref_inverse(rows)
    if ref is None:
        with pytest.raises(ValueError, match="singular"):
            Mat(rows).inverse()
        return
    inv = Mat(rows).inverse()
    _same(inv, ref)
    assert Mat(rows) @ inv == Mat.identity(len(rows))


@given(any_matrix, st.data())
def test_solve_exact_matches_fraction_reference(rows, data):
    a = Mat(rows)
    if data.draw(st.booleans()):
        b = data.draw(st.lists(st.one_of(big_entries, fractions),
                               min_size=a.rows, max_size=a.rows))
    else:
        x0 = data.draw(st.lists(st.one_of(entries, fractions), min_size=a.cols, max_size=a.cols))
        b = list(a.apply(x0))
    x = solve_exact(a, b)
    ref = _ref_solve(rows, b, a.cols)
    # exact tuple equality: same solution, free coordinates 0, exact entries
    assert x == ref
    if x is not None:
        assert all(_is_exact(v) for v in x)


@given(st.one_of(big_square(), zero_leading_pivots(), negative_leading_pivots()))
def test_cleared_inverse_of_an_integer_matrix_is_primitive(rows):
    # if p divided every entry of b = d * h^-1, then h @ b = d * I would make
    # p divide d, and d / p would clear h^-1: dual relies on this
    h = Mat(rows)
    if h.det() == 0:
        return
    b, d = h.inverse().cleared()
    assert h @ b == d * Mat.identity(h.rows)
    assert b.content() == 1


@given(st.data())
def test_products_match_fraction_reference(data):
    elements = data.draw(st.sampled_from([entries, big_entries, fractions, big_fractions]))
    r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a = [data.draw(st.lists(elements, min_size=k, max_size=k)) for _ in range(r)]
    b = [data.draw(st.lists(elements, min_size=c, max_size=c)) for _ in range(k)]
    _same(Mat(a) @ Mat(b), _ref_product(a, b, k))
    s = data.draw(st.one_of(entries, big_entries, fractions, big_fractions))
    _same(s * Mat(a), [[Fraction(s) * x for x in row] for row in a])


def _reduced(m):
    """m after checking the representation invariant: int rows over a
    positive int denominator prime to all of them, which is the one form
    Mat builds from m's entries, with the same hash."""
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for row in m.num for x in row)
    assert math.gcd(m.den, *(x for row in m.num for x in row)) == 1
    again = Mat(m.data)
    assert again == m and hash(again) == hash(m)
    return m


mixed_entries = st.one_of(entries, big_entries, fractions, big_fractions)


@given(any_matrix, st.data())
def test_every_operation_keeps_one_reduced_form(rows, data):
    def draw_rows(r, c):
        return [data.draw(st.lists(mixed_entries, min_size=c, max_size=c)) for _ in range(r)]

    a = _reduced(Mat(rows))
    r, c, k = a.rows, a.cols, data.draw(sizes)
    fa = [[Fraction(x) for x in row] for row in rows]
    b_rows = draw_rows(r, c)
    fb = [[Fraction(x) for x in row] for row in b_rows]
    b, e_rows = Mat(b_rows), draw_rows(c, k)
    s = data.draw(st.one_of(st.just(0), st.just(a.den), mixed_entries))
    _same(_reduced(a @ Mat(e_rows)), _ref_product(rows, e_rows, c))
    _same(_reduced(s * a), [[s * x for x in row] for row in fa])
    _same(_reduced(a.T), list(zip(*fa)))
    ri = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=r))
    ci = data.draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c))
    _same(_reduced(a.submatrix(ri, ci)), [[fa[i][j] for j in ci] for i in ri])
    _same(_reduced(Mat.hstack(a, b)), [p + q for p, q in zip(fa, fb)])
    _same(_reduced(Mat.vstack(a, b)), fa + fb)
    inv = _ref_inverse(rows) if r == c else None
    if inv is not None:
        _same(_reduced(a.inverse()), inv)


def test_equal_values_have_one_representation():
    two = Mat([[Fraction(4, 2)]])
    assert two == Mat([[2]]) and hash(two) == hash(Mat([[2]]))
    assert (two.num, two.den) == (((2,),), 1)
    half = Mat([[Fraction(1, 2), 1]])
    assert (half.num, half.den) == (((1, 2),), 2)
    # a submatrix of a rational matrix that turns integral
    assert half.submatrix([0], [1]) == Mat([[1]])
    assert hash(half.submatrix([0], [1])) == hash(Mat([[1]]))
    # the zero matrix has denominator 1, however it was built
    assert (Fraction(1, 3) * Mat.zeros(2, 2)).den == 1
    zero = mat_sum(half, (-1) * half)
    assert zero.den == 1 and zero == Mat.zeros(1, 2)


def test_rational_reprs(e_2i):
    assert repr(e_2i.j) == "Mat([[0, -2], [Fraction(1, 2), 0]])"
    assert repr(e_2i.j.inverse()) == "Mat([[0, 2], [Fraction(-1, 2), 0]])"
    basis = Lattice.standard(2).scaled(Fraction(1, 3)).basis
    assert repr(basis) == "Mat([[Fraction(1, 3), 0], [0, Fraction(1, 3)]])"


def test_fraction_free_kernels_on_zero_width_shapes():
    assert Mat.zeros(0, 3).rank() == 0 and Mat.zeros(3, 0).rank() == 0
    assert Mat.identity(0).inverse() == Mat.identity(0)
    assert solve_exact(Mat.zeros(0, 3), ()) == (0, 0, 0)
    assert solve_exact(Mat.zeros(2, 0), (0, 0)) == ()
    assert solve_exact(Mat.zeros(2, 0), (0, Fraction(1, 2))) is None
    assert Mat.zeros(3, 0) @ Mat.zeros(0, 2) == Mat.zeros(3, 2)
    assert Mat.zeros(0, 2) @ Mat(((Fraction(1, 2),), (3,))) == Mat.zeros(0, 1)
    assert Fraction(1, 3) * Mat.zeros(0, 2) == Mat.zeros(0, 2)
    assert Fraction(1, 3) * Mat.zeros(2, 0) == Mat.zeros(2, 0)


def test_solve_exact_sets_free_coordinates_to_zero():
    # pivots in columns 0 and 2; column 1 is free and column 3 repeats column 2
    a = Mat(((2, 4, 1, 1), (-6, -12, 0, 0)))
    assert solve_exact(a, (3, 9)) == (Fraction(-3, 2), 0, 6, 0)


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
    assert a.T.T == a
    assert a.det() == -2
    assert a.inverse() @ a == Mat.identity(2)


def test_apply_and_blocks():
    a = Mat(((1, 0, 2), (0, 1, 3)))
    assert a.apply((1, 1, 1)) == (3, 4)
    stacked = Mat.vstack(Mat.identity(2), Mat.zeros(1, 2))
    assert stacked.rows == 3 and stacked.T.data[0] == (1, 0, 0)
    side = Mat.hstack(Mat.identity(2), Mat.identity(2))
    assert side.cols == 4


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.one_of(entries, fractions), min_size=n, max_size=n),
                     min_size=1, max_size=4),
            st.lists(st.one_of(entries, fractions), min_size=n, max_size=n),
        )
    )
)
def test_apply_is_exact_against_fraction_arithmetic(rows_and_vector):
    rows, v = rows_and_vector
    got = Mat(rows).apply(v)
    assert got == tuple(sum(Fraction(a) * b for a, b in zip(row, v)) for row in rows)
    # integral entries come back as ints, the others as Fractions
    assert all(type(x) is int if x.denominator == 1 else type(x) is Fraction for x in got)


@pytest.mark.parametrize("cols", [[(1, 2, 3), (4, 5)], [(1, 2), (3, 4, 5)]])
def test_from_cols_rejects_ragged_columns(cols):
    with pytest.raises(ValueError, match="ragged matrix"):
        Mat.from_cols(cols)


def test_rational_entries():
    m = Mat(((Fraction(1, 2), 0), (0, 2)))
    assert m.den == 2
    assert (2 * m).is_integral()


# -- reference normal forms with their unimodular transforms -------------------


def _ref_row_hnf(a):
    """Row Hermite form H of the integer rows a with unimodular U, H == U @ a:
    the same pivot rule as matrices._row_hnf, with U carried along."""
    m = len(a)
    h = [row[:] for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    n = len(a[0]) if a else 0
    pr = 0
    for col in range(n):
        while True:
            nz = [i for i in range(pr, m) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != pr:
                h[pr], h[i0] = h[i0], h[pr]
                u[pr], u[i0] = u[i0], u[pr]
            p = h[pr][col]
            done = True
            for i in range(pr + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // p
                    h[i] = [x - q * y for x, y in zip(h[i], h[pr])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[pr])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if pr < m and h[pr][col] != 0:
            if h[pr][col] < 0:
                h[pr] = [-x for x in h[pr]]
                u[pr] = [-x for x in u[pr]]
            p = h[pr][col]
            for i in range(pr):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[pr])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[pr])]
            pr += 1
            if pr == m:
                break
    return h, u


def _ref_hnf_columns(m):
    """(h, u) with h == m @ u the column Hermite form and u unimodular."""
    h, u = _ref_row_hnf([list(col) for col in m.T.data])
    n = m.cols
    return Mat._make(tuple(map(tuple, h)), n, m.rows).T, Mat._make(tuple(map(tuple, u)), n, n).T


def _ref_snf(m):
    """(d, u, v) with d == u @ m @ v the Smith form and u, v unimodular, by
    an independent route: row and column pivoting on the least absolute
    entry of the whole block, with the divisibility repair done in place,
    where matrices.snf alternates row echelon forms and sorts the diagonal
    by gcd and lcm."""
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, i0, j0 = best
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a + v:
                row[t], row[j0] = row[j0], row[t]
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    for row in a + v:
                        row[j] -= q * row[t]
                    if a[t][j] != 0:
                        for row in a + v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            culprit = next(
                (i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % p),
                None,
            )
            if culprit is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            u[t] = [x + y for x, y in zip(u[t], u[culprit])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (
        Mat._make(tuple(map(tuple, a)), rows, cols),
        Mat._make(tuple(map(tuple, u)), rows, rows),
        Mat._make(tuple(map(tuple, v)), cols, cols),
    )


def _ref_integer_kernel(m):
    """The kernel by the Smith transform v and a second Hermite form."""
    dd, _, v = _ref_snf(m.cleared()[0])
    r = sum(1 for i in range(min(dd.rows, dd.cols)) if dd[i, i] != 0)
    cols = list(v.T.data[r:])
    if not cols:
        return Mat.zeros(m.cols, 0)
    h, _ = _ref_hnf_columns(Mat.from_cols(cols))
    keep = [j for j in range(h.cols) if any(h[i, j] != 0 for i in range(h.rows))]
    return h.submatrix(range(h.rows), keep)


@st.composite
def with_zero_lines(draw, matrices):
    """A matrix from the given row-list strategy with some rows and columns
    set to zero, or a zero-width matrix."""
    if draw(st.integers(0, 7)) == 0:
        r, c = draw(st.sampled_from([(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)]))
        return Mat.zeros(r, c)
    rows = draw(matrices)
    zr = draw(st.sets(st.integers(0, len(rows) - 1)))
    zc = draw(st.sets(st.integers(0, len(rows[0]) - 1)))
    return Mat([[0 if i in zr or j in zc else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)])


# integer inputs of every shape the normal forms must agree on
normal_form_inputs = with_zero_lines(st.one_of(
    rectangular(entries),
    rectangular(big_entries),
    skipped_pivots(),
    singular_square(),
    big_square(),
))


@given(st.one_of(int_matrices(3, 3), normal_form_inputs))
def test_hnf_is_unimodular_reduction(m):
    h, u = _ref_hnf_columns(m)
    assert abs(u.det()) == 1
    assert m @ u == h
    # column echelon: pivot rows weakly increase, entries right of a pivot row are reduced
    for j in range(1, h.cols):
        col = h.T.data[j]
        prev = h.T.data[j - 1]
        if any(col) and any(prev):
            assert _pivot_row(prev) < _pivot_row(col)
    ours = hnf_columns(m)
    assert ours == h and ours.data == h.data


def _pivot_row(col):
    for i, v in enumerate(col):
        if v:
            return i
    return len(col)


@given(st.one_of(int_matrices(3, 3), normal_form_inputs))
@example(Mat([[2, 0], [0, 3]]))
@example(Mat([[4, 0], [0, 6]]))
@example(Mat([[1, 0, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [1, 0, 1, 2], [1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 0, 0], [-1, -1, 0, 0]]))
def test_snf_divisibility_chain(m):
    d, u, v = _ref_snf(m)
    assert u @ m @ v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [int(d[i, i]) for i in range(min(m.rows, m.cols))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert snf(m) == tuple(diag)


@given(normal_form_inputs)
def test_snf_ignores_sign_and_transpose(m):
    assert snf(-m) == snf(m) == snf(m.T)


@given(small_rectangles())
@example(Mat._make((), 0, 3))
@example(Mat._make(((),) * 3, 3, 0))
@example(Mat([[2, 0], [0, 3]]))
@example(Mat([[1, 1], [1, -1]]))
@example(Mat([[0, 0], [0, 0], [1, 1]]))
@example(Mat([[1, 0, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [1, 0, 1, 2], [1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 0, 0], [-1, -1, 0, 0]]))
def test_unit_invariant_factors_agree_with_smith(m):
    for t in (m, m.T):
        assert has_unit_invariant_factors(t) == (snf(t) == (1,) * min(t.rows, t.cols))


def test_unit_invariant_factors_need_an_integral_matrix():
    with pytest.raises(ValueError):
        has_unit_invariant_factors(Mat([[Fraction(1, 2)]]))


@given(st.one_of(
    normal_form_inputs,
    with_zero_lines(st.one_of(rectangular(fractions), rectangular(big_fractions))),
))
def test_integer_kernel_matches_smith_and_hermite_construction(m):
    k, ref = integer_kernel(m), _ref_integer_kernel(m)
    assert k == ref and k.data == ref.data


@given(int_matrices(3, 4))
def test_integer_kernel_annihilates(m):
    k = integer_kernel(m)
    if k.cols:
        prod = m @ k
        assert prod == Mat.zeros(3, k.cols)
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
    col = [abs(int(v)) for v in k.T.data[0]]
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
