"""sympy as a third, independent oracle for the exact matrix layer.

The package itself never imports sympy; these tests skip where it is not
installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmtori.matrices import Mat, snf, solve_exact

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

dims = st.integers(min_value=1, max_value=6)


def _grid(rows, cols, lo, hi):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def int_matrices(draw, square=False, bound=9):
    """Integer matrices up to 6x6: uniform entries in [-bound, bound], or a
    product through an inner dimension k, which makes rank deficiency common."""
    rows = draw(dims)
    cols = rows if square else draw(dims)
    if draw(st.booleans()):
        return draw(_grid(rows, cols, -bound, bound))
    k = draw(st.integers(1, min(rows, cols)))
    f = max(3, bound // 3)
    left, right = draw(_grid(rows, k, -f, f)), draw(_grid(k, cols, -3, 3))
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)]


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@given(int_matrices(square=True, bound=2**40))
def test_det_matches_sympy(rows):
    assert Mat(rows).det() == int(sympy.Matrix(rows).det())


@given(int_matrices())
def test_rank_matches_sympy(rows):
    assert Mat(rows).rank() == sympy.Matrix(rows).rank()


@given(int_matrices(square=True))
def test_inverse_matches_sympy(rows):
    m = sympy.Matrix(rows)
    if m.det() == 0:
        with pytest.raises(ValueError):
            Mat(rows).inverse()
        return
    expected = Mat([[_fraction(x) for x in m.inv().row(i)] for i in range(m.rows)])
    assert Mat(rows).inverse() == expected


@given(int_matrices(), st.data())
def test_solve_exact_matches_sympy(rows, data):
    a = Mat(rows)
    if data.draw(st.booleans()):
        b = data.draw(st.lists(st.integers(-9, 9), min_size=a.rows, max_size=a.rows))
    else:
        x0 = data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
        b = list(a.apply(x0))
    m = sympy.Matrix(rows)
    consistent = m.rank() == m.row_join(sympy.Matrix(b)).rank()
    x = solve_exact(a, b)
    assert (x is not None) == consistent
    if x is not None:
        assert a.apply(x) == tuple(b)


@given(int_matrices())
def test_smith_invariant_factors_match_sympy(rows):
    d, _, _ = snf(Mat(rows))
    ours = [d[i, i] for i in range(min(d.rows, d.cols))]
    theirs = [int(x) for x in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
    assert ours == theirs
