"""sympy as a third, independent oracle for the exact matrix layer.

The package itself never imports sympy; these tests skip where it is not
installed.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from conftest import corpus_text, mat_sum
from hypothesis import example, given
from hypothesis import strategies as st

from fmtori import acceptance, corpus, product_audit
from fmtori.corpus import poincare_class, square_curve_product, square_lattice_curve
from fmtori.lattices import (
    FiniteGroupStructure,
    Lattice,
    LatticeContainmentError,
    quotient_structure,
)
from fmtori.matrices import Mat, hnf_columns, integer_kernel, snf, solve_exact
from fmtori.slopes import reduce_slope, slope_subvariety
from fmtori.varieties import _is_positive_definite, dual

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import (  # noqa: E402
    hermite_normal_form,
    invariant_factors,
    smith_normal_form,
)

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


@st.composite
def exact_matrices(draw, square=False):
    """Inputs for the fraction-free kernels: small or 2^40-sized integer
    matrices (uniform or rank deficient), or Fraction matrices with mixed
    denominators, some with large parts.  Some columns may then repeat a
    multiple of the column before them, so pivots skip columns, and the
    first column may start with zeros above a negative entry."""
    kind = draw(st.sampled_from(["small", "big", "fraction", "big fraction"]))
    if kind == "small":
        rows = draw(int_matrices(square=square))
    elif kind == "big":
        rows = draw(int_matrices(square=square, bound=2**40))
    else:
        n = draw(dims)
        cols = n if square else draw(dims)
        bound = 50 if kind == "fraction" else 2**40
        den = st.integers(1, 12 if kind == "fraction" else 2**20)
        entry = st.builds(Fraction, st.integers(-bound, bound), den)
        rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=n, max_size=n))
    for j in range(1, len(rows[0])):
        if draw(st.integers(0, 3)) == 0:
            c = draw(st.integers(-2, 2))
            for r in rows:
                r[j] = c * r[j - 1]
    if draw(st.booleans()):
        z = draw(st.integers(0, len(rows) - 1))
        for r in rows[:z]:
            r[0] = 0
        rows[z][0] = -abs(rows[z][0])
    return rows


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _from_sympy(m) -> list[list[Fraction]]:
    return [[_fraction(x) for x in m.row(i)] for i in range(m.rows)]


def _exact_form(m: Mat) -> bool:
    # ints, or Fractions that are not integers; never Fraction(n, 1)
    return all(type(x) is int or x.denominator > 1 for row in m.data for x in row)


@given(int_matrices(square=True, bound=2**40))
def test_det_matches_sympy(rows):
    assert Mat(rows).det() == int(sympy.Matrix(rows).det())


@given(exact_matrices())
def test_rank_matches_sympy(rows):
    assert Mat(rows).rank() == sympy.Matrix(rows).rank()


@given(exact_matrices(square=True))
def test_inverse_matches_sympy(rows):
    m = sympy.Matrix(rows)
    if m.det() == 0:
        with pytest.raises(ValueError):
            Mat(rows).inverse()
        return
    inv = Mat(rows).inverse()
    assert inv == Mat(_from_sympy(m.inv()))
    assert _exact_form(inv)


@given(exact_matrices(), st.data())
def test_solve_exact_matches_sympy(rows, data):
    a = Mat(rows)
    if data.draw(st.booleans()):
        b = data.draw(st.lists(st.integers(-9, 9), min_size=a.rows, max_size=a.rows))
    else:
        x0 = data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
        b = list(a.apply(x0))
    x = solve_exact(a, b)
    try:
        sol, params = sympy.Matrix(rows).gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:  # sympy: the system is inconsistent
        assert x is None
        return
    # the reduced echelon solution with every free coordinate 0, exactly
    expected = tuple(_fraction(v) for v in sol.subs({t: 0 for t in params}))
    assert x == expected
    assert all(type(v) is int or v.denominator > 1 for v in x)


@given(st.data())
def test_products_match_sympy(data):
    a, b = data.draw(exact_matrices()), data.draw(exact_matrices())
    b = [b[i % len(b)] for i in range(len(a[0]))]  # as many rows as a has columns
    c = data.draw(st.one_of(st.integers(-(2**40), 2**40),
                            st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))))
    prod = Mat(a) @ Mat(b)
    scaled = c * Mat(a)
    assert prod == Mat(_from_sympy(sympy.Matrix(a) * sympy.Matrix(b)))
    assert scaled == Mat(_from_sympy(sympy.sympify(c) * sympy.Matrix(a)))
    assert _exact_form(prod) and _exact_form(scaled)


@given(int_matrices())
def test_smith_invariant_factors_match_sympy(rows):
    ours = list(snf(Mat(rows)))
    theirs = [int(x) for x in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
    assert ours == theirs


@st.composite
def overlattices(draw):
    """(scale, n, d, G): the lattice scale * (Z^n + (1/d) G Z^n) for n <= 6,
    d <= 12 and up to n + 1 integer columns G; a scale above 1 drops a
    period unless the lattice holds (1/scale) Z^n."""
    n, d = draw(dims), draw(st.integers(1, 12))
    cols = draw(st.lists(st.lists(st.integers(-d, d), min_size=n, max_size=n), max_size=n + 1))
    return draw(st.sampled_from((1, 1, 2, 3))), n, d, cols


@given(overlattices())
@example((1, 2, 6, [[1, 0], [0, 2]]))
@example((2, 2, 1, []))
def test_quotient_structure_matches_the_sympy_smith_form(case):
    # with the canonical basis N/d, Z^n lies in L iff d N^-1 is integral,
    # and then L/Z^n is Z^n / d N^-1 Z^n, whose divisors sympy reads off
    scale, n, d, cols = case
    gens = Mat.hstack(Mat.identity(n), *([Fraction(1, d) * Mat.from_cols(cols)] if cols else []))
    lattice = Lattice(gens).scaled(scale)
    num, den = lattice.basis.cleared()
    periods = sympy.Matrix(num.data).inv() * den
    if not all(x.is_integer for x in periods):
        with pytest.raises(LatticeContainmentError, match="not contained"):
            quotient_structure(lattice)
        return
    theirs = smith_normal_form(periods, domain=sympy.ZZ)
    diag = sorted(abs(int(theirs[i, i])) for i in range(n))
    assert quotient_structure(lattice) == FiniteGroupStructure.from_diagonal(tuple(diag))


@given(exact_matrices(square=True), st.integers(-2, 2))
def test_one_pass_sylvester_matches_sympy_on_symmetric_matrices(rows, shift):
    # symmetric draws: m + m^T (mostly indefinite) and shifted Gram matrices
    # m^T m + shift*I (semidefinite, definite, or just off either)
    m = Mat(rows)
    for s in (mat_sum(m, m.T), mat_sum(m.T @ m, shift * Mat.identity(m.rows))):
        assert _is_positive_definite(s) == sympy.Matrix(s.data).is_positive_definite


def test_one_pass_sylvester_matches_sympy_on_the_dual_polarizations():
    # the pairing hd @ jd that dual reads the sign of its polarization off,
    # on the dual of every shipped variety, with both signs of hd
    seen = 0
    for fname in corpus.shipped_names():
        doc = json.loads(corpus_text(fname))
        if doc["format"] != "fmtori/variety":
            continue
        d = dual(corpus.variety_from_json(doc))
        hd = d.polarization_class()
        for sign in (1, -1):
            s = sign * hd @ d.j
            want = sympy.Matrix(s.data).is_positive_definite
            assert _is_positive_definite(s) == want
            assert want == (sign == 1)
            seen += 1
    assert seen == 8


@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4), st.sampled_from((2, 3, 4, 6)))
def test_torsion_kernel_order_matches_sympy(coeffs, l):
    # e y = 0 mod l has prod gcd(d, l) solutions over the invariant factors d
    e = square_curve_product().ns_class(coeffs).e
    factors = [int(x) for x in invariant_factors(sympy.Matrix(e.data), domain=sympy.ZZ)]
    factors += [0] * (e.rows - len(factors))
    assert product_audit._torsion_kernel_order(e, l) == math.prod(math.gcd(d, l) for d in factors)


def test_paired_divisor_sample_matches_sympy_smith_form():
    # the paired-divisor criterion rests on snf alone: on its 50 classes,
    # sympy's Smith form has the same invariant factors up to sign, and a
    # det filter by sympy skips the same draws
    sample = acceptance._paired_divisor_sample()
    p = square_curve_product()
    rng = random.Random(acceptance._C2_SEED)
    kept = []
    while len(kept) < 50:
        coeffs = tuple(rng.randint(-5, 5) for _ in p.ns_basis)
        if any(coeffs) and sympy.Matrix(p.ns_class(coeffs).e.data).det() != 0:
            kept.append(coeffs)
    assert [coeffs for coeffs, _, _ in sample] == kept
    for _, cls, diag in sample:
        theirs = smith_normal_form(sympy.Matrix(cls.e.data), domain=sympy.ZZ)
        assert tuple(abs(int(theirs[i, i])) for i in range(theirs.rows)) == diag


def _hyperbolic(n):
    z, i = sympy.zeros(n, n), sympy.eye(n)
    return sympy.Matrix(sympy.BlockMatrix([[z, i], [i, z]]))


def test_eta_isometry_and_dual_certificate_match_sympy():
    # on the gate's three all-pass audits, sympy recomputes eta = p q^-1
    # from the rows of the audited subtorus, the form eta^T Q_B eta, and the
    # dual-factor columns solved in the embedded lattice of B_delta
    a = square_lattice_curve()
    reports = [product_audit.audit_equivalence(poincare_class(), 1)]
    reports += product_audit._search_product_classes(a, a, 2, 2, 1, 2)
    assert len(reports) == 3
    for report in reports:
        pc, l = report.pc, report.l
        na, nb = pc.a.dim, pc.b.dim
        half = na + nb
        emb = sympy.Matrix(report.subtorus.to_ambient.m.data)
        cols = list(range(emb.cols))
        q = emb.extract(list(range(na)) + list(range(half, half + na)), cols)
        p = emb.extract(list(range(na, half)) + list(range(half + na, 2 * half)), cols)
        eta = p * q.inv()
        iso = product_audit.projection_iso(report)
        assert iso.eta.m == Mat(_from_sympy(eta))
        assert eta.T * _hyperbolic(nb) * eta == -_hyperbolic(na)
        b_delta = slope_subvariety(reduce_slope(pc.block_b, l))
        x, params = sympy.Matrix(b_delta.to_ambient.m.data).gauss_jordan_solve(eta[:, na:2 * na])
        assert not params
        assert all(v.is_integer for v in x) and abs(x.det()) == 1
        assert iso.dual_certificate.m == Mat(_from_sympy(x))


# -- the normal forms, compared as lattices ---------------------------------
#
# sympy's Hermite form follows other sign and shape conventions than
# hnf_columns (it drops zero columns and orders pivots from the bottom), so
# the bases are compared by what they span: each column of one solves
# integrally in the other, by sympy's own rational solver.


def _solves_integrally(basis, v) -> bool:
    sol, params = basis.gauss_jordan_solve(v)
    assert not params  # a basis has independent columns
    return all(x.is_integer for x in sol)


def _same_lattice(ours: Mat, theirs) -> bool:
    ours = sympy.Matrix(ours.rows, ours.cols, [x for row in ours.data for x in row])
    if ours.cols == 0 or theirs.cols == 0:
        return ours.cols == theirs.cols
    return all(_solves_integrally(ours, theirs.col(j)) for j in range(theirs.cols)) and all(
        _solves_integrally(theirs, ours.col(j)) for j in range(ours.cols)
    )


def _nonzero_columns(m: Mat) -> Mat:
    return m.submatrix(range(m.rows), [j for j, col in enumerate(m.T.data) if any(col)])


@given(int_matrices(bound=2**40))
def test_hnf_columns_spans_the_sympy_hermite_lattice(rows):
    h = _nonzero_columns(hnf_columns(Mat(rows)))
    theirs = hermite_normal_form(sympy.Matrix(rows))
    assert h.cols == theirs.cols == sympy.Matrix(rows).rank()
    assert _same_lattice(h, theirs)


@given(exact_matrices())
def test_lattice_basis_spans_the_sympy_hermite_lattice(rows):
    # rational generators: sympy's Hermite form of d * m, over d
    m = Mat(rows)
    basis = Lattice(m).basis
    d = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    cleared = [[int(x * d) for x in row] for row in rows]
    theirs = hermite_normal_form(sympy.Matrix(cleared)) / d
    assert basis.cols == theirs.cols
    assert _same_lattice(basis, theirs)


@given(exact_matrices())
def test_integer_kernel_is_the_saturated_sympy_nullspace(rows):
    m, k = sympy.Matrix(rows), integer_kernel(Mat(rows))
    assert k.rows == m.cols and k.cols == m.cols - m.rank()
    if k.cols == 0:
        return
    ks = sympy.Matrix(k.rows, k.cols, [x for row in k.data for x in row])
    assert (m * ks).is_zero_matrix
    assert all(int(x) == 1 for x in invariant_factors(ks, domain=sympy.ZZ))
