"""sympy as a third, independent oracle for the variety layer.

``intertwiner_basis`` and ``_compatible_forms`` each solve one integer
system, ``dual`` transports the NS data by 2x2 minors or reads the full
lattice, and ``validate`` decides NS independence on one echelon; here
sympy recomputes them from their definitions, with its own nullspace,
inverse, rank and Smith decomposition:

* the integral intertwiners m with m J_src = J_dst m are the saturated
  nullspace of (I (x) J_src^T - J_dst (x) I) vec(m), vec row-major;
* the integral alternating J-compatible forms are the saturated nullspace
  of the map from upper coordinates u to J^T e(u) J - e(u);
* the NS lattice of the dual is the saturated span of h^-T e h^-1 over the
  NS basis classes e, for the designated class h;
* NS classes are independent when the matrix of their flattened entries has
  full rank.

The inputs are the shipped varieties, their duals, and seeded rational
conjugates: for an integer P, the complex structure P J P^-1 with the forms
P^-T e P^-1.  The package itself never imports sympy; these tests skip
where it is not installed.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import SHIPPED_VARIETIES
from hypothesis import given
from hypothesis import strategies as st

from fmtori.corpus import square_curve_product
from fmtori.matrices import Mat
from fmtori.varieties import TorusVariety, _compatible_forms, dual, intertwiner_basis, validate

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp  # noqa: E402

SHIPPED = ("e_i.json", "e_2i.json", "e_i_x_e_i.json", "e_i_x_e_i_ppav.json")
SEED = 20_411


def _sym(m: Mat):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.data for x in row])


def _mat(m) -> Mat:
    return Mat([[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)])


def _flat(m):
    return m.reshape(m.rows * m.cols, 1)


def _saturated(vectors):
    """Basis columns of the integral points of the Q-span of rational
    vectors: with S = U B V the Smith decomposition of their integer
    multiples B, B spans d_i times the first rank columns of U^-1, and those
    columns span the saturation, because U is unimodular."""
    if not vectors:
        return sympy.zeros(0, 0)
    b = sympy.Matrix.hstack(*[v * sympy.ilcm(1, *(x.q for x in v)) for v in vectors])
    _, u, _ = smith_normal_decomp(b, domain=sympy.ZZ)
    return u.inv()[:, : b.rank()]


def _same_lattice(ours: list, theirs) -> bool:
    """The columns ours and theirs span one lattice: sympy's Hermite forms agree."""
    if not ours or theirs.cols == 0:
        return len(ours) == theirs.cols
    return hermite_normal_form(sympy.Matrix.hstack(*ours)) == hermite_normal_form(theirs)


def _shipped() -> list[TorusVariety]:
    return [SHIPPED_VARIETIES[name] for name in SHIPPED]


def _conjugate(v: TorusVariety, rng: random.Random) -> TorusVariety:
    """v on the lattice P^-1 Z^2g, read in its standard basis: complex
    structure P J P^-1, NS lattice the saturated span of P^-T e P^-1, and
    the designated class the primitive integral one on the ray of
    P^-T h P^-1; all of it computed in sympy."""
    n = v.dim
    p = sympy.zeros(n, n)
    while p.det() == 0:
        p = sympy.Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
    pi = p.inv()
    ns = _saturated([_flat(pi.T * _sym(e) * pi) for e in v.ns_basis])
    h = _flat(pi.T * _sym(v.polarization_class()) * pi)
    h = h * sympy.ilcm(1, *(x.q for x in h))
    h = h / sympy.igcd(*h)
    coeffs, params = ns.gauss_jordan_solve(h)
    assert not params
    forms = tuple(_mat(ns[:, k].reshape(n, n)) for k in range(ns.cols))
    conj = TorusVariety(v.g, _mat(p * _sym(v.j) * pi), forms, tuple(int(c) for c in coeffs),
                        name=v.name + "'")
    assert validate(conj).ok
    return conj


def _varieties() -> list[TorusVariety]:
    rng = random.Random(SEED)
    shipped = _shipped()
    return (shipped + [dual(v) for v in shipped]
            + [_conjugate(v, rng) for v in shipped for _ in range(2)])


VARIETIES = _varieties()


def _sylvester_kernel(j_src: Mat, j_dst: Mat):
    s, t = _sym(j_src), _sym(j_dst)
    system = (sympy.kronecker_product(sympy.eye(t.rows), s.T)
              - sympy.kronecker_product(t, sympy.eye(s.rows)))
    return _saturated(system.nullspace())


def _pairs():
    """(source, target) complex structures: each variety with itself and its
    dual, every shipped pair, and every variety with its conjugates."""
    js = [v.j for v in VARIETIES]
    k = len(SHIPPED)
    pairs = [(j, j) for j in js] + [(j, -1 * j.T) for j in js]
    pairs += [(js[a], js[b]) for a in range(k) for b in range(k) if a != b]
    for i in range(k):
        for c in (2 * k + 2 * i, 2 * k + 2 * i + 1):
            pairs += [(js[i], js[c]), (js[c], js[i])]
    return pairs


@pytest.mark.parametrize("j_src, j_dst", _pairs())
def test_intertwiner_basis_is_the_saturated_sympy_nullspace(j_src, j_dst):
    ours = [_flat(_sym(m)) for m in intertwiner_basis(j_src, j_dst)]
    assert _same_lattice(ours, _sylvester_kernel(j_src, j_dst))


@pytest.mark.parametrize("v", VARIETIES, ids=lambda v: v.name)
def test_dual_ns_lattice_is_the_saturated_transport(v):
    h = _sym(v.polarization_class())
    hi = h.inv()
    theirs = _saturated([_flat(hi.T * _sym(e) * hi) for e in v.ns_basis])
    d = dual(v)
    assert _same_lattice([_flat(_sym(e)) for e in d.ns_basis], theirs)
    assert d.j == -1 * v.j.T
    # the designated dual class is primitive and lies on the ray of h^-1
    p = _sym(d.polarization_class())
    assert sympy.igcd(*p) == 1
    scalar = (p * h)[0, 0]
    assert scalar != 0 and p * h == scalar * sympy.eye(v.dim)
    assert validate(d).ok
    # validate tests only the sign of the pairing h J, which is symmetric
    # whenever the classes are J-compatible and J^2 = -I
    assert all(s.T == s for s in (x.polarization_class() @ x.j for x in (v, d)))


def _compatible_kernel(j: Mat):
    """The integral alternating forms e with j^T e j = e, as the saturated
    nullspace of the map from upper coordinates to j^T e j - e."""
    n, s = j.rows, _sym(j)
    columns = []
    for p, q in combinations(range(n), 2):
        e = sympy.zeros(n, n)
        e[p, q], e[q, p] = 1, -1
        columns.append(_flat(s.T * e * s - e))
    return _saturated(sympy.Matrix.hstack(*columns).nullspace())


def _is_row_hermite(rows) -> bool:
    """Pivots positive at strictly increasing columns, and the entries
    above each pivot reduced into [0, pivot)."""
    pivots = [next(k for k, x in enumerate(r) if x) for r in rows]
    return (
        pivots == sorted(set(pivots))
        and all(r[c] > 0 for r, c in zip(rows, pivots))
        and all(0 <= rows[i][c] < rows[k][c] for k, c in enumerate(pivots) for i in range(k))
    )


@pytest.mark.parametrize("v", VARIETIES, ids=lambda v: v.name)
def test_compatible_forms_are_the_saturated_sympy_nullspace(v):
    for j in (v.j, -1 * v.j.T):
        ours, _ = _compatible_forms(j)
        assert len(ours) == v.g**2 and _is_row_hermite(ours)
        assert _same_lattice([sympy.Matrix(r) for r in ours], _compatible_kernel(j))


_INDEPENDENCE = "ns_basis is not Z-linearly independent"


@st.composite
def _class_sets(draw):
    """1 to 5 square classes on E_i x E_i: combinations of its NS basis,
    sums of two classes drawn before (dependent by construction), and
    arbitrary rational matrices, which need not be alternating."""
    p = square_curve_product()
    classes = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("combination", "sum", "matrix")))
        if kind == "sum" and classes:
            a, b = draw(st.sampled_from(classes)), draw(st.sampled_from(classes))
            classes.append(Mat([[x + y for x, y in zip(r, t)] for r, t in zip(a.data, b.data)]))
        elif kind == "matrix":
            entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
            classes.append(Mat(draw(st.lists(st.lists(entry, min_size=4, max_size=4),
                                             min_size=4, max_size=4))))
        else:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))
            classes.append(p.class_matrix(coeffs))
    return p, tuple(classes)


@given(_class_sets())
def test_validate_independence_matches_the_sympy_rank(case):
    p, classes = case
    v = TorusVariety(p.g, p.j, classes, (1,) * len(classes))
    flat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for row in e.data for x in row]
                         for e in classes])
    assert (_INDEPENDENCE not in validate(v).failures) == (flat.rank() == len(classes))
