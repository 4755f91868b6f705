from fractions import Fraction

import pytest
from conftest import bench_imported
from hypothesis import given
from hypothesis import strategies as st

from fmtori import acceptance, lattices, matrices, oracles, varieties
from fmtori.lattices import Lattice
from fmtori.matrices import Mat
from fmtori.varieties import FiniteSubgroup, class_kernel, torsion_subgroup, trivial_subgroup


def test_torsion_point_counts():
    assert len(oracles.torsion_points(2, 1)) == 1
    assert len(oracles.torsion_points(2, 3)) == 9
    assert len(oracles.torsion_points(4, 2)) == 16


def test_mod1_wraps_into_unit_box():
    assert oracles.mod1((Fraction(3, 2), Fraction(-1, 4))) == (
        Fraction(1, 2),
        Fraction(3, 4),
    )


def test_order_counts_against_formula():
    # Z/4 x Z/4 has gcd(4, k)^2 points of order dividing k
    pts = oracles.torsion_points(2, 4)
    assert oracles.order_counts(pts, 4) == oracles.predicted_order_counts((4, 4), 4)


def test_kernel_points_match_normal_form(e_i):
    cls = e_i.ns_class((3,))
    pts = oracles.kernel_points_of_class(cls.e, 3)
    kern = class_kernel(cls)
    assert len(pts) == kern.order == 9
    assert oracles.same_point_sets(pts, oracles.subgroup_points(kern))


def test_subgroup_points_rejects_wrong_order(e_i):
    # deliberately lie about the structure by monkeying the subgroup order
    sub = torsion_subgroup(e_i, 2)
    pts = oracles.subgroup_points(sub)
    assert len(pts) == 4


def test_point_in_subgroup(e_i):
    # coset membership, read off the enumerated subgroup
    half = set(oracles.subgroup_points(torsion_subgroup(e_i, 2)))
    assert (Fraction(1, 2), Fraction(1, 2)) in half
    assert (Fraction(1, 3), Fraction(0)) not in half
    assert (0, 0) in set(oracles.subgroup_points(trivial_subgroup(e_i)))


# -- the integer routes against the Fraction routes they replaced ---------------


def _ref_apply(m: Mat, v) -> tuple:
    return tuple(sum(Fraction(a) * b for a, b in zip(row, v)) for row in m.data)


def _ref_kernel_points(e: Mat, l: int) -> list:
    """torsion_points filtered by Fraction arithmetic."""
    return [
        p for p in oracles.torsion_points(e.cols, l)
        if all(x.denominator == 1 for x in _ref_apply(e, p))
    ]


def _solve_columns(basis: Mat, rhs) -> list[list[Fraction]] | None:
    """Plain Gaussian elimination on [basis | rhs...], free of normal forms:
    one solution per right-hand side column in rhs, or None when any of
    them is inconsistent."""
    rows = [[Fraction(basis[i, j]) for j in range(basis.cols)] + [Fraction(b[i]) for b in rhs]
            for i in range(basis.rows)]
    ncols = basis.cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(x != 0 for row in rows[r:] for x in row[ncols:]):
        return None
    sols = [[Fraction(0)] * ncols for _ in rhs]
    for i, c in enumerate(pivots):
        for sol, x in zip(sols, rows[i][ncols:]):
            sol[c] = x
    return sols


def test_solver_handles_rectangular_inconsistency():
    basis = Mat(((1,), (1,)))
    assert _solve_columns(basis, [(1, 0)]) is None
    assert _solve_columns(basis, [(2, 2)]) == [[Fraction(2)]]
    # one inconsistent column makes the whole system inconsistent
    assert _solve_columns(basis, [(2, 2), (1, 0)]) is None
    assert _solve_columns(basis, [(2, 2), (-1, -1)]) == [[Fraction(2)], [Fraction(-1)]]


def _ref_subgroup_points(sub) -> list:
    """torsion_points filtered by one elimination per point."""
    basis = sub.overlattice.basis
    out = []
    for p in oracles.torsion_points(sub.variety.dim, sub.structure.exponent):
        sol = _solve_columns(basis, [p])
        if sol is not None and all(x.denominator == 1 for x in sol[0]):
            out.append(p)
    return out


@pytest.fixture(scope="module")
def gate_oracle_calls():
    """The arguments of every kernel_points_of_class, subgroup_points and
    integral_on call of one gate run."""
    calls = {name: [] for name in ("kernel_points_of_class", "subgroup_points", "integral_on")}
    with pytest.MonkeyPatch.context() as mp:
        for name, seen in calls.items():
            original = getattr(oracles, name)
            mp.setattr(oracles, name,
                       lambda *a, original=original, seen=seen: seen.append(a) or original(*a))
        assert acceptance.run_all()["ok"]
    return calls


def test_gate_kernel_points_match_the_fraction_route(gate_oracle_calls):
    calls = gate_oracle_calls["kernel_points_of_class"]
    assert calls
    for e, l in calls:
        assert oracles.kernel_points_of_class(e, l) == _ref_kernel_points(e, l)


def test_gate_subgroup_points_match_the_fraction_route(gate_oracle_calls):
    calls = gate_oracle_calls["subgroup_points"]
    assert calls
    for (sub,) in calls:
        assert oracles.subgroup_points(sub) == _ref_subgroup_points(sub)


def test_gate_integrality_tests_match_the_fraction_route(gate_oracle_calls):
    calls = gate_oracle_calls["integral_on"]
    assert calls
    for m, n in calls:
        test = oracles.integral_on(m, n)
        for k in oracles.torsion_numerators(m.cols, n):
            p = tuple(Fraction(x, n) for x in k)
            assert test(k) == all(x.denominator == 1 for x in _ref_apply(m, p))


entries = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def square_matrices(draw, scalars):
    n = draw(st.sampled_from((2, 4)))
    return Mat([[draw(scalars) for _ in range(n)] for _ in range(n)])


@given(square_matrices(st.one_of(entries, rationals)), st.integers(1, 4))
def test_kernel_points_match_the_fraction_route(e, l):
    assert oracles.kernel_points_of_class(e, l) == _ref_kernel_points(e, l)


@given(square_matrices(entries), st.integers(1, 4))
def test_subgroup_points_match_the_fraction_route(e_i, e_i_squared, m, l):
    # the overlattice Z^n + (1/l) m Z^n holds the periods, so it is a subgroup
    v = e_i if m.rows == 2 else e_i_squared
    lat = Lattice(Mat.hstack(Mat.identity(m.rows), Fraction(1, l) * m))
    sub = FiniteSubgroup(v, lat)
    assert oracles.subgroup_points(sub) == _ref_subgroup_points(sub)


def test_kernel_search_targets_match_the_fraction_route():
    with bench_imported() as (_, workloads):
        _, targets = workloads.build_kernel_search(1)
    assert len(targets) == 20
    for _, sub in targets:
        assert sub.variety.dim == 4
        assert oracles.subgroup_points(sub) == _ref_subgroup_points(sub)


# every elimination of the normal-form pipeline, as the modules bind them
ELIMINATIONS = ("_bareiss", "_gauss_jordan", "_row_echelon", "_row_hnf", "hnf_columns",
                "integer_kernel", "snf", "solve_exact")


def test_subgroup_points_take_no_normal_form(gate_oracle_calls):
    subs = [sub for (sub,) in gate_oracle_calls["subgroup_points"]]
    assert len(subs) == 15
    # the final count check reads the order off the Smith route, so take it first
    assert all(sub.order >= 1 for sub in subs)

    def refuse(*args, **kwargs):
        raise AssertionError("the point oracle took a normal form")

    with pytest.MonkeyPatch.context() as mp:
        for module in (matrices, lattices, varieties):
            for name in ELIMINATIONS:
                if hasattr(module, name):
                    mp.setattr(module, name, refuse)
        for name in ("det", "inverse", "rank"):
            mp.setattr(Mat, name, refuse)
        for sub in subs:
            oracles.subgroup_points(sub)


def _bound_from(module) -> list[str]:
    return sorted(name for name, value in vars(oracles).items()
                  if value is module or getattr(value, "__module__", None) == module.__name__)


def test_the_oracles_bind_nothing_of_the_normal_form_modules():
    assert _bound_from(lattices) == []
    assert _bound_from(matrices) == ["Mat"]
