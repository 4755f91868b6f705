"""Answers do not depend on the lattice basis that presents a variety.

``conftest.transported`` presents a variety A in another basis U of its
period lattice: T_U(A) = (U^-1 J U, U^T e U for each NS basis class, the
same polarization coefficients).  U is an isomorphism T_U(A) -> A and the NS
basis order is kept, so every invariant and every answer given in NS
coefficients must be equal on A and on T_U(A), and the presentation-level
answers (class matrices, subgroup lattices) must move by U.  Fingerprints
and bounded certificate searches are presentation-level and are not
compared here.
"""

import itertools
import json
from functools import cache

import pytest
from conftest import SHIPPED_VARIETIES, entry_slope, transported, unimodular
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtori import corpus
from fmtori.cli import main
from fmtori.lattices import Lattice
from fmtori.matrices import Mat, snf
from fmtori.partners import enumerate_partners
from fmtori.product_audit import (
    ProductNSClass,
    _product_variety,
    audit_equivalence,
    kernel_torsion_subgroup,
    projection_iso,
    search_kernel_class,
)
from fmtori.slopes import projection_invariants, reduce_slope, slope_kernel
from fmtori.varieties import (
    class_kernel,
    coefficients_in_basis,
    is_isomorphism_certificate,
    torsion_subgroup,
    validate,
)

VARIETIES = {
    "e_i": corpus.square_lattice_curve(),
    "e_2i": SHIPPED_VARIETIES["e_2i.json"],
    "e_i_squared": corpus.square_curve_product(),
}
NAMES = pytest.mark.parametrize("name", VARIETIES)


def _first_class(a):
    # E0, the first NS basis class
    return a.ns_class((1,) + (0,) * (len(a.ns_basis) - 1))


@NAMES
@given(data=st.data())
@settings(max_examples=15)
def test_validation_and_polarization_divisors_are_invariant(name, data):
    a = VARIETIES[name]
    t = transported(a, data.draw(unimodular(a.dim)))
    assert validate(t).ok
    assert snf(t.polarization_class()) == snf(a.polarization_class())


@NAMES
@given(data=st.data())
@settings(max_examples=12)
def test_slope_kernel_and_projection_invariants_are_invariant(name, data):
    a = VARIETIES[name]
    u = data.draw(unimodular(a.dim))
    t = transported(a, u)
    for l in (1, 2, 3):
        mu, mu_t = reduce_slope(_first_class(a), l), reduce_slope(_first_class(t), l)
        assert mu_t.l == mu.l and mu_t.numerator.e == u.T @ mu.numerator.e @ u
        inv, inv_t = projection_invariants(mu), projection_invariants(mu_t)
        assert (inv_t.degree, inv_t.rank) == (inv.degree, inv.rank)
        assert inv_t.stabilizer.divisors == inv.stabilizer.divisors
        kern, kern_t = slope_kernel(mu), slope_kernel(mu_t)
        assert (kern_t.order, kern_t.divisors) == (kern.order, kern.divisors)
        # v lies in the member lattice of T_U(A) exactly when U v lies in A's
        assert Lattice(u @ kern_t.overlattice.basis) == kern.overlattice


@cache
def _full_torsion_hit(name: str, l: int):
    a = VARIETIES[name]
    return search_kernel_class(a, l, torsion_subgroup(a, l), l)


@NAMES
@given(data=st.data())
@settings(max_examples=10)
def test_kernel_class_search_for_the_full_torsion_is_invariant(name, data):
    a = VARIETIES[name]
    u = data.draw(unimodular(a.dim))
    t = transported(a, u)
    for l in (2, 3):
        hit = _full_torsion_hit(name, l)
        hit_t = search_kernel_class(t, l, torsion_subgroup(t, l), l)
        assert hit is not None and hit_t is not None
        assert coefficients_in_basis(hit_t.e, t.ns_basis) == coefficients_in_basis(
            hit.e, a.ns_basis
        )
        assert hit_t.e == u.T @ hit.e @ u


@cache
def _box_kernels(l: int):
    """(coefficients, K(e) meet A[l]) for every nonzero class of the bound-2
    box on E_i x E_i, degenerate classes included."""
    a = VARIETIES["e_i_squared"]
    box = itertools.product(range(-2, 3), repeat=len(a.ns_basis))
    return [(c, kernel_torsion_subgroup(a, a.ns_class(c), l)) for c in box if any(c)]


@cache
def _box_class_kernels():
    """(coefficients, K(e)) for every nondegenerate class of the bound-2 box."""
    a = VARIETIES["e_i_squared"]
    classes = [(c, a.ns_class(c)) for c, _ in _box_kernels(2)]
    return [(c, class_kernel(cls)) for c, cls in classes if cls.e.det() != 0]


@given(data=st.data())
@settings(max_examples=3)
def test_torsion_kernels_of_the_bound_2_box_move_by_u(data):
    a = VARIETIES["e_i_squared"]
    u = data.draw(unimodular(a.dim))
    t, u_inv = transported(a, u), u.inverse()
    assert any(a.ns_class(c).e.det() == 0 for c, _ in _box_kernels(2))
    for l in (2, 3, 4):
        for c, kern in _box_kernels(l):
            cls_t = t.ns_class(c)
            assert cls_t.e == u.T @ a.ns_class(c).e @ u
            kern_t = kernel_torsion_subgroup(t, cls_t, l)
            # v is in K(U^T e U) exactly when U v is in K(e)
            assert kern_t.overlattice == Lattice(u_inv @ kern.overlattice.basis)
    # and so does the whole class kernel of each nondegenerate class
    for c, kern in _box_class_kernels():
        kern_t = class_kernel(t.ns_class(c))
        assert kern_t.overlattice == Lattice(u_inv @ kern.overlattice.basis)


@cache
def _partners(name: str):
    return enumerate_partners(VARIETIES[name], 1, 2)


@NAMES
@given(data=st.data())
@settings(max_examples=5)
def test_partner_coefficients_and_denominators_are_invariant(name, data):
    a = VARIETIES[name]
    u = data.draw(unimodular(a.dim))
    t = transported(a, u)
    entries, entries_t = _partners(name), enumerate_partners(t, 1, 2)
    assert [(e.coefficients, e.denominator) for e in entries_t] == [
        (e.coefficients, e.denominator) for e in entries
    ]
    for e, e_t in zip(entries, entries_t):
        assert entry_slope(t, e_t).numerator.e == u.T @ entry_slope(a, e).numerator.e @ u


# product classes on E_i x E_i, by coefficients in the product NS basis, with
# the denominator they are audited over: all-pass at l = 1, 2 and 3, and four
# failing patterns
AUDIT_CASES = (
    ((-1, 1, -1, 0), 2),
    ((-2, 1, -1, 0), 3),
    ((-2, 1, -1, 0), 2),
    ((-2, 2, -1, -1), 2),
    ((-2, 1, -2, -2), 3),
    ((-1, -1, 0, 0), 1),
)


@cache
def _audits():
    e_i = VARIETIES["e_i"]
    prod = _product_variety(e_i, e_i)
    cases = [(corpus.poincare_class().m, 1)]
    cases += [(prod.class_matrix(c), l) for c, l in AUDIT_CASES]
    return [(m, l, audit_equivalence(ProductNSClass(e_i, e_i, m), l)) for m, l in cases]


@given(u_a=unimodular(2), u_b=unimodular(2))
@settings(max_examples=12)
def test_audit_outcomes_are_invariant_and_eta_stays_anti_isometric(u_a, u_b):
    e_i = VARIETIES["e_i"]
    a, b = transported(e_i, u_a), transported(e_i, u_b)
    v = Mat.block([[u_a, Mat.zeros(2, 2)], [Mat.zeros(2, 2), u_b]])
    audits = _audits()
    assert [r.all_pass for _, _, r in audits].count(True) == 3
    for m, l, report in audits:
        report_t = audit_equivalence(ProductNSClass(a, b, v.T @ m @ v), l)
        assert report_t.items == report.items
        if report.all_pass:
            # projection_iso raises unless eta is an anti-isometry and its
            # dual factor is a unimodular map onto the B-block subtorus
            iso = projection_iso(report_t)
            assert is_isomorphism_certificate(iso.eta)
            assert is_isomorphism_certificate(iso.dual_certificate)


# kl and amu reports on E_i x E_i: kl classes with kernels (2,2,2,2), (3,3),
# (2,2) and none, and the slope of E0 over 2
CLI_CASES = (
    ("kl", "--class", "2*E0+2*E1"),
    ("kl", "--class", "E0+3*E1"),
    ("kl", "--class", "E0+3*E1+E2"),
    ("kl", "--class", "2*E0+E1+E3"),
    ("amu", "--slope", "E0/2"),
)


def _cli_reports(path, directory):
    reports = []
    for k, (command, option, literal) in enumerate(CLI_CASES):
        out = directory / f"report{k}.json"
        assert main([command, str(path), option, literal, "--json", str(out)]) == 0
        reports.append(json.loads(out.read_text("utf-8")))
    return reports


def _invariant_part(report):
    """The report without its presentation-level parts: the slope numerator
    moves by U, and of the subtorus only g and the NS rank are compared."""
    if report["command"] == "kl":
        return report
    kept = {k: v for k, v in report.items() if k not in ("slope", "subtorus")}
    sub = report["subtorus"]
    return kept | {"subtorus": (sub["g"], len(sub["ns_basis"]))}


@given(u=unimodular(4))
@settings(max_examples=4)
def test_kl_and_amu_reports_are_invariant(tmp_path_factory, u):
    a = VARIETIES["e_i_squared"]
    d = tmp_path_factory.mktemp("transported")
    for name, v in (("a.json", a), ("t.json", transported(a, u))):
        (d / name).write_text(corpus.render_json(corpus.variety_to_json(v)), "utf-8")
    reports = _cli_reports(d / "a.json", d)
    reports_t = _cli_reports(d / "t.json", d)
    assert [r["divisors"] for r in reports[:4]] == [[2, 2, 2, 2], [3, 3], [2, 2], []]
    assert [_invariant_part(r) for r in reports_t] == [_invariant_part(r) for r in reports]
