"""The regression gate: every identity the package promises, at desk scale.

Each criterion function returns a JSON-serializable dict with a ``name``, an
``ok`` flag and enough detail to diagnose a failure from the report alone.
The checks are the frozen contract of the library; loosening one is a release
decision, not a refactor.  Random draws are seeded so a report is a pure
function of the code: the test suite compares its bytes with the committed
golden report across hash seeds and warm caches.
"""

from __future__ import annotations

import itertools
import random
from math import gcd
from operator import index, mul

from . import oracles
from .corpus import (
    poincare_class,
    square_curve_product,
    square_lattice_curve,
)
from .lattices import FiniteGroupStructure
from .matrices import Mat, combination_map, snf
from .partners import find_isomorphism_certificate, ppav_rigidity_check
from .product_audit import (
    _search_product_classes,
    audit_equivalence,
    projection_iso,
    search_kernel_class,
)
from .slopes import (
    Slope,
    projection_invariants,
    reduce_slope,
    slope_kernel,
    slope_subvariety,
)
from .varieties import (
    Homomorphism,
    NSClass,
    class_kernel,
    dual,
    intertwiner_basis,
    is_isomorphism_certificate,
    ns_pullback,
    torsion_subgroup,
    trivial_subgroup,
)

_C2_SEED = 57201
_C9_SEED = 90114


def _result(name: str, ok: bool, **detail) -> dict:
    out = {"name": name, "ok": bool(ok)}
    out.update(detail)
    return out


def _intlist(m: Mat) -> list[list[int]]:
    # index raises TypeError on a Fraction entry, where int would truncate
    return [list(map(index, row)) for row in m.data]


def criterion_degree_law() -> dict:
    """Multiples of the square curve polarization: degree n^2, divisors (n, n),
    counted twice, once through normal forms and once point by point."""
    a = square_lattice_curve()
    h = a.polarization_class()
    rows = []
    ok = True
    for n in range(1, 7):
        cls = NSClass(a, n * h)
        kern = class_kernel(cls)
        pts = oracles.kernel_points_of_class(cls.e, n)
        counts = oracles.order_counts(pts, 6)
        predicted = oracles.predicted_order_counts(kern.divisors, 6)
        degree = cls.degree()
        good = (
            degree == n * n
            and kern.order == n * n
            and len(pts) == n * n
            and kern.divisors == ((n, n) if n > 1 else ())
            and counts == predicted
            and oracles.same_point_sets(pts, oracles.subgroup_points(kern))
        )
        ok = ok and good
        rows.append({"n": n, "degree": degree, "divisors": list(kern.divisors),
                     "enumerated": len(pts), "ok": good})
    return _result("degree_law", ok, cases=rows)


def _paired_divisor_sample() -> list[tuple[tuple[int, ...], NSClass, tuple[int, ...]]]:
    """The 50 nondegenerate classes on E_i x E_i that C2 samples from
    ``_C2_SEED``, each with its coefficients and the Smith invariants of e.

    A zero coefficient vector is drawn again.  A square integer matrix has
    det 0 exactly when its Smith form has a zero factor, so that factor is
    the degeneracy test and no determinant is taken.
    """
    p = square_curve_product()
    rng = random.Random(_C2_SEED)
    sample = []
    while len(sample) < 50:
        coeffs = tuple(rng.randint(-5, 5) for _ in p.ns_basis)
        if not any(coeffs):
            continue
        cls = p.ns_class(coeffs)
        diag = snf(cls.e)
        if 0 not in diag:
            sample.append((coeffs, cls, diag))
    return sample


def criterion_paired_divisors() -> dict:
    """Kernels of nondegenerate classes on the product have divisors in pairs.

    K(e) is isomorphic to Z^n / eZ^n (Mumford, *Abelian Varieties*,
    section 23), so its divisors are the Smith invariants of e, read here
    without building the kernel lattice.  The Smith form knows nothing of
    alternation, so the pairing (d1, d1, d2, d2) is still a real check.
    """
    sample = _paired_divisor_sample()
    failures = []
    for coeffs, _, diag in sample:
        # the invariants, 1s included, in divisibility order
        if not all(diag[i] == diag[i + 1] for i in range(0, len(diag), 2)):
            divisors = FiniteGroupStructure.from_diagonal(diag).divisors
            failures.append({"coefficients": list(coeffs), "divisors": list(divisors)})
    return _result("paired_divisors", not failures, sampled=len(sample),
                   seed=_C2_SEED, failures=failures)


def criterion_ppav_rigidity() -> dict:
    """Coprime (n, l) up to 5 on a principally polarized curve: the slope
    subtorus is the curve itself, with an explicit unimodular certificate."""
    a = square_lattice_curve()
    rows = []
    ok = True
    for n in range(1, 6):
        for l in range(1, 6):
            if gcd(n, l) != 1:
                continue
            check = ppav_rigidity_check(a, n, l)
            # check.ok is whether the certificate is unimodular:
            # ppav_rigidity_check raises otherwise
            good = check.ok and check.kernel.order == 1
            ok = ok and good
            rows.append({"n": n, "l": l, "kernel_order": check.kernel.order,
                         "certificate": _intlist(check.certificate.m), "ok": good})
    return _result("ppav_rigidity", ok, cases=rows)


def criterion_projection_counts() -> dict:
    """Reduced slopes nE0/l, |n| <= 3, l <= 4: the projection degree is a
    perfect square, the rank is l for unimodular numerators, and the
    stabilizer has exactly that many points."""
    a = square_lattice_curve()
    h = a.polarization_class()
    rows = []
    ok = True
    for n in range(-3, 4):
        for l in range(1, 5):
            num = NSClass(a, n * h)
            if gcd(num.e.content(), l) != 1:
                continue
            mu = Slope(num, l)
            inv = projection_invariants(mu)
            good = inv.rank * inv.rank == inv.degree and inv.stabilizer.order == inv.degree
            if abs(int(num.e.det())) == 1:
                good = good and inv.rank == l
            ok = ok and good
            rows.append({"n": n, "l": l, "degree": inv.degree, "rank": inv.rank,
                         "stabilizer_order": inv.stabilizer.order, "ok": good})
    return _result("projection_counts", ok, cases=rows)


def _audit_summary(report) -> dict:
    return {
        "class": _intlist(report.pc.m),
        "l": report.l,
        "all_pass": report.all_pass,
        "items": [{"name": it.name, "ok": it.passed} for it in report.items],
    }


def _criterion_poincare() -> tuple[dict, list]:
    pc = poincare_class()
    # one audit serves the summary and the projections
    report = audit_equivalence(pc, 1)
    summary = _audit_summary(report)
    kern = slope_kernel(reduce_slope(pc.as_class(), 1))
    iso = projection_iso(report)
    degree = abs(pc.correspondence.det())
    good = (
        summary["all_pass"]
        and kern.order == 1
        and degree == 1
        and is_isomorphism_certificate(iso.to_a_side)
        and is_isomorphism_certificate(iso.to_b_side)
        and is_isomorphism_certificate(iso.eta)
    )
    detail = _result("poincare_audit", good, audit=summary,
                     kernel_order=kern.order, projection_degree=degree,
                     eta=_intlist(iso.eta.m))
    return detail, ([(pc, 1, iso)] if good else [])


def _oracle_subgroup_checks(pc, l: int) -> dict:
    """Re-derive the audit's subgroup identities by enumerating torsion
    points."""
    # members of the slope lattice among l-torsion: x with l*x and M*x integral
    kern_count = len(oracles.kernel_points_of_class(pc.m, l))
    kern_order = slope_kernel(reduce_slope(pc.as_class(), l)).order

    level = l * l

    def inside(m, cls_matrix) -> bool:
        # every numerator k with m @ (k / l^2) integral: k / l^2 is killed
        # by l and by the class
        in_kernel = oracles.integral_on(m, level)
        killed = oracles.integral_on(cls_matrix, level)
        return all(
            killed(k) and all(x % l == 0 for x in k)
            for k in oracles.torsion_numerators(m.cols, level)
            if in_kernel(k)
        )

    # kernel of pi: A -> dual(B), whose matrix is the transposed
    # correspondence block, among torsion up to l^2, pointwise against
    # h_{m_A} and A_l; and of its dual against h_{m_B} and B_l
    corr = pc.correspondence
    inclusion_a = inside(corr.T, pc.block_a.e)
    inclusion_b = inside(corr, pc.block_b.e)

    # the partial-graph maps are the two column halves of the class matrix
    na, m = pc.a.dim, pc.m
    into_a = m.submatrix(range(m.rows), range(na))
    into_b = m.submatrix(range(m.rows), range(na, m.cols))
    set_a = {oracles.apply_mod1(into_a, p) for p in oracles.torsion_points(na, l)}
    set_b = {oracles.apply_mod1(into_b, p) for p in oracles.torsion_points(pc.b.dim, l)}
    graphs_equal = set_a == set_b
    graph_order = len(set_a)

    return {
        "kernel_points": kern_count,
        "kernel_two_routes_agree": kern_count == kern_order,
        "pi_kernel_inside_class_kernel": inclusion_a,
        "dual_pi_kernel_inside_class_kernel": inclusion_b,
        "graph_sets_equal": graphs_equal,
        "graph_order": graph_order,
    }


def _criterion_l2_search() -> tuple[dict, list]:
    a = square_lattice_curve()
    # the report of the audit that passed each hit
    hits = _search_product_classes(a, a, 2, 2, limit=2)
    if not hits:
        return _result("l2_search_audit", False, hits=0), []
    rows = []
    ok = True
    instances = []
    for report in hits:
        pc = report.pc
        summary = _audit_summary(report)
        oracle = _oracle_subgroup_checks(pc, 2)
        degree = abs(pc.correspondence.det())
        good = (
            summary["all_pass"]
            and oracle["kernel_points"] == 4
            and degree == 1
            and oracle["kernel_two_routes_agree"]
            and oracle["pi_kernel_inside_class_kernel"]
            and oracle["dual_pi_kernel_inside_class_kernel"]
            and oracle["graph_sets_equal"]
            and oracle["graph_order"] == 4
        )
        ok = ok and good
        rows.append({"audit": summary, "projection_degree": degree,
                     "oracle": oracle, "ok": good})
        if good:
            instances.append((pc, 2, projection_iso(report)))
    return _result("l2_search_audit", ok, hits=len(hits), cases=rows), instances


def _criterion_dual_partner(instances) -> dict:
    """On every all-pass audit instance, dual(A) is isomorphic to the B-side
    slope subtorus: ``projection_iso`` read a certificate off eta, and a box
    search at bound 3 between the same two varieties finds one independently.
    A search reads only the two complex structures, so it runs once per pair."""
    rows = []
    ok = bool(instances)
    searches = {}
    for pc, l, iso in instances:
        src, dst = iso.dual_certificate.source, iso.dual_certificate.target
        if (src.j, dst.j) not in searches:
            searches[src.j, dst.j] = find_isomorphism_certificate(src, dst, 3)
        cert = searches[src.j, dst.j]
        good = cert is not None and is_isomorphism_certificate(cert)
        ok = ok and good
        rows.append({"class": _intlist(pc.m), "l": l,
                     "certificate": _intlist(cert.m) if cert else None, "ok": good})
    return _result("dual_partner_certificates", ok, instances=len(rows), cases=rows)


def criterion_kernel_class_search() -> dict:
    """For l in 1..3, bounded search recovers a class whose kernel meets the
    l-torsion in a prescribed subgroup; every answer is re-counted pointwise.

    Targets per l: the trivial subgroup, the full l-torsion, and the kernel of
    the dualized projection for the slope E0/l (the degree-one-determinant
    case, where the determinant degree divides every l).
    """
    a = square_lattice_curve()
    h = a.polarization_class()
    rows = []
    ok = True
    duals = dual(a)
    for l in (1, 2, 3):
        pihat = slope_subvariety(reduce_slope(NSClass(a, h), l)).projection.dual_hom()
        targets = [
            ("trivial", a, trivial_subgroup(a)),
            ("full_torsion", a, torsion_subgroup(a, l)),
            ("dual_projection_kernel", duals, pihat.kernel()),
        ]
        for label, v, target in targets:
            found = search_kernel_class(v, l, target, coeff_bound=3)
            if found is None:
                ok = False
                rows.append({"l": l, "target": label, "found": None, "ok": False})
                continue
            pts = oracles.kernel_points_of_class(found.e, l)
            # search_kernel_class has checked the hit against its kernel
            # lattice; the oracle recount is the independent check
            good = oracles.same_point_sets(pts, oracles.subgroup_points(target))
            ok = ok and good
            rows.append({"l": l, "target": label, "found": _intlist(found.e),
                         "target_order": target.order, "oracle_points": len(pts),
                         "ok": good})
    return _result("kernel_class_search", ok, cases=rows)


def _killed_combinations(flat) -> list[list[int]]:
    """The nonzero coefficient vectors in [-2, 2]^k, in lexicographic order,
    that combine the k rows of flat to zero."""
    return [
        list(c)
        for c in itertools.product(range(-2, 3), repeat=len(flat))
        if any(c) and not any(sum(map(mul, c, col)) for col in zip(*flat))
    ]


def criterion_pullback_injectivity() -> dict:
    """Pullback along 20 seeded isogenies of the product is injective on NS.

    An isogeny f pulls e back to M^T e M with det M != 0, which vanishes only
    for e = 0; so the criterion holds exactly when the pulled-back basis
    classes, flattened to the rows of a 4 x 16 matrix, have rank 4.  The rank
    decides each case, and only on a failure are the killed classes with
    coefficients up to 2 listed.
    """
    p = square_curve_product()
    basis = intertwiner_basis(p.j, p.j)
    classes = [NSClass(p, e) for e in p.ns_basis]
    rng = random.Random(_C9_SEED)
    rows = []
    ok = True
    draws = 0
    found = 0
    combine = combination_map(basis, p.dim, p.dim)
    while found < 20 and draws < 10_000:
        draws += 1
        m = combine([rng.randint(-2, 2) for _ in basis])
        det = m.det()
        if det == 0 or max(abs(int(v)) for row in m.data for v in row) > 3:
            continue
        found += 1
        f = Homomorphism(p, p, m)
        flat = [tuple(int(v) for row in ns_pullback(f, c).e.data for v in row) for c in classes]
        good = Mat(flat).rank() == len(flat)
        bad = [] if good else _killed_combinations(flat)
        ok = ok and good
        rows.append({"isogeny": _intlist(m), "degree": abs(int(det)),
                     "killed": bad, "ok": good})
    ok = ok and found == 20
    return _result("pullback_injectivity", ok, seed=_C9_SEED,
                   isogenies=found, cases=rows)


# threads is accepted and unused: the benchmark trace binds it by name
# (bench/layers.py) until that trace drops it (ROADMAP item 3(a))
def run_criteria(threads: int = 1) -> list[dict]:
    """Criteria one through nine, in gate order."""
    out = [
        criterion_degree_law(),
        criterion_paired_divisors(),
        criterion_ppav_rigidity(),
        criterion_projection_counts(),
    ]
    poincare, instances = _criterion_poincare()
    out.append(poincare)
    searched, more = _criterion_l2_search()
    out.append(searched)
    out.append(_criterion_dual_partner(instances + more))
    out.append(criterion_kernel_class_search())
    out.append(criterion_pullback_injectivity())
    return out


def run_all() -> dict:
    """The full gate: the nine identity criteria, evaluated once, and whether
    all of them pass."""
    criteria = run_criteria()
    return {"criteria": criteria, "ok": all(c["ok"] for c in criteria)}
