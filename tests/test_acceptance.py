"""The release gate.

One test per criterion so the verbose run reads as a ten-line scorecard.
Criteria one through nine come from one shared evaluation of the gate
module; criterion ten drives the installed command line twice, under two
hash seeds, and compares raw bytes, with each other and with the committed
golden report.  A last test renders the gate twice in one process, so the
second run reads warm caches, and compares both with the golden report.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fmtori
from fmtori import acceptance, corpus, matrices, partners, product_audit, slopes, varieties
from fmtori.lattices import Lattice
from fmtori.matrices import Mat
from fmtori.partners import RigidityCheck
from fmtori.slopes import ProjectionInvariants
from fmtori.varieties import FiniteSubgroup, NSClass, torsion_subgroup, trivial_subgroup

# the directory holding the package under test, so the subprocess imports
# the same sources whether or not the package is installed
SRC = str(Path(fmtori.__file__).resolve().parent.parent)
# the committed `fmtori regress --json` report; a change that does not mean
# to alter the report must reproduce it byte for byte
GOLDEN = Path(__file__).resolve().parent / "golden" / "regress.json"


@pytest.fixture(scope="module")
def gate():
    results = acceptance.run_criteria()
    return {c["name"]: c for c in results}


def _check(gate, name):
    crit = gate[name]
    assert crit["ok"], crit
    return crit


def test_c01_degree_law_matches_brute_force(gate):
    crit = _check(gate, "degree_law")
    assert [c["n"] for c in crit["cases"]] == [1, 2, 3, 4, 5, 6]
    assert all(c["degree"] == c["n"] ** 2 for c in crit["cases"])


def test_c02_kernel_divisors_come_in_pairs(gate):
    crit = _check(gate, "paired_divisors")
    assert crit["sampled"] == 50
    assert crit["failures"] == []


def test_c03_ppav_rigidity_with_certificates(gate):
    crit = _check(gate, "ppav_rigidity")
    # all coprime pairs with n, l <= 5
    assert len(crit["cases"]) == 19
    assert all(c["kernel_order"] == 1 for c in crit["cases"])


def test_c04_projection_degree_is_square_rank_is_l(gate):
    crit = _check(gate, "projection_counts")
    a = corpus.square_lattice_curve()
    h = a.polarization_class()
    for case in crit["cases"]:
        assert case["degree"] == case["rank"] ** 2
        assert case["stabilizer_order"] == case["degree"]
        if abs(case["n"]) == 1:
            assert case["rank"] == case["l"]
        # A -> A_mu -> A is multiplication by l: the reported degree times
        # the order of the slope kernel, rebuilt from the case, is l^2g
        n, l = case["n"], case["l"]
        mu = slopes.Slope(NSClass(a, n * h), l)
        assert case["degree"] * slopes.slope_kernel(mu).order == l ** (2 * a.g)


def test_c05_poincare_class_audit(gate):
    crit = _check(gate, "poincare_audit")
    assert crit["audit"]["all_pass"]
    assert crit["kernel_order"] == 1
    assert crit["projection_degree"] == 1


def test_c06_bounded_search_at_denominator_two(gate):
    crit = _check(gate, "l2_search_audit")
    assert crit["hits"] >= 1
    for case in crit["cases"]:
        assert case["audit"]["all_pass"]
        assert case["oracle"]["kernel_points"] == 4
        assert case["projection_degree"] == 1
        assert case["oracle"]["graph_sets_equal"]
        assert case["oracle"]["pi_kernel_inside_class_kernel"]
        assert case["oracle"]["dual_pi_kernel_inside_class_kernel"]


def test_c07_dual_partner_certificates_at_bound_three(gate):
    crit = _check(gate, "dual_partner_certificates")
    assert crit["instances"] >= 2  # the Poincare class plus searched hits
    assert all(c["certificate"] is not None for c in crit["cases"])


def test_c08_kernel_class_search_with_coset_reverification(gate):
    crit = _check(gate, "kernel_class_search")
    seen = {(c["l"], c["target"]) for c in crit["cases"]}
    for l in (1, 2, 3):
        for label in ("trivial", "full_torsion", "dual_projection_kernel"):
            assert (l, label) in seen
    assert all(c["found"] is not None for c in crit["cases"])


def test_c09_pullback_injectivity_over_seeded_isogenies(gate):
    crit = _check(gate, "pullback_injectivity")
    assert crit["isogenies"] == 20
    assert all(c["killed"] == [] for c in crit["cases"])


def _reference_killed(flat):
    """The killed coefficient vectors by the four nested loops over [-2, 2]."""
    bad = []
    spread = range(-2, 3)
    for c0 in spread:
        for c1 in spread:
            for c2 in spread:
                for c3 in spread:
                    if not (c0 or c1 or c2 or c3):
                        continue
                    if not any(
                        c0 * w + c1 * x + c2 * y + c3 * z for w, x, y, z in zip(*flat)
                    ):
                        bad.append([c0, c1, c2, c3])
    return bad


def _flat(m):
    return tuple(x for row in m.data for x in row)


def test_killed_combinations_match_the_nested_loops(e_i_squared):
    a, b, c, _ = (_flat(e) for e in e_i_squared.ns_basis)
    rank_two = [a, b, tuple(x + y for x, y in zip(a, b)), tuple(x - 2 * y for x, y in zip(a, b))]
    rank_three = [a, b, c, tuple(2 * x - z for x, z in zip(a, c))]
    for flat in (rank_two, rank_three):
        killed = acceptance._killed_combinations(flat)
        assert killed
        assert killed == _reference_killed(flat)
    full = [_flat(e) for e in e_i_squared.ns_basis]
    assert acceptance._killed_combinations(full) == [] == _reference_killed(full)


def test_the_gate_decides_pullback_injectivity_by_rank(monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "_killed_combinations", lambda flat: calls.append(flat))
    crit = acceptance.criterion_pullback_injectivity()
    assert crit["ok"] and crit["isogenies"] == 20
    assert calls == []


def _nth_call(real, n, corrupt):
    """real, with the result of its n-th call (counted from 0) passed
    through corrupt."""
    calls = itertools.count()

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return corrupt(out) if next(calls) == n else out

    return patched


# per criterion with cases: a dependency, as the gate module binds it, and
# which of its results to corrupt so that exactly one case fails
ONE_FAILING_CASE = {
    # n = 2 gets the trivial kernel
    "degree_law": ("class_kernel", 1, lambda kern: trivial_subgroup(kern.variety)),
    "ppav_rigidity": (
        "ppav_rigidity_check", 0,
        lambda check: RigidityCheck(torsion_subgroup(check.kernel.variety, 2), check.certificate),
    ),
    # a stabilizer of order 2, which is not a square
    "projection_counts": (
        "projection_invariants", 0,
        lambda inv: ProjectionInvariants(FiniteSubgroup(
            inv.stabilizer.variety, Lattice(Mat([[Fraction(1, 2), 0], [0, 1]])))),
    ),
    "l2_search_audit": (
        "_oracle_subgroup_checks", 0, lambda oracle: {**oracle, "graph_sets_equal": False}
    ),
    # the Poincare criterion checks its three certificates first, and the
    # three dual-partner cases check one each
    "dual_partner_certificates": ("is_isomorphism_certificate", 4, lambda ok: False),
    "kernel_class_search": ("search_kernel_class", 0, lambda found: None),
    # one zero pullback leaves the first isogeny's four classes rank 3
    "pullback_injectivity": ("ns_pullback", 0, lambda cls: NSClass(cls.variety, 0 * cls.e)),
}


def _verdicts(criteria, but):
    return {c["name"]: c["ok"] for c in criteria if c["name"] != but}


@pytest.mark.parametrize("name", sorted(ONE_FAILING_CASE))
def test_one_failing_case_fails_its_criterion_and_the_gate(gate, monkeypatch, name):
    attr, n, corrupt = ONE_FAILING_CASE[name]
    monkeypatch.setattr(acceptance, attr, _nth_call(getattr(acceptance, attr), n, corrupt))
    report = acceptance.run_all()
    crit = next(c for c in report["criteria"] if c["name"] == name)
    assert [case["ok"] for case in crit["cases"]].count(False) == 1
    assert not crit["ok"]
    assert not report["ok"]
    assert _verdicts(report["criteria"], name) == _verdicts(gate.values(), name)


def test_a_criterion_without_cases_fails(gate, monkeypatch):
    # with no l=2 hit the search criterion has no case, and the dual-partner
    # criterion still has the Poincare instance
    monkeypatch.setattr(acceptance, "_search_product_classes", lambda *args, **kwargs: [])
    report = acceptance.run_all()
    crit = next(c for c in report["criteria"] if c["name"] == "l2_search_audit")
    assert crit == {"name": "l2_search_audit", "ok": False, "hits": 0, "cases": []}
    assert not report["ok"]
    assert _verdicts(report["criteria"], crit["name"]) == _verdicts(gate.values(), crit["name"])
    assert acceptance._criterion_dual_partner([]) == {
        "name": "dual_partner_certificates", "ok": False, "instances": 0, "cases": []}


def test_c10_regress_json_is_byte_identical(tmp_path):
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}

    def regress(path, hash_seed):
        proc = subprocess.run(
            [sys.executable, "-m", "fmtori", "regress", "--json", str(path)],
            capture_output=True, text=True, check=False,
            env={**env, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return path.read_bytes()

    # two hash seeds, so set or dict iteration order cannot leak into the report
    first = regress(tmp_path / "r1.json", "0")
    assert first == GOLDEN.read_bytes()
    second = regress(tmp_path / "r2.json", "1")
    assert first == second


def test_warm_caches_render_the_golden_report():
    # caches never change an answer: the second gate reads every lru_cache
    # the first one filled, and both must render the committed bytes
    golden = GOLDEN.read_bytes()
    for _ in range(2):
        assert corpus.render_json(acceptance.run_all()).encode("utf-8") == golden


def test_the_gate_builds_one_kernel_lattice_per_found_class(monkeypatch):
    # search_kernel_class checks each hit against its kernel lattice; the
    # gate recounts the hit's kernel points with the oracle, not the lattice
    calls = []
    original = product_audit.kernel_torsion_subgroup

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (product_audit, acceptance):
        monkeypatch.setattr(module, "kernel_torsion_subgroup", counted, raising=False)
    crit = acceptance.criterion_kernel_class_search()
    assert crit["ok"]
    found = [c for c in crit["cases"] if c["found"] is not None]
    assert len(found) == len(crit["cases"]) == 9
    assert len(calls) == len(found)


def test_the_gate_audits_each_class_once(count_calls):
    # the Poincare class and the two l=2 search hits: their summaries, the
    # projections and the search share one audit each (6 audits before),
    # because the report carries the slope subtorus projection_iso reads
    audits = count_calls(product_audit, "audit_equivalence")
    assert acceptance.run_all()["ok"]
    assert len(audits) == 3
    assert len({(pc.m, l) for pc, l in audits}) == 3


def test_the_gate_reads_each_dual_certificate_off_eta(cold_caches, count_calls):
    # projection_iso runs on the Poincare class and on both l=2 hits, and
    # builds the one B-block subtorus the box search then reads, so the gate
    # builds 28 subtori (29 when the search built its own) and 12 duals (17
    # when the gate built dual(B) for each audited class only to type pi,
    # and 14 when the graph comparison built the dual product only to type
    # its images); the three certificates join the same two complex
    # structures, and a search reads only those, so it runs once (3 before)
    subtori = count_calls(slopes, "slope_subvariety")
    isos = count_calls(product_audit, "projection_iso")
    duals = count_calls(varieties, "dual")
    searches = count_calls(partners, "find_isomorphism_certificate")
    result = acceptance.run_all()
    assert result["ok"]
    assert (len(subtori), len(isos), len(duals), len(searches)) == (28, 3, 12, 1)
    reports = [report for (report,) in isos]
    built = [product_audit.projection_iso(report).dual_certificate for report in reports]
    i = Mat.identity(2)
    assert [c.m for c in built] == [i, -1 * i, Mat(((0, 1), (-1, 0)))]
    # both routes certify every instance, between the same two complex structures
    ((src, dst, _),) = searches
    assert all((c.source.j, c.target.j) == (src.j, dst.j) for c in built)
    crit = next(c for c in result["criteria"] if c["name"] == "dual_partner_certificates")
    assert [c["certificate"] for c in crit["cases"]] == [[[-1, 0], [0, -1]]] * 3


def test_the_gate_builds_member_data_once_per_key(cold_caches):
    # subtori, projection invariants and slope kernels read one member-data
    # cache on (variety, e mod l, l): 13 keys, where each call built its own (51)
    assert acceptance.run_all()["ok"]
    info = slopes._member_data.cache_info()
    assert (info.misses, info.currsize) == (13, 13)


def test_the_gate_builds_a_kernel_lattice_only_where_it_reads_one(count_calls):
    # the degree law's six class kernels; the paired-divisor criterion reads
    # Smith forms instead of 50 kernel lattices (56 before)
    kernels = count_calls(varieties, "class_kernel")
    assert acceptance.run_all()["ok"]
    assert len(kernels) == 6


def test_paired_divisors_take_one_smith_form_per_nonzero_draw(count_calls, monkeypatch):
    # the Smith form of e is both the degeneracy test and the divisors: no
    # determinant (a det filter and a kernel lattice per class before)
    smith = count_calls(matrices, "snf")
    dets = []
    det = Mat.det
    monkeypatch.setattr(Mat, "det", lambda m: dets.append(m) or det(m))
    crit = acceptance.criterion_paired_divisors()
    assert crit["ok"] and crit["sampled"] == 50
    assert dets == []
    # the draws replayed: 50 nondegenerate classes and one degenerate one
    p = corpus.square_curve_product()
    rng = random.Random(acceptance._C2_SEED)
    draws = (tuple(rng.randint(-5, 5) for _ in p.ns_basis) for _ in itertools.count())
    nonzero = (p.ns_class(c).e for c in draws if any(c))
    assert [m for (m,) in smith] == list(itertools.islice(nonzero, 51))
