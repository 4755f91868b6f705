"""Trusted construction: what ``Record._make`` skips, and that it is safe.

Results the package proves valid are built with ``Record._make``, which runs
no ``__post_init__``, and slope member data is shared through a cache on
(J, e mod l, l).  The trust audit routes ``_make`` through the validating
constructor, bypasses the member-data cache so that every slope recomputes
its own, and reruns the gate, the four benchmark workloads and the
``--json`` report of every CLI command on the shipped corpus: the bytes must
not change and no ``ValueError`` may surface, so every record built without
validation on these inputs would have passed it, and no shared member data
changed an answer.  The count pin fixes how many validations the benchmark's
timed calls still run.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from fmtori import acceptance, corpus, lattices, slopes, varieties
from fmtori.cli import main
from fmtori.lattices import FiniteGroupStructure, Lattice, quotient_structure
from fmtori.matrices import Mat, snf
from fmtori.product_audit import ProductNSClass
from fmtori.records import Record
from fmtori.slopes import parse_slope_literal
from fmtori.varieties import Homomorphism, NSClass

GOLDEN = Path(__file__).resolve().parent / "golden" / "regress.json"

# every subcommand on the shipped corpus, with the README's examples
COMMANDS = [
    ("validate", "e_i.json"),
    ("dual", "e_2i.json"),
    ("dual", "e_i_x_e_i.json"),
    ("kl", "e_i.json", "--class", "2*E0"),
    ("kl", "e_i_x_e_i.json", "--class", "E0+E1+2*E2"),
    ("amu", "e_i.json", "--slope", "1*E0/2"),
    ("amu", "e_i_x_e_i.json", "--slope", "E0+E1+E2/2"),
    ("partners", "e_i.json", "--coeff-bound", "2", "--denom-bound", "3"),
    ("partners", "e_i_x_e_i.json", "--coeff-bound", "1", "--denom-bound", "1",
     "--search-bound", "1"),
    ("ppav-check", "e_i.json", "--n", "3", "--l", "2"),
    ("ppav-check", "e_i_x_e_i_ppav.json", "--n", "1", "--l", "2"),
    ("audit", "e_i.json", "e_i.json", "--class", "poincare_class.json", "--l", "1"),
    ("search-n", "e_i.json", "--l", "2", "--target", "two_torsion.json", "--bound", "3"),
    ("regress",),
]


# Record._make routed through the validating constructor
VALIDATING_MAKE = classmethod(lambda cls, *values: cls(*values))


def _trust_nothing(monkeypatch):
    """Validate every record and recompute the member data of every slope.

    The uncached member data hand each slope an empty slot, so every
    subtorus restricts every ambient class itself: the reports compare the
    shared NS bases of full lattices with the per-slope ones."""
    monkeypatch.setattr(Record, "_make", VALIDATING_MAKE)
    monkeypatch.setattr(slopes, "_member_data", slopes._member_data.__wrapped__)


@pytest.fixture
def trust_nothing(monkeypatch):
    _trust_nothing(monkeypatch)


def _json_report(corpus_dir, out, command) -> tuple[int, bytes]:
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in command]
    code = main([*argv, "--json", str(out)])
    return code, out.read_bytes()


def test_the_gate_is_golden_with_every_record_validated(trust_nothing):
    report = corpus.render_json(acceptance.run_all())
    assert report.encode("utf-8") == GOLDEN.read_bytes()


@pytest.mark.parametrize("name", ("regress", "partners", "search_l2", "kernel_search"))
def test_workload_checks_pass_with_every_record_validated(
    bench_modules, trust_nothing, name
):
    _, workloads = bench_modules
    inputs = workloads.BUILD[name](0)
    ok, _ = workloads.CHECK[name](inputs, workloads.RUN[name](inputs), workloads.expected())
    assert ok


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_reports_are_unchanged_with_every_record_validated(
    corpus_dir, tmp_path, monkeypatch, capsys, command
):
    trusted = _json_report(corpus_dir, tmp_path / "trusted.json", command)
    _trust_nothing(monkeypatch)
    validated = _json_report(corpus_dir, tmp_path / "validated.json", command)
    capsys.readouterr()
    assert trusted[0] == 0
    assert validated == trusted


# validated constructions in each workload's timed call, (NSClass, Homomorphism);
# fingerprint trusts its variety, so the partner search validates no class, and
# it validates one identity certificate per distinct subtorus: the 80 partners
# of the workload come from 60 distinct subtori
VALIDATIONS = {"partners": (0, 60), "search_l2": (0, 0), "kernel_search": (0, 0)}


@pytest.mark.parametrize("name", sorted(VALIDATIONS))
def test_timed_calls_validate_only_what_they_take_from_outside(
    bench_modules, monkeypatch, name
):
    _, workloads = bench_modules
    inputs = workloads.BUILD[name](0)
    counts = {NSClass: 0, Homomorphism: 0}
    for cls in counts:
        check = cls.__post_init__

        def counted(self, cls=cls, check=check):
            counts[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    workloads.RUN[name](inputs)
    assert (counts[NSClass], counts[Homomorphism]) == VALIDATIONS[name]


def test_make_binds_the_fields_and_skips_validation(e_i):
    not_alternating = Mat(((1, 0), (0, 1)))
    made = NSClass._make(e_i, not_alternating)
    assert (made.variety, made.e) == (e_i, not_alternating)
    assert made == NSClass._make(e_i, not_alternating)
    pc = corpus.poincare_class()
    trusted = ProductNSClass._make(pc.a, pc.b, pc.m, pc.name)
    assert "_class" not in trusted.__dict__
    assert trusted == pc and trusted.name == pc.name
    assert trusted.as_class() == pc.as_class()
    assert trusted.as_class() is trusted.as_class()


def test_public_constructors_still_validate(e_i, e_2i, e_i_squared):
    pc = corpus.poincare_class()
    off_j = Mat(((0, 0, 1, 0), (0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="class is not alternating"):
        NSClass(e_i, Mat(((1, 0), (0, 1))))
    with pytest.raises(ValueError, match="class is not J-compatible"):
        NSClass(e_i_squared, off_j)
    with pytest.raises(ValueError, match="does not intertwine"):
        Homomorphism(e_i, e_2i, Mat.identity(2))
    with pytest.raises(ValueError, match="class is not integral"):
        ProductNSClass(pc.a, pc.b, Fraction(1, 2) * pc.m)


def test_class_kernel_structures_are_their_lattice_quotients(corpus_dir, tmp_path, count_calls):
    # class_kernel reads the structure off the Smith form of the class, and
    # the paired-divisor criterion and the kl command read that Smith form
    # with no kernel at all; on every class the gate and the kl command
    # take, and on the criterion's 50 sampled classes, the kernel lattice
    # must have the same quotient
    class_kernel = varieties.class_kernel
    classes = count_calls(varieties, "class_kernel")
    assert acceptance.run_all()["ok"]
    kl = [c for c in COMMANDS if c[0] == "kl"]
    for i, command in enumerate(kl):
        assert _json_report(corpus_dir, tmp_path / f"kl{i}.json", command)[0] == 0
    assert len(classes) == 6
    smith = []
    for (c,) in classes:
        kern = class_kernel(c)
        assert "structure" in vars(kern)
        smith.append((c, kern.structure))
    for _, path, _, literal in kl:
        v = corpus.variety_from_json(corpus.load_json_file(corpus_dir / path))
        c, _ = parse_slope_literal(v, literal)
        smith.append((c, FiniteGroupStructure.from_diagonal(snf(c.e))))
    sample = acceptance._paired_divisor_sample()
    smith += [(c, FiniteGroupStructure.from_diagonal(diag)) for _, c, diag in sample]
    assert len(smith) == 58
    for c, structure in smith:
        assert structure == quotient_structure(class_kernel(c).overlattice)


def test_the_gate_builds_each_lattice_quotient_it_reads(count_calls):
    # 56 classes read the Smith form of their class instead (124 before): the
    # degree law's 6 class kernels and the paired-divisor criterion's 50
    # draws; and each of the three audited classes is audited once, not
    # twice (68); and the kernel-class search's trivial and full-torsion
    # targets, for l = 1, 2, 3, carry their known structures (59); and the
    # three audits read the divisors of pi's kernel off the Smith form of
    # the correspondence instead of a lattice quotient (53); and the
    # projection-count criterion reads the order of one slope kernel per
    # row, 19 of them, for its degree identity (50 before)
    quotients = count_calls(lattices, "quotient_structure")
    assert acceptance.run_all()["ok"]
    assert len(quotients) == 69


def test_the_gate_determinant_count_from_cold_caches(cold_caches, monkeypatch):
    # 258 before: each of the 19 stabilizers took the determinant of its
    # projection, whose Hermite diagonal already gives it, and each of the
    # 19 rigidity checks tested its quotient's unimodularity twice; and 220
    # before the Poincare and l = 2 criteria read the degree of each of
    # their three projections once, not twice; and 217 before the ppav
    # criterion stopped re-testing the 19 certificates ppav_rigidity_check
    # has just tested; and 198 before the dual-partner criterion ran its
    # box search once per pair of complex structures, not once per instance
    dets = []
    det = Mat.det
    monkeypatch.setattr(Mat, "det", lambda m: dets.append(m) or det(m))
    assert acceptance.run_all()["ok"]
    assert len(dets) == 162
