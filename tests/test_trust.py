"""Trusted construction: what ``Record._make`` skips, and that it is safe.

Results the package proves valid are built with ``Record._make``, which runs
no ``__post_init__``.  The trust audit routes ``_make`` through the
validating constructor and reruns the gate, the four benchmark workloads and
the ``--json`` report of every CLI command on the shipped corpus: the bytes
must not change and no ``ValueError`` may surface, so every record built
without validation on these inputs would have passed it.  The count pin fixes
how many validations the benchmark's timed calls still run.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from fmtori import acceptance, corpus
from fmtori.cli import main
from fmtori.matrices import Mat
from fmtori.product_audit import ProductNSClass, assemble, twist_to_ample
from fmtori.records import Record
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


@pytest.fixture
def validate_everything(monkeypatch):
    monkeypatch.setattr(Record, "_make", VALIDATING_MAKE)


def _json_report(corpus_dir, out, command) -> tuple[int, bytes]:
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in command]
    code = main([*argv, "--json", str(out)])
    return code, out.read_bytes()


def test_the_gate_is_golden_with_every_record_validated(validate_everything):
    report = corpus.render_json(acceptance.run_all())
    assert report.encode("utf-8") == GOLDEN.read_bytes()


@pytest.mark.parametrize("name", ("regress", "partners", "search_l2", "kernel_search"))
def test_workload_checks_pass_with_every_record_validated(
    bench_modules, validate_everything, name
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
    monkeypatch.setattr(Record, "_make", VALIDATING_MAKE)
    validated = _json_report(corpus_dir, tmp_path / "validated.json", command)
    capsys.readouterr()
    assert trusted[0] == 0
    assert validated == trusted


def test_every_twist_step_is_a_valid_class(e_i_squared, monkeypatch):
    # twist_to_ample is the one trusted site the gate and the CLI do not reach
    v = e_i_squared
    pc = assemble(v, v, v.polarization_class(), Mat.zeros(4, 4), v.ns_class((-4, -4, 1, 1)).e)
    ample = v.ns_class(v.polarization)
    trusted = twist_to_ample(pc, 2, ample)
    assert trusted[1] >= 2
    monkeypatch.setattr(Record, "_make", VALIDATING_MAKE)
    assert twist_to_ample(pc, 2, ample) == trusted


# validated constructions in each workload's timed call, (NSClass, Homomorphism)
VALIDATIONS = {"partners": (16, 80), "search_l2": (0, 0), "kernel_search": (0, 0)}


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
