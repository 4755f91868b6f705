import json
import re

import pytest
from conftest import corpus_text

from fmtori import acceptance, cli, corpus, partners, slopes
from fmtori.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def test_validate_golden(capsys, corpus_dir):
    code, lines, _ = run(capsys, "validate", corpus_dir / "e_i.json")
    assert code == 0
    assert lines == ["valid"]


def test_validate_failure_exits_one(capsys, tmp_path, corpus_dir):
    doc = json.loads(corpus_text("e_i.json"))
    doc["j"] = [["0", "1"], ["1", "0"]]
    bad = tmp_path / "bad.json"
    bad.write_text(corpus.render_json(doc), "utf-8")
    code, lines, _ = run(capsys, "validate", bad)
    assert code == 1
    assert any("J^2" in line for line in lines)


def test_validate_malformed_exits_two(capsys, tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json", "utf-8")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "error:" in err


def test_validate_exponent_entry_exits_two_and_names_the_file(capsys, tmp_path):
    # Fraction("1e10000000") would build a ten-million-digit integer first
    doc = json.loads(corpus_text("e_i.json"))
    doc["j"][0][1] = "1e10000000"
    bad = tmp_path / "exponent.json"
    bad.write_text(json.dumps(doc), "utf-8")
    code, lines, err = run(capsys, "validate", bad)
    assert_input_error(code, err)
    assert err == f"error: {bad}: bad rational '1e10000000'\n"
    assert lines == []


@pytest.mark.parametrize("entry", ("1" * 5000, [0] * 5000), ids=("digits", "list"))
def test_validate_long_entry_prints_one_short_error_line(capsys, tmp_path, entry):
    doc = json.loads(corpus_text("e_i.json"))
    doc["j"][0][1] = entry
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(doc), "utf-8")
    code, lines, err = run(capsys, "validate", bad)
    assert_input_error(code, err)
    assert err.count("\n") == 1 and len(err) < 200 + len(str(bad))
    assert lines == []


def test_validate_integer_literal_past_the_digit_limit_names_the_limit(capsys, tmp_path):
    text = corpus_text("e_i.json")
    assert '"g": 1,' in text
    bad = tmp_path / "digits.json"
    bad.write_text(text.replace('"g": 1,', '"g": ' + "7" * 5000 + ",", 1), "utf-8")
    code, lines, err = run(capsys, "validate", bad)
    assert_input_error(code, err)
    assert err == f"error: {bad}: integer literal longer than 4300 digits\n"
    assert "set_int_max_str_digits" not in err
    assert lines == []


@pytest.mark.parametrize(
    "literal", ("x" * 6001, "E0+-" + "E0" * 3000, "E" + "1" * 3000, "E0/" + "9" * 5000),
    ids=("term", "near", "name", "denominator"),
)
@pytest.mark.parametrize("option", ("kl --class", "amu --slope"))
def test_long_slope_literal_prints_one_short_error_line(capsys, corpus_dir, option, literal):
    command, flag = option.split()
    code, lines, err = run(capsys, command, corpus_dir / "e_i.json", f"{flag}={literal}")
    assert_input_error(code, err)
    assert err.count("\n") == 1 and len(err) < 300
    assert lines == []


def test_dual_golden(capsys, corpus_dir):
    code, lines, _ = run(capsys, "dual", corpus_dir / "e_2i.json")
    assert code == 0
    assert lines == [
        "dual of E_2i: g=1, ns rank 1",
        "complex structure [[0 -1/2] [2 0]]",
        "polarization coefficients (1)",
    ]


def test_kl_golden(capsys, corpus_dir):
    code, lines, _ = run(capsys, "kl", corpus_dir / "e_i.json", "--class", "2*E0")
    assert code == 0
    assert lines == ["elementary divisors: 2,2; order 4"]


def test_kl_rejects_slopes(capsys, corpus_dir):
    code, _, err = run(capsys, "kl", corpus_dir / "e_i.json", "--class", "1*E0/2")
    assert code == 2
    assert "integral class" in err


@pytest.mark.parametrize("variety, literal", (("e_i.json", "0"), ("e_i_x_e_i.json", "E0")))
def test_kl_rejects_degenerate_classes(capsys, corpus_dir, variety, literal):
    # a zero Smith invariant of the class: its kernel is not finite
    code, lines, err = run(capsys, "kl", corpus_dir / variety, "--class", literal)
    assert code == 2
    assert err == "error: class has no finite kernel: kernel of a degenerate class is not finite\n"
    assert lines == []


def test_amu_golden(capsys, corpus_dir):
    code, lines, _ = run(capsys, "amu", corpus_dir / "e_i.json", "--slope", "1*E0/2")
    assert code == 0
    assert lines == [
        "kernel of A -> A_mu: order 1, divisors none",
        "projection degree 4, bundle rank 2, stabilizer order 4",
        "subtorus: g=1, ns rank 1, polarization coefficients (5)",
    ]


def test_amu_notes_reduction(capsys, corpus_dir):
    code, lines, _ = run(capsys, "amu", corpus_dir / "e_i.json", "--slope", "2*E0/4")
    assert code == 0
    assert lines[0] == "slope reduced to denominator 2"


def test_partners_golden(capsys, corpus_dir):
    code, lines, _ = run(
        capsys,
        "partners", corpus_dir / "e_i.json",
        "--coeff-bound", "1", "--denom-bound", "2",
    )
    assert code == 0
    assert lines == [
        "slope (1)/1: partner g=1, fingerprint matches source, source certificate found",
        "slope (1)/2: partner g=1, fingerprint matches source, source certificate found",
        "2 partner presentations",
    ]


def test_ppav_check_golden(capsys, corpus_dir):
    code, lines, _ = run(
        capsys, "ppav-check", corpus_dir / "e_i.json", "--n", "3", "--l", "2"
    )
    assert code == 0
    assert lines == ["rigid: kernel trivial, quotient certificate unimodular"]
    code, _, err = run(
        capsys, "ppav-check", corpus_dir / "e_i.json", "--n", "2", "--l", "2"
    )
    assert code == 2


def test_audit_golden(capsys, corpus_dir):
    code, lines, _ = run(
        capsys,
        "audit", corpus_dir / "e_i.json", corpus_dir / "e_i.json",
        "--class", corpus_dir / "poincare_class.json", "--l", "1",
    )
    assert code == 0
    assert lines == [
        "subtorus_kernel_order: pass",
        "correspondence_degree: pass",
        "correspondence_kernel_inclusions: pass",
        "graph_subgroup_order: pass",
        "graph_subgroups_equal: pass",
        "subtorus_torsion_generated_by_tuples: pass",
        "all checks passed",
    ]


def test_audit_failure_exits_one(capsys, corpus_dir, tmp_path):
    doc = {
        "format": "fmtori/product-class",
        "name": "split",
        "matrix": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    }
    f = tmp_path / "split.json"
    f.write_text(corpus.render_json(doc), "utf-8")
    code, lines, _ = run(
        capsys,
        "audit", corpus_dir / "e_i.json", corpus_dir / "e_i.json",
        "--class", f, "--l", "1",
    )
    assert code == 1
    assert lines[-1] == "audit failed"


def test_search_n_golden(capsys, corpus_dir):
    code, lines, _ = run(
        capsys,
        "search-n", corpus_dir / "e_i.json",
        "--l", "2", "--target", corpus_dir / "two_torsion.json", "--bound", "3",
    )
    assert code == 0
    assert lines[0] == "N = (-2) in the ns basis"


def test_search_n_not_found_exits_one(capsys, corpus_dir, tmp_path):
    doc = {
        "format": "fmtori/subgroup",
        "name": "quarter_line",
        "overlattice": [["1/4", "0"], ["0", "1"]],
    }
    f = tmp_path / "quarter.json"
    f.write_text(corpus.render_json(doc), "utf-8")
    code, lines, _ = run(
        capsys,
        "search-n", corpus_dir / "e_i.json",
        "--l", "4", "--target", f, "--bound", "3",
    )
    assert code == 1
    assert lines == ["not found at bound 3"]


def test_search_n_over_the_candidate_cap_exits_two(capsys, corpus_dir, tmp_path):
    half = [["1/2" if i == j else "0" for j in range(4)] for i in range(4)]
    doc = {"format": "fmtori/subgroup", "name": "two_torsion_4", "overlattice": half}
    f = tmp_path / "two_torsion_4.json"
    f.write_text(corpus.render_json(doc), "utf-8")
    code, _, err = run(
        capsys,
        "search-n", corpus_dir / "e_i_x_e_i.json",
        "--l", "2", "--target", f, "--bound", "100",
    )
    assert_input_error(code, err)
    assert "candidate cap" in err


def test_json_reports_are_byte_stable(capsys, corpus_dir, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(
            capsys, "amu", corpus_dir / "e_i.json", "--slope", "1*E0/2", "--json", p
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text("utf-8"))
    assert payload["command"] == "amu"
    assert payload["projection_degree"] == 4


def test_partners_search_once_per_partner_complex_structure(capsys, corpus_dir, count_calls):
    # a certificate search reads only the two J's: the 80 partners have 4
    searches = count_calls(partners, "find_isomorphism_certificate")
    code, lines, _ = run(capsys, "partners", corpus_dir / "e_i_x_e_i.json",
                         "--coeff-bound", "1", "--denom-bound", "2")
    assert code == 0 and len(lines) == 81
    assert len(searches) == 4
    # at the default bound 3 every box exceeds the cap, and each line says by how much
    too_large = re.compile(
        r"source certificate search too large \(certificate search space of (\d+)"
        r" candidates exceeds the candidate cap of 500000 at this bound\)$"
    )
    boxes = [too_large.search(line) for line in lines[:-1]]
    assert all(boxes)
    assert {int(m.group(1)) for m in boxes} == {7**8, 9**8}


def test_shared_certificate_searches_match_one_search_per_entry(
    capsys, corpus_dir, tmp_path, partner_entries
):
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "partners", corpus_dir / "e_i_x_e_i.json", "--coeff-bound", "1",
                     "--denom-bound", "2", "--search-bound", "1", "--json", out)
    assert code == 0
    rows = json.loads(out.read_text("utf-8"))["entries"]
    a = corpus.square_curve_product()
    assert len(rows) == len(partner_entries) == 80
    for row, entry in zip(rows, partner_entries):
        cert = partners.find_isomorphism_certificate(a, entry.record.partner, 1)
        assert row["source_certificate"] == corpus.matrix_to_json(cert.m)


def test_amu_builds_one_member_lattice(capsys, corpus_dir, tmp_path, cold_caches):
    # the subtorus and the projection invariants share one member lattice,
    # and the report is the one the public functions give
    from fmtori.varieties import FiniteSubgroup

    path = corpus_dir / "e_i_x_e_i.json"
    code, _, _ = run(capsys, "amu", path, "--slope", "E0+E1+E2/2", "--json", tmp_path / "a.json")
    assert code == 0
    assert slopes._member_data.cache_info().misses == 1
    payload = json.loads((tmp_path / "a.json").read_text("utf-8"))
    a = corpus.variety_from_json(json.loads(path.read_text("utf-8")))
    mu = slopes.reduce_slope(*slopes.parse_slope_literal(a, "E0+E1+E2/2"))
    sv = slopes.slope_subvariety(mu)
    inv = slopes.projection_invariants(mu)
    kern = FiniteSubgroup(a, slopes.member_lattice(mu))
    assert payload["kernel"] == {"order": kern.order, "divisors": list(kern.divisors)}
    assert (payload["projection_degree"], payload["rank"]) == (inv.degree, inv.rank)
    assert payload["stabilizer_divisors"] == list(inv.stabilizer.divisors)
    assert payload["subtorus"] == json.loads(json.dumps(corpus.variety_to_json(sv.variety)))


def test_regress_golden(capsys, corpus_dir):
    code, lines, _ = run(capsys, "regress")
    assert code == 0
    assert lines == [
        "degree_law: pass",
        "paired_divisors: pass",
        "ppav_rigidity: pass",
        "projection_counts: pass",
        "poincare_audit: pass",
        "l2_search_audit: pass",
        "dual_partner_certificates: pass",
        "kernel_class_search: pass",
        "pullback_injectivity: pass",
        "all criteria passed",
    ]


def test_unknown_command_exits_two(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def assert_input_error(code, err):
    # main returned instead of raising, so no traceback reached the user
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["audit", "e_i.json", "e_i.json", "--class", "poincare_class.json", "--l", "0"],
    ["search-n", "e_i.json", "--l", "0", "--target", "two_torsion.json", "--bound", "3"],
    ["search-n", "e_i.json", "--l", "2", "--target", "two_torsion.json", "--bound", "-1"],
    ["search-n", "e_i.json", "--l", "2", "--target", "two_torsion.json", "--bound", "0"],
    ["partners", "e_i.json", "--coeff-bound", "1", "--denom-bound", "1", "--search-bound", "-1"],
])
def test_out_of_range_numbers_exit_two(capsys, corpus_dir, argv):
    argv = [corpus_dir / a if a.endswith(".json") else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert_input_error(code, err)


def test_audit_names_a_bad_denominator_before_reducing(capsys, corpus_dir, tmp_path):
    doc = json.loads(corpus_text("poincare_class.json"))
    doc["matrix"] = [[2 * int(x) for x in row] for row in doc["matrix"]]
    doubled = tmp_path / "doubled.json"
    doubled.write_text(corpus.render_json(doc), "utf-8")
    e_i = corpus_dir / "e_i.json"
    code, lines, err = run(capsys, "audit", e_i, e_i, "--class", doubled, "--l", "0")
    assert_input_error(code, err)
    assert err == "error: slope denominator must be positive\n"
    assert lines == []


def test_subgroup_file_with_the_wrong_row_count_exits_two(capsys, corpus_dir, tmp_path):
    doc = json.loads(corpus_text("two_torsion.json"))
    doc["overlattice"] = [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]]
    bad = tmp_path / "three_rows.json"
    bad.write_text(corpus.render_json(doc), "utf-8")
    code, lines, err = run(
        capsys, "search-n", corpus_dir / "e_i.json", "--l", "2", "--target", bad, "--bound", "3"
    )
    assert_input_error(code, err)
    assert err == f"error: {bad}: overlattice has the wrong ambient dimension\n"
    assert lines == []


THREADED_COMMANDS = [
    ["partners", "e_i.json", "--coeff-bound", "1", "--denom-bound", "1"],
    ["search-n", "e_i.json", "--l", "2", "--target", "two_torsion.json", "--bound", "3"],
    ["regress"],
]


def assert_threads_rejected(capsys, corpus_dir, monkeypatch, argv, threads):
    # no subcommand takes --threads: the parser rejects it before any entry
    # point, each replaced by a recorder here, is called
    calls = []

    def record(*a, **k):
        calls.append(k)

    monkeypatch.setattr(acceptance, "run_all", record)
    monkeypatch.setattr(cli, "enumerate_partners", record)
    monkeypatch.setattr(cli, "search_kernel_class", record)
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", threads])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: --threads {threads}" in out.err
    assert out.out == "" and calls == []


@pytest.mark.parametrize("argv", THREADED_COMMANDS)
def test_threads_is_an_unknown_option(capsys, corpus_dir, monkeypatch, argv):
    assert_threads_rejected(capsys, corpus_dir, monkeypatch, argv, "2")


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("argv", THREADED_COMMANDS)
def test_threads_below_one_exit_two(capsys, corpus_dir, monkeypatch, argv, threads):
    assert_threads_rejected(capsys, corpus_dir, monkeypatch, argv, threads)


@pytest.mark.parametrize("threads", ["65", "100000"])
@pytest.mark.parametrize("argv", THREADED_COMMANDS)
def test_threads_above_the_bound_exit_two(capsys, corpus_dir, monkeypatch, argv, threads):
    assert_threads_rejected(capsys, corpus_dir, monkeypatch, argv, threads)


@pytest.mark.parametrize("overlattice", [
    [[2, 0], [0, 1]],  # misses the periods
    [["1/2"], [0]],  # rank deficient
    [[0, 0], [0, 0]],  # zero
])
def test_search_n_rejects_a_bad_subgroup_file(capsys, corpus_dir, tmp_path, overlattice):
    bad = tmp_path / "bad_subgroup.json"
    bad.write_text(json.dumps({"format": "fmtori/subgroup", "overlattice": overlattice}), "utf-8")
    code, lines, err = run(
        capsys, "search-n", corpus_dir / "e_i.json", "--l", "2", "--target", bad, "--bound", "3"
    )
    assert_input_error(code, err)
    assert str(bad) in err
    assert lines == []


def test_partners_search_bound_zero_skips_the_search(capsys, corpus_dir):
    code, lines, _ = run(
        capsys,
        "partners", corpus_dir / "e_i.json",
        "--coeff-bound", "1", "--denom-bound", "1", "--search-bound", "0",
    )
    assert code == 0
    assert lines == [
        "slope (1)/1: partner g=1, fingerprint matches source, source certificate skipped",
        "1 partner presentations",
    ]


@pytest.fixture
def negative(tmp_path):
    """The square lattice curve with its polarization negated."""
    doc = json.loads(corpus_text("e_i.json"))
    doc["polarization"] = [-1]
    path = tmp_path / "neg.json"
    path.write_text(corpus.render_json(doc), "utf-8")
    return path


@pytest.mark.parametrize("argv", [
    ["dual", "neg.json"],
    ["kl", "neg.json", "--class", "2*E0"],
    ["amu", "neg.json", "--slope", "1*E0/2"],
    ["partners", "neg.json", "--coeff-bound", "1", "--denom-bound", "1"],
    ["ppav-check", "neg.json", "--n", "3", "--l", "2"],
    ["audit", "neg.json", "neg.json", "--class", "poincare_class.json", "--l", "1"],
    ["search-n", "neg.json", "--l", "2", "--target", "two_torsion.json", "--bound", "3"],
])
def test_every_command_validates_its_varieties(capsys, corpus_dir, negative, argv):
    folder = {"neg.json": negative.parent}
    argv = [folder.get(a, corpus_dir) / a if a.endswith(".json") else a for a in argv]
    code, lines, err = run(capsys, *argv)
    assert_input_error(code, err)
    assert "neg.json" in err and "not positive" in err
    assert lines == []


MIXED_ORDERS = {"3x3 first": 0, "2x2 first": 1}


@pytest.fixture(params=MIXED_ORDERS)
def mixed(request, tmp_path):
    """(path, index of the 3x3 class): a curve whose NS basis holds a 3x3
    class beside its 2x2 one, in either order."""
    doc = json.loads(corpus_text("e_i.json"))
    wide = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    k = MIXED_ORDERS[request.param]
    doc["ns_basis"].insert(k, wide)
    doc["polarization"].insert(k, 0)
    path = tmp_path / "mixed.json"
    path.write_text(corpus.render_json(doc), "utf-8")
    return path, k


def test_validate_reports_ns_classes_of_mixed_shape(capsys, mixed):
    path, k = mixed
    code, lines, err = run(capsys, "validate", path)
    assert code == 1
    assert lines == [f"invalid: ns_basis[{k}] has the wrong shape"]
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["dual", "mixed.json"],
    ["kl", "mixed.json", "--class", "2*E0"],
    ["amu", "mixed.json", "--slope", "1*E0/2"],
    ["partners", "mixed.json", "--coeff-bound", "1", "--denom-bound", "1"],
    ["ppav-check", "mixed.json", "--n", "3", "--l", "2"],
    ["audit", "mixed.json", "mixed.json", "--class", "poincare_class.json", "--l", "1"],
    ["search-n", "mixed.json", "--l", "2", "--target", "two_torsion.json", "--bound", "3"],
])
def test_ns_classes_of_mixed_shape_exit_two(capsys, corpus_dir, mixed, argv):
    path, k = mixed
    argv = [path if a == "mixed.json" else corpus_dir / a if a.endswith(".json") else a
            for a in argv]
    code, lines, err = run(capsys, *argv)
    assert_input_error(code, err)
    assert err.count("\n") == 1
    assert f"ns_basis[{k}] has the wrong shape" in err
    assert lines == []


def test_a_complex_structure_of_the_wrong_shape_is_reported(capsys, tmp_path):
    # the loader builds the variety unchecked; validate finds the shape
    doc = json.loads(corpus_text("e_i.json"))
    doc["j"] = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    path = tmp_path / "wide_j.json"
    path.write_text(corpus.render_json(doc), "utf-8")
    assert run(capsys, "validate", path) == (1, ["invalid: J has the wrong shape"], "")
    code, lines, err = run(capsys, "dual", path)
    assert_input_error(code, err)
    assert err.count("\n") == 1 and "invalid variety: J has the wrong shape" in err
    assert lines == []


def test_partners_over_the_candidate_cap_exit_two_at_once(capsys, corpus_dir, monkeypatch):
    calls = []
    monkeypatch.setattr(partners, "reduce_slope", lambda *a: calls.append(a))
    code, lines, err = run(
        capsys,
        "partners", corpus_dir / "e_i.json",
        "--coeff-bound", "1", "--denom-bound", "1000000000", "--search-bound", "0",
    )
    assert_input_error(code, err)
    assert err.count("\n") == 1 and "candidate cap" in err
    assert lines == [] and calls == []


def _e_i_power(directory, g):
    """A file for E_i^g with one NS class, the product polarization; its
    partners carry the whole NS lattice of E_i^g, of rank g^2."""
    n = 2 * g

    def blocks(x):
        return [[x * (j - i) if i // 2 == j // 2 else 0 for j in range(n)] for i in range(n)]

    path = directory / f"e_i_{g}.json"
    doc = {"format": "fmtori/variety", "g": g, "j": blocks(-1), "name": f"E_i^{g}",
           "ns_basis": [blocks(1)], "polarization": [1]}
    path.write_text(corpus.render_json(doc), "utf-8")
    return path


def test_partners_over_the_fingerprint_cap_exit_two_at_once(capsys, tmp_path, monkeypatch):
    # the partners of E_i^4 have NS rank 16, a box of (3^16 - 1) / 2 Smith forms
    monkeypatch.setattr(partners, "snf", lambda m: pytest.fail("a fingerprint Smith form ran"))
    code, lines, err = run(
        capsys,
        "partners", _e_i_power(tmp_path, 4),
        "--coeff-bound", "1", "--denom-bound", "2", "--search-bound", "0",
    )
    assert_input_error(code, err)
    assert err.count("\n") == 1 and "21523360 Smith forms" in err and "fingerprint cap" in err
    assert lines == []


def test_partners_under_the_fingerprint_cap_take_the_whole_box(capsys, tmp_path):
    # the partners of E_i^3 have NS rank 9, a box of (3^9 - 1) / 2 = 9841
    out = tmp_path / "partners.json"
    code, lines, _ = run(
        capsys,
        "partners", _e_i_power(tmp_path, 3),
        "--coeff-bound", "1", "--denom-bound", "2", "--search-bound", "0", "--json", out,
    )
    assert code == 0 and lines[-1] == "2 partner presentations"
    prints = [row["fingerprint"] for row in json.loads(out.read_text("utf-8"))["entries"]]
    assert [(p["ns_rank"], len(p["profiles"])) for p in prints] == [(9, 3**9 - 1)] * 2


def test_unreadable_files_exit_two_and_name_the_file(capsys, corpus_dir, tmp_path):
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "amu", missing, "--slope", "1*E0")
    assert_input_error(code, err)
    assert "missing.json" in err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "amu", binary, "--slope", "1*E0")
    assert_input_error(code, err)
    assert "binary.json" in err
    report = tmp_path / "no_such_dir" / "report.json"
    code, _, err = run(capsys, "kl", corpus_dir / "e_i.json", "--class", "2*E0", "--json", report)
    assert_input_error(code, err)
    assert "report.json" in err


@pytest.mark.parametrize("argv, doc, key", [
    (["validate", "bad.json"], {"format": "fmtori/variety", "g": 1}, "j"),
    (["audit", "e_i.json", "e_i.json", "--class", "bad.json", "--l", "1"],
     {"format": "fmtori/product-class"}, "matrix"),
    (["search-n", "e_i.json", "--l", "2", "--target", "bad.json", "--bound", "3"],
     {"format": "fmtori/subgroup"}, "overlattice"),
])
def test_format_errors_name_the_file(capsys, corpus_dir, tmp_path, argv, doc, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), "utf-8")
    argv = [bad if a == "bad.json" else corpus_dir / a if a.endswith(".json") else a
            for a in argv]
    code, lines, err = run(capsys, *argv)
    assert_input_error(code, err)
    assert err == f"error: {bad}: missing key {key!r}\n"
    assert lines == []
