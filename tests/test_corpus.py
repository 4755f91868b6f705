import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import SHIPPED_NAMES, SHIPPED_VARIETIES, corpus_text

from fmtori import corpus
from fmtori.matrices import Mat
from fmtori.varieties import torsion_subgroup, validate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_installed_corpus_is_the_six_files_the_readme_lists():
    section = README.read_text("utf-8").split("## The corpus\n")[1].split("\n## ")[0]
    listed = re.findall(r"^\* `([^`]+)`", section, re.MULTILINE)
    assert len(listed) == 6
    assert SHIPPED_NAMES == sorted(listed)


def test_shipped_files_match_builders():
    docs = {fname: json.loads(corpus_text(fname)) for fname in SHIPPED_NAMES}
    # each file is the canonical rendering of its own document
    for fname, doc in docs.items():
        assert corpus_text(fname) == corpus.render_json(doc), fname
    # the three the gate and the benchmark also build in code
    for fname, v in (
        ("e_i.json", corpus.square_lattice_curve()),
        ("e_i_x_e_i.json", corpus.square_curve_product()),
    ):
        assert docs[fname] == corpus.variety_to_json(v), fname
    pc = corpus.poincare_class()
    assert docs["poincare_class.json"] == {
        "format": "fmtori/product-class",
        "name": "poincare",
        "matrix": corpus.matrix_to_json(pc.m),
    }
    # the full 2-torsion of E_i
    e_i = corpus.square_lattice_curve()
    two = torsion_subgroup(e_i, 2)
    assert docs["two_torsion.json"] == {
        "format": "fmtori/subgroup",
        "name": "two_torsion",
        "overlattice": corpus.matrix_to_json(two.overlattice.basis),
    }
    sub = corpus.subgroup_from_json(docs["two_torsion.json"], e_i)
    assert (sub.overlattice, sub.order) == (two.overlattice, 4)
    # E_i x E_i with NS cut down to the product principal polarization
    full, ppav = corpus.square_curve_product(), SHIPPED_VARIETIES["e_i_x_e_i_ppav.json"]
    assert (ppav.name, ppav.g, ppav.j) == ("E_i x E_i ppav", full.g, full.j)
    assert (ppav.ns_basis, ppav.polarization) == ((full.ns_class((1, 1, 0, 0)).e,), (1,))
    # the period lattice Z + 2iZ, whose complex structure has denominators
    e_2i = SHIPPED_VARIETIES["e_2i.json"]
    assert (e_2i.name, e_2i.g, e_2i.j) == ("E_2i", 1, Mat(((0, -2), (Fraction(1, 2), 0))))
    assert (e_2i.ns_basis, e_2i.polarization) == ((Mat(((0, 1), (-1, 0))),), (1,))


def test_all_shipped_varieties_validate():
    for fname, v in SHIPPED_VARIETIES.items():
        assert validate(v).ok, fname


def test_variety_round_trip(e_2i):
    doc = corpus.variety_to_json(e_2i)
    again = corpus.variety_from_json(doc)
    assert again == e_2i
    assert corpus.variety_to_json(again) == doc


def test_rational_strings():
    from fractions import Fraction

    assert corpus.rational_to_json(Fraction(-3, 2)) == "-3/2"
    assert corpus.rational_to_json(Fraction(4, 2)) == 2
    assert corpus.rational_from_json("5/3") == Fraction(5, 3)
    assert corpus.rational_from_json(-7) == Fraction(-7)
    big = 2**72
    assert corpus.rational_to_json(big) == str(big)
    assert corpus.rational_from_json(str(big)) == big


def test_integers_are_read_as_ints():
    # Mat takes its plain path only when every entry is an int
    from fractions import Fraction

    for text, value in ((3, 3), (-7, -7), ("12", 12), (str(2**72), 2**72)):
        read = corpus.rational_from_json(text)
        assert type(read) is int and read == value
    assert type(corpus.rational_from_json("6/3")) is Fraction


def test_rational_rejections():
    for bad in (1.5, True, None, "3/0", "x", "1.5", "1e5", "1e10000000", "1_000"):
        with pytest.raises(corpus.CorpusFormatError):
            corpus.rational_from_json(bad)


def test_rational_rejections_quote_a_short_excerpt():
    # a 5000-digit string passes the pattern and fails Python's digit limit
    for bad in ("1" * 5000, [0] * 5000):
        with pytest.raises(corpus.CorpusFormatError) as info:
            corpus.rational_from_json(bad)
        message = str(info.value)
        assert len(message) < 200
        assert f"({len(repr(bad))} characters)" in message


def test_matrix_shape_rejections():
    for bad in ([], [[]], [[1], [1, 2]], "nope"):
        with pytest.raises(corpus.CorpusFormatError):
            corpus.matrix_from_json(bad)


def test_variety_format_rejections(e_i):
    good = corpus.variety_to_json(e_i)
    for mutate, message in (
        (lambda d: d.pop("format"), "not a variety file"),
        (lambda d: d.update(g=0), "g must be a positive integer"),
        # a JSON true is a Python int equal to 1
        (lambda d: d.update(g=True), "g must be a positive integer"),
        (lambda d: d.update(polarization=[1, 2]), "polarization length must match"),
        (lambda d: d.update(ns_basis=[]), "ns_basis must be a non-empty list"),
        (lambda d: d.update(name=3), "name must be a string"),
        # a name is printed in reports: it cannot forge a line or drive the terminal
        (lambda d: d.update(name="E\nall checks passed"), "name must be printable"),
        (lambda d: d.update(name="E\x1b[2J"), "name must be printable"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(corpus.CorpusFormatError, match=message):
            corpus.variety_from_json(doc)


@pytest.mark.parametrize("overlattice, message", [
    ([[2, 0], [0, 1]], "not contained"),
    ([["1/2"], [0]], "full rank"),
    ([[0, 0], [0, 0]], "full rank"),
])
def test_subgroup_file_must_contain_the_periods_at_full_rank(e_i, overlattice, message):
    doc = {"format": "fmtori/subgroup", "overlattice": overlattice}
    with pytest.raises(corpus.CorpusFormatError, match=message):
        corpus.subgroup_from_json(doc, e_i)


def test_product_class_file_needs_integrality(e_i):
    doc = json.loads(corpus_text("poincare_class.json"))
    pc = corpus.product_class_from_json(doc, e_i, e_i)
    assert pc.name == "poincare"
    doc_bad = json.loads(json.dumps(doc))
    doc_bad["matrix"][0][2] = "1/2"
    with pytest.raises(corpus.CorpusFormatError, match="class is not integral"):
        corpus.product_class_from_json(doc_bad, e_i, e_i)
    # a name is part of a class's identity, so it must be a hashable string
    doc_bad = dict(doc, name=["poincare"])
    with pytest.raises(corpus.CorpusFormatError, match="name must be a string"):
        corpus.product_class_from_json(doc_bad, e_i, e_i)
    for name in ("poincare\nall checks passed", "poincare\x1b[2J"):
        with pytest.raises(corpus.CorpusFormatError, match="name must be printable"):
            corpus.product_class_from_json(dict(doc, name=name), e_i, e_i)
