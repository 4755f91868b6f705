import json

import pytest

from fmtori import corpus
from fmtori.varieties import validate


def test_shipped_files_match_builders():
    # the checked-in JSON must be exactly what the builders produce
    for fname in corpus.shipped_names():
        expected = corpus.render_json(corpus.shipped_document(fname))
        assert corpus.corpus_text(fname) == expected, fname


def test_all_shipped_varieties_validate():
    for fname in corpus.shipped_names():
        doc = json.loads(corpus.corpus_text(fname))
        if doc["format"] != "fmtori/variety":
            continue
        assert validate(corpus.variety_from_json(doc)).ok, fname


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
    for mutate in (
        lambda d: d.pop("format"),
        lambda d: d.update(g=0),
        lambda d: d.update(polarization=[1, 2]),
        lambda d: d.update(ns_basis=[]),
        lambda d: d.update(name=3),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(corpus.CorpusFormatError):
            corpus.variety_from_json(doc)


def test_subgroup_file_round_trip(e_i):
    doc = corpus.shipped_document("two_torsion.json")
    sub = corpus.subgroup_from_json(doc, e_i)
    assert sub.order == 4
    again = corpus.subgroup_to_json(sub, name="two_torsion")
    assert again == doc


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
    doc = corpus.shipped_document("poincare_class.json")
    pc = corpus.product_class_from_json(doc, e_i, e_i)
    assert pc.name == "poincare"
    doc_bad = json.loads(json.dumps(doc))
    doc_bad["matrix"][0][2] = "1/2"
    with pytest.raises(corpus.CorpusFormatError):
        corpus.product_class_from_json(doc_bad, e_i, e_i)


def test_write_corpus_round_trips(tmp_path):
    written = corpus.write_corpus(tmp_path)
    assert written == corpus.shipped_names()
    for fname in written:
        assert (tmp_path / fname).read_text("utf-8") == corpus.corpus_text(fname)
