"""The exit-code contract under fuzzed input: whatever the files and literals,
``fmtori`` returns 0, 1 or 2 and never lets an exception escape.

``cli.main`` runs in-process on the shipped curves, with fuzzed subgroup
files for ``search-n``, fuzzed product-class files for ``audit`` and fuzzed
literals for ``kl`` and ``amu``, at small ``--l`` and ``--bound``.  Raw
texts that no JSON document generator writes (deep nesting, number
literals past Python's digit limit, truncated and concatenated corpus
files) go to every command that loads a file.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtori import corpus
from fmtori.cli import main
from fmtori.varieties import product

CURVES = ("e_i.json", "e_2i.json")
FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_corpus")
    corpus.write_corpus(d)
    return d


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def _main(argv) -> int:
    return _run(argv)[0]


def _write(directory, name, doc):
    path = directory / name
    path.write_text(json.dumps(doc), "utf-8")
    return path


# JSON scalars: exact integers and rationals, and values no matrix entry takes
entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).map(str),
    st.sampled_from(["x", "1/0", "", "1.5", None, True, 2.5, [], {}]),
)
matrices = st.one_of(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=5)
    ),
    st.lists(st.lists(entries, max_size=4), max_size=4),  # ragged
    st.sampled_from([None, 3, "m", [[]]]),
)
# the periods plus a few rational columns: overlattices that are valid targets
fractions = st.fractions(min_value=-1, max_value=1, max_denominator=4).map(str)
overlattices = st.lists(st.tuples(fractions, fractions), max_size=2).map(
    lambda cols: [[1, 0] + [c[0] for c in cols], [0, 1] + [c[1] for c in cols]]
)
small_l = st.integers(-1, 4)
small_bound = st.integers(-1, 2)


def _document(kind, key, values):
    # mostly well-formed documents, sometimes without the key or the tag
    return st.tuples(values, st.sampled_from(["full", "no key", "bad tag"])).map(
        lambda t: {"format": kind, key: t[0]} if t[1] == "full"
        else {"format": kind} if t[1] == "no key"
        else {"format": "fmtori/other", key: t[0]}
    )


@FUZZ
@given(
    curve=st.sampled_from(CURVES),
    doc=_document("fmtori/subgroup", "overlattice", st.one_of(overlattices, matrices)),
    l=small_l,
    bound=small_bound,
)
def test_search_n_on_fuzzed_subgroup_files(corpus_dir, curve, doc, l, bound):
    target = _write(corpus_dir, "fuzz_subgroup.json", doc)
    _main(["search-n", corpus_dir / curve, "--l", l, "--target", target, "--bound", bound])


def _product_classes(curve_file):
    # integer combinations of the product's NS basis, which are valid classes,
    # alongside arbitrary integer matrices
    a = corpus.variety_from_json(json.loads(corpus.corpus_text(curve_file)))
    basis = product(a, a).variety.ns_basis
    combos = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)).map(
        lambda cs: corpus.matrix_to_json(sum((c * e for c, e in zip(cs, basis)), 0 * basis[0]))
    )
    square = st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4)
    return st.one_of(combos, square, matrices)


@FUZZ
@given(data=st.data(), l=small_l)
def test_audit_on_fuzzed_product_class_files(corpus_dir, data, l):
    curve = data.draw(st.sampled_from(CURVES))
    doc = data.draw(_document("fmtori/product-class", "matrix", _product_classes(curve)))
    cls = _write(corpus_dir, "fuzz_class.json", doc)
    _main(["audit", corpus_dir / curve, corpus_dir / curve, "--class", cls, "--l", l])


terms = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.one_of(st.just(""), st.integers(0, 12).map(lambda c: f"{c}*")),
    st.sampled_from(["E0", "E1", "E", "e0", "0", "*"]),
).map("".join)
literals = st.one_of(
    st.tuples(
        st.lists(terms, min_size=1, max_size=3).map("".join),
        st.one_of(st.just(""), st.integers(-2, 6).map(lambda d: f"/{d}"), st.just("/x")),
    ).map("".join),
    st.text(alphabet="E0123*/+- x", max_size=8),
)


@FUZZ
@given(
    command=st.sampled_from([("kl", "--class"), ("amu", "--slope")]),
    curve=st.sampled_from(CURVES),
    literal=literals,
)
def test_literal_commands_on_fuzzed_literals(corpus_dir, command, curve, literal):
    name, option = command
    # option=value, so that a literal starting with '-' is not read as an option
    _main([name, corpus_dir / curve, f"{option}={literal}"])


# -- raw text ---------------------------------------------------------------------

SHIPPED_TEXTS = [corpus.corpus_text(name) for name in corpus.shipped_names()]
_NUMBER = re.compile(r"[0-9]+")


def _nested(depth: int, bracket: str) -> str:
    if bracket == "[":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "0" + "}" * depth


def _replace_number(text: str, index: int, replacement: str) -> str:
    # every shipped file holds digits: in g, the matrices and the polarization
    spots = list(_NUMBER.finditer(text))
    m = spots[index % len(spots)]
    return text[: m.start()] + replacement + text[m.end() :]


shipped = st.sampled_from(SHIPPED_TEXTS)
nestings = st.builds(_nested, st.sampled_from((2, 500, 5_000, 100_000)), st.sampled_from("[{"))
long_numbers = st.sampled_from((100, 4_300, 4_301, 5_000)).map(lambda n: "7" * n)
raw_texts = st.one_of(
    nestings,
    st.builds(_replace_number, shipped, st.integers(0, 60), st.one_of(nestings, long_numbers)),
    # a strict prefix of a shipped file is never a whole JSON document
    st.builds(lambda t, f: t[: int(f * (len(t) - 1))], shipped, st.floats(0, 1)),
    st.builds(lambda a, b: a + b, shipped, shipped),
)


def _loading_commands(d, path):
    curve = d / "e_i.json"
    return [
        ["validate", path],
        ["dual", path],
        ["kl", path, "--class=E0"],
        ["amu", path, "--slope=E0/2"],
        ["partners", path, "--coeff-bound", 1, "--denom-bound", 1, "--search-bound", 0],
        ["ppav-check", path, "--n", 1, "--l", 2],
        ["audit", curve, curve, "--class", path, "--l", 2],
        ["search-n", curve, "--l", 2, "--target", path, "--bound", 1],
    ]


@FUZZ
@given(text=raw_texts, command=st.integers(0, 7))
def test_loading_commands_on_raw_text(corpus_dir, text, command):
    path = corpus_dir / "fuzz_raw.json"
    path.write_text(text, "utf-8")
    _main(_loading_commands(corpus_dir, path)[command])


@pytest.mark.parametrize(
    "text",
    (_nested(100_000, "["), _replace_number(corpus.corpus_text("e_i.json"), 0, "7" * 5_000)),
    ids=("nested", "digits"),
)
def test_reproduced_files_exit_two_with_one_error_line(corpus_dir, tmp_path, text):
    # each file once made the loader raise past the exit-code contract: a
    # RecursionError, and the ValueError of the integer digit limit
    path = tmp_path / "bad.json"
    path.write_text(text, "utf-8")
    for argv in _loading_commands(corpus_dir, path):
        code, err = _run(argv)
        assert code == 2, argv
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, argv
