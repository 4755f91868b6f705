"""The JSON interchange format and the varieties the gate builds in code.

The corpus is the six JSON files installed with the package in
``corpus/``; they are read with ``load_json_file`` and the ``*_from_json``
parsers.  Three of them, E_i, E_i x E_i and the Poincare class, are also
built here, because the release gate and the benchmark start from them.

Three file kinds, each tagged with a ``format`` key:

* variety files: name, g, complex structure (rational entries), NS basis
  (integral matrices), polarization coefficients;
* product-class files: a single integral matrix, to be interpreted on the
  product of two separately supplied varieties;
* subgroup files: columns of a rational overlattice basis; the subgroup is
  that overlattice modulo the standard one.

Rationals are strings like ``"-3/2"``: an optional sign, ASCII digits, and
optionally ``/`` and more digits, nothing else.  Integers are JSON numbers
unless they would not round-trip through a double, in which case they are
strings of the same form.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .lattices import Lattice
from .matrices import Mat
from .product_audit import ProductNSClass
from .varieties import FiniteSubgroup, TorusVariety, _excerpt, product

_SAFE_INT = 2**53
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class CorpusFormatError(ValueError):
    """Raised when a JSON file does not parse into the expected shape."""


def rational_to_json(x):
    if type(x) is not int:
        x = Fraction(x)
        if x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        x = x.numerator
    return x if abs(x) < _SAFE_INT else str(x)


def rational_from_json(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise CorpusFormatError(f"expected an integer or 'p/q' string, got {_excerpt(v)}")
    # Fraction alone would also take decimals, underscores and exponents,
    # and "1e10000000" would build a ten-million-digit integer
    if isinstance(v, str) and not _RATIONAL.fullmatch(v):
        raise CorpusFormatError(f"bad rational {_excerpt(v)}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise CorpusFormatError(f"bad rational {_excerpt(v)}") from exc


def matrix_to_json(m: Mat) -> list[list]:
    return [list(map(rational_to_json, row)) for row in m.data]


def matrix_from_json(rows) -> Mat:
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)
        or not rows[0]
    ):
        raise CorpusFormatError("matrix must be a non-empty rectangular array")
    return Mat(tuple(tuple(rational_from_json(v) for v in r) for r in rows))


def _require(d: dict, key: str):
    if key not in d:
        raise CorpusFormatError(f"missing key {key!r}")
    return d[key]


def variety_to_json(a: TorusVariety) -> dict:
    return {
        "format": "fmtori/variety",
        "name": a.name,
        "g": a.g,
        "j": matrix_to_json(a.j),
        "ns_basis": [matrix_to_json(e) for e in a.ns_basis],
        "polarization": list(a.polarization),
    }


def variety_from_json(d: dict) -> TorusVariety:
    if not isinstance(d, dict) or d.get("format") != "fmtori/variety":
        raise CorpusFormatError("not a variety file (format key missing or wrong)")
    g = _require(d, "g")
    if not isinstance(g, int) or g < 1:
        raise CorpusFormatError("g must be a positive integer")
    j = matrix_from_json(_require(d, "j"))
    basis = _require(d, "ns_basis")
    if not isinstance(basis, list) or not basis:
        raise CorpusFormatError("ns_basis must be a non-empty list of matrices")
    ns = tuple(matrix_from_json(e) for e in basis)
    pol = _require(d, "polarization")
    if not isinstance(pol, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in pol
    ):
        raise CorpusFormatError("polarization must be a list of integers")
    if len(pol) != len(ns):
        raise CorpusFormatError("polarization length must match ns_basis length")
    name = d.get("name", "A")
    if not isinstance(name, str):
        raise CorpusFormatError("name must be a string")
    # shape errors surface here as ValueError; semantic checks stay in validate()
    try:
        return TorusVariety(g, j, ns, tuple(pol), name=name)
    except ValueError as exc:
        raise CorpusFormatError(str(exc)) from exc


def product_class_from_json(d: dict, a: TorusVariety, b: TorusVariety) -> ProductNSClass:
    if not isinstance(d, dict) or d.get("format") != "fmtori/product-class":
        raise CorpusFormatError("not a product-class file (format key missing or wrong)")
    m = matrix_from_json(_require(d, "matrix"))
    name = d.get("name", "M")
    try:
        return ProductNSClass(a, b, m, name=name)
    except ValueError as exc:
        raise CorpusFormatError(str(exc)) from exc


def subgroup_from_json(d: dict, a: TorusVariety) -> FiniteSubgroup:
    if not isinstance(d, dict) or d.get("format") != "fmtori/subgroup":
        raise CorpusFormatError("not a subgroup file (format key missing or wrong)")
    basis = matrix_from_json(_require(d, "overlattice"))
    try:
        sub = FiniteSubgroup(a, Lattice(basis))
        sub.structure  # full rank and containing the periods: the structure checks both
    except ValueError as exc:
        raise CorpusFormatError(str(exc)) from exc
    return sub


def load_json_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except RecursionError:
            raise CorpusFormatError(f"{path}: arrays or objects nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # neither message quotes more than a few characters of input
            raise CorpusFormatError(f"{path}: {exc}") from exc
        except ValueError:
            # the one other ValueError: a number literal past Python's integer
            # digit limit, whose message advises raising the limit
            raise CorpusFormatError(
                f"{path}: integer literal longer than {sys.get_int_max_str_digits()} digits"
            ) from None
    if not isinstance(d, dict):
        raise CorpusFormatError(f"{path}: top level must be an object")
    return d


# ---------------------------------------------------------------------------
# the varieties the gate and the benchmark build; their files ship in corpus/


def square_lattice_curve() -> TorusVariety:
    """The elliptic curve with period lattice Z + Zi."""
    j = Mat(((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0))))
    e0 = Mat(((0, 1), (-1, 0)))
    return TorusVariety(1, j, (e0,), (1,), name="E_i")


def square_curve_product() -> TorusVariety:
    """E_i x E_i with its full rank four NS basis."""
    a = square_lattice_curve()
    return product(a, a, name="E_i x E_i").variety


def poincare_class() -> ProductNSClass:
    """The correspondence class of the identity on E_i x dual(E_i).

    dual(E_i) has the same presentation as E_i, so this class lives on the
    product of the square lattice curve with itself.
    """
    a = square_lattice_curve()
    zero = Mat.zeros(2, 2)
    m = Mat.block(((zero, Mat.identity(2)), (-Mat.identity(2), zero)))
    return ProductNSClass(a, a, m, name="poincare")


def render_json(obj) -> str:
    """The one serialization used everywhere byte-stability matters."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"
