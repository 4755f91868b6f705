"""The ``Record`` contract, on every value and result type of the package.

The field tuples are written out: they are the field orders of the frozen
dataclasses these classes replaced, so positional construction, equality,
hashing and repr keep their meaning.
"""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import fmtori
from fmtori import corpus
from fmtori.lattices import FiniteGroupStructure
from fmtori.matrices import Mat
from fmtori.partners import fingerprint, partner_from_slope, ppav_rigidity_check
from fmtori.product_audit import (
    AuditItem,
    ProductNSClass,
    audit_equivalence,
    graph_subgroup_comparison,
    projection_iso,
)
from fmtori.records import Record
from fmtori.slopes import projection_invariants, reduce_slope, slope_subvariety
from fmtori.varieties import NSClass, TorusVariety, product, torsion_subgroup, validate

FIELDS = {
    "fmtori.lattices.FiniteGroupStructure": ("divisors", "order"),
    "fmtori.partners.Fingerprint": ("g", "ns_rank", "profile_bound", "profiles"),
    "fmtori.partners.PartnerEntry": (
        "coefficients", "denominator", "slope", "record", "partner_fingerprint"),
    "fmtori.partners.PartnerRecord": (
        "source", "slope", "subvariety", "partner", "dual_certificate"),
    "fmtori.partners.RigidityCheck": ("ok", "slope", "kernel", "certificate"),
    "fmtori.product_audit.AuditItem": ("name", "passed", "expected", "actual"),
    "fmtori.product_audit.AuditReport": ("pc", "l", "items", "all_pass", "subtorus"),
    "fmtori.product_audit.GraphComparison": ("first", "second", "equal", "order"),
    "fmtori.product_audit.ProductNSClass": ("a", "b", "m", "name"),
    "fmtori.product_audit.ProjectionIso": ("to_b_side", "to_a_side", "eta"),
    "fmtori.slopes.ProjectionInvariants": ("degree", "stabilizer", "rank"),
    "fmtori.slopes.Slope": ("numerator", "l"),
    "fmtori.slopes.SlopeSubvariety": (
        "slope", "ambient", "member", "embedding", "variety", "to_ambient", "quotient",
        "projection"),
    "fmtori.varieties.FiniteSubgroup": ("variety", "overlattice"),
    "fmtori.varieties.Homomorphism": ("source", "target", "m"),
    "fmtori.varieties.NSClass": ("variety", "e"),
    "fmtori.varieties.Product": ("variety",),
    "fmtori.varieties.TorusVariety": ("g", "j", "ns_basis", "polarization", "name"),
    "fmtori.varieties.ValidationReport": ("failures",),
}


def _record_classes() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(fmtori.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fmtori.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, Record) and value is not Record
                    and value.__module__ == module.__name__):
                found[f"{module.__name__}.{value.__qualname__}"] = value
    return found


@pytest.fixture(scope="module")
def instances(e_i, partner_entries):
    """One instance of every Record subclass, each built by the package."""
    h = NSClass(e_i, e_i.polarization_class())
    mu = reduce_slope(h, 2)
    pc = corpus.poincare_class()
    prod = product(e_i, e_i)
    made = [
        FiniteGroupStructure((2,), 2),
        e_i,
        h,
        validate(e_i),
        torsion_subgroup(e_i, 2),
        prod,
        slope_subvariety(e_i, mu).quotient,
        mu,
        slope_subvariety(e_i, mu),
        projection_invariants(e_i, mu),
        fingerprint(e_i),
        partner_from_slope(e_i, mu),
        partner_entries[0],
        ppav_rigidity_check(e_i, 1, 2),
        pc,
        audit_equivalence(pc, 1),
        audit_equivalence(pc, 1).items[0],
        graph_subgroup_comparison(pc, 1),
        projection_iso(audit_equivalence(pc, 1)),
    ]
    return {f"{type(x).__module__}.{type(x).__qualname__}": x for x in made}


def test_every_record_class_is_pinned_with_its_fields(instances):
    classes = _record_classes()
    assert set(classes) == set(FIELDS) == set(instances)
    for name, cls in classes.items():
        assert cls._fields == FIELDS[name], name


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equality_and_hash_go_by_the_fields(instances, name):
    x = instances[name]
    cls, fields = type(x), FIELDS[name]
    values = [getattr(x, f) for f in fields]
    positional = cls(*values)
    keywords = cls(**dict(zip(fields, values)))
    assert positional == x == keywords
    assert hash(positional) == hash(x) == hash(keywords)

    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(fields, "object")})(*values)
    assert twin._values(twin) == x._values(x)
    assert x != twin and twin != x


def test_a_differing_field_breaks_equality(e_i):
    item = AuditItem("degree", True, "4", "4")
    assert item == AuditItem("degree", True, "4", "4")
    assert item != AuditItem("order", True, "4", "4")
    assert item != AuditItem("degree", False, "4", "4")
    assert item != AuditItem("degree", True, "2", "4")
    assert item != AuditItem("degree", True, "4", "2")
    assert FiniteGroupStructure((2,), 2) != FiniteGroupStructure((3,), 3)
    assert hash(FiniteGroupStructure((2, 2), 4)) == hash(((2, 2), 4))
    assert hash(validate(e_i)) == hash(((),))  # a one-field tuple, as before


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_are_immutable(instances, name):
    x = instances[name]
    first = FIELDS[name][0]
    with pytest.raises(AttributeError):
        setattr(x, first, getattr(x, first))
    with pytest.raises(AttributeError):
        setattr(x, "unrelated", 1)
    with pytest.raises(AttributeError):
        delattr(x, first)
    assert getattr(x, first) is instances[name].__dict__[first]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_lists_the_fields_like_a_dataclass(instances, name):
    x = instances[name]
    shown = ", ".join(f"{f}={getattr(x, f)!r}" for f in FIELDS[name])
    assert repr(x) == f"{type(x).__qualname__}({shown})"


def test_repr_examples(e_i):
    assert repr(FiniteGroupStructure((2,), 2)) == "FiniteGroupStructure(divisors=(2,), order=2)"
    assert repr(AuditItem("a", True, "1", "1")) == (
        "AuditItem(name='a', passed=True, expected='1', actual='1')")
    assert repr(validate(e_i)) == "ValidationReport(failures=())"
    pc = corpus.poincare_class()
    assert "_class" not in repr(pc) and repr(pc).endswith(", name='poincare')")
    # the derived class stays out of equality too
    assert pc.as_class().e == pc.m
    assert pc == ProductNSClass(pc.a, pc.b, pc.m, "another name")


def test_defaults_and_keyword_construction(e_i):
    args = (e_i.g, e_i.j, e_i.ns_basis, e_i.polarization)
    assert TorusVariety(*args).name == "A"
    assert TorusVariety(*args, name="B").name == "B"
    assert TorusVariety(*args, "B") == TorusVariety(*args)  # the name is a label only
    assert TorusVariety(polarization=args[3], g=args[0], ns_basis=args[2], j=args[1]).name == "A"
    pc = corpus.poincare_class()
    assert ProductNSClass(pc.a, pc.b, pc.m).name == "M"
    assert ProductNSClass(pc.a, pc.b, m=pc.m, name="N").name == "N"


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteGroupStructure((2,)), "missing required argument 'order'"),
    (lambda: FiniteGroupStructure(order=2), "missing required argument 'divisors'"),
    (lambda: FiniteGroupStructure((2,), 2, 3), "takes 2 arguments but 3 were given"),
    (lambda: FiniteGroupStructure((2,), 2, exponent=2), "unexpected keyword argument 'exponent'"),
    (lambda: FiniteGroupStructure((2,), 2, divisors=(2,)), "multiple values for argument 'divisors'"),
])
def test_a_missing_unknown_or_repeated_field_raises_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_post_init_runs_once_per_construction(e_i, monkeypatch):
    calls = []
    original = NSClass.__dict__["__post_init__"]

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(NSClass, "__post_init__", counted)
    e = e_i.polarization_class()
    NSClass(e_i, e)
    NSClass(variety=e_i, e=e)
    NSClass(e_i, e=e)
    assert len(calls) == 3


def test_validation_still_raises(e_i):
    with pytest.raises(ValueError, match="alternating"):
        NSClass(e_i, Mat([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="integral"):
        NSClass(e_i, Mat([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]))


def test_cached_properties_fill_the_instance_dict(e_i):
    sub = torsion_subgroup(e_i, 2)
    assert "structure" not in sub.__dict__
    assert sub.structure == FiniteGroupStructure((2, 2), 4)
    assert sub.__dict__["structure"] is sub.structure
