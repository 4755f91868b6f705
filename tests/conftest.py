import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from fmtori.corpus import (  # noqa: E402
    square_curve_product,
    square_lattice_curve,
    variety_from_json,
)
from fmtori.lattices import FiniteGroupStructure, Lattice, LatticeContainmentError  # noqa: E402
from fmtori.matrices import Mat, integer_kernel, snf  # noqa: E402
from fmtori.varieties import TorusVariety  # noqa: E402


def where_integral_by_kernel(level: int, conditions: Mat) -> Lattice:
    """{v in (1/level) Z^n : conditions @ v integral} by an independent
    route: the conditions on the scaled standard basis c cleared to ri / d,
    the integer kernel of [ri | -d I], and c times its top block
    canonicalized by the ``Lattice`` constructor.  It never calls
    ``sublattice_where_integral``, so it can check that function."""
    n = conditions.cols
    c = Fraction(1, level) * Mat.identity(n)
    ri, d = (conditions @ c).cleared()
    if d == 1:
        return Lattice(c)
    ker = integer_kernel(Mat.hstack(ri, -d * Mat.identity(ri.rows)))
    return Lattice(c @ ker.submatrix(range(n), range(ker.cols)))


def kernel_by_inverse(m: Mat) -> Lattice:
    """m^-1 Z^n = {v : m v integral} for a nonsingular square m, by an
    independent route: the columns of m^-1 canonicalized by the ``Lattice``
    constructor.  It never calls ``sublattice_where_integral``, so it can
    check the kernels read off that function."""
    return Lattice(m.inverse())


def quotient_by_inverse(sub: Lattice, sup: Lattice) -> FiniteGroupStructure:
    """Elementary divisors of sup/sub for nested full rank lattices, by the
    general route: sup^-1 sub must be integral, and its Smith form gives
    the quotient.  It never calls ``quotient_structure``, which is the case
    sub = Z^n read off one Smith form of sup, so it can check it."""
    x = sup.basis.inverse() @ sub.basis
    if not x.is_integral():
        raise LatticeContainmentError("sub is not contained in sup")
    return FiniteGroupStructure.from_diagonal(snf(x))


def mat_sum(a: Mat, b: Mat) -> Mat:
    """a + b for two matrices of one shape: [a b] times two stacked identities."""
    i = Mat.identity(a.cols)
    return Mat.hstack(a, b) @ Mat.vstack(i, i)


CORPUS = resources.files("fmtori") / "corpus"
# the names of the corpus files installed with the package, sorted
SHIPPED_NAMES = sorted(f.name for f in CORPUS.iterdir())


def corpus_text(filename: str) -> str:
    """The text of a shipped corpus file, as installed with the package."""
    return (CORPUS / filename).read_text("utf-8")


def copy_corpus(directory: Path) -> Path:
    """directory, holding a byte-for-byte copy of every installed corpus file."""
    for name in SHIPPED_NAMES:
        (directory / name).write_bytes((CORPUS / name).read_bytes())
    return directory


# the variety of every installed variety file, by file name
SHIPPED_VARIETIES = {
    name: variety_from_json(doc)
    for name in SHIPPED_NAMES
    if (doc := json.loads(corpus_text(name)))["format"] == "fmtori/variety"
}


def unimodular(n: int):
    """Hypothesis strategy for n x n integer matrices U with det U = +-1:
    the identity after at most 6 elementary column moves, each adding k
    times one column to another (|k| <= 2) or negating a column."""
    move = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    return st.lists(move, max_size=6).map(lambda moves: _column_moves(n, moves))


def _column_moves(n: int, moves) -> Mat:
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for src, dst, k in moves:
        if src == dst:
            cols[dst] = [-x for x in cols[dst]]
        else:
            cols[dst] = [x + k * y for x, y in zip(cols[dst], cols[src])]
    return Mat.from_cols(cols)


def transported(a: TorusVariety, u: Mat) -> TorusVariety:
    """T_U(A): A presented in the lattice basis given by the columns of U,
    (U^-1 J U, U^T e U for each NS basis class, the same polarization
    coefficients), under the same name.  U itself is an isomorphism
    T_U(A) -> A, so invariants agree, and the NS basis order is kept, so
    coefficient-space answers agree too."""
    classes = tuple(u.T @ e @ u for e in a.ns_basis)
    return TorusVariety(a.g, u.inverse() @ a.j @ u, classes, a.polarization, name=a.name)


@pytest.fixture(scope="session")
def e_i():
    return square_lattice_curve()


@pytest.fixture(scope="session")
def e_2i():
    return SHIPPED_VARIETIES["e_2i.json"]


@pytest.fixture(scope="session")
def e_i_squared():
    return square_curve_product()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The installed corpus, copied to a temporary directory."""
    return copy_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def partner_entries():
    """The partners of the benchmark's enumeration workload: bounds 1 and 2
    on E_i x E_i, 80 entries."""
    from fmtori.partners import enumerate_partners

    return enumerate_partners(square_curve_product(), 1, 2)


@pytest.fixture
def count_calls(monkeypatch):
    """count(module, name): the list that collects the arguments of every
    call of module.name, counted through each fmtori module that binds the
    function, so that a caller importing it by name is counted too."""

    def count(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            package = getattr(mod, "__name__", "").partition(".")[0]
            if package == "fmtori" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return count


@pytest.fixture
def cold_caches():
    """Empty every ``functools`` cache on the fmtori modules, as in a fresh
    process, so that a count pin reads no entry an earlier test filled.
    Every cache must be bounded (``maxsize`` set), so none grows without
    limit in a long-lived process."""
    caches = {
        f"{mod.__name__}.{attr}": value
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").partition(".")[0] == "fmtori"
        for attr, value in vars(mod).items()
        if callable(getattr(value, "cache_clear", None))
    }
    assert caches
    unbounded = sorted(
        name for name, c in caches.items() if c.cache_parameters()["maxsize"] is None
    )
    assert not unbounded, f"unbounded caches: {unbounded}"
    for cache in caches.values():
        cache.cache_clear()


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules():
    """The benchmark's ``layers`` and ``workloads`` modules, imported from
    ``bench/`` without writing there and removed again afterwards."""
    names = ("layers", "tracer", "workloads")
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    saved_modules = {name: sys.modules.get(name) for name in names}
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        import layers
        import workloads

        yield layers, workloads
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
