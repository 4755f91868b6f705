import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from fmtori.corpus import (  # noqa: E402
    doubled_square_lattice_curve,
    square_curve_product,
    square_lattice_curve,
    write_corpus,
)


@pytest.fixture(scope="session")
def e_i():
    return square_lattice_curve()


@pytest.fixture(scope="session")
def e_2i():
    return doubled_square_lattice_curve()


@pytest.fixture(scope="session")
def e_i_squared():
    return square_curve_product()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The shipped corpus, written to a temporary directory."""
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(d)
    return d


@pytest.fixture(scope="session")
def partner_entries():
    """The partners of the benchmark's enumeration workload: bounds 1 and 2
    on E_i x E_i, 80 entries."""
    from fmtori.partners import enumerate_partners

    return enumerate_partners(square_curve_product(), 1, 2)


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
