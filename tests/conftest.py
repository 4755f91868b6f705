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
def partner_entries():
    """The partners of the benchmark's enumeration workload: bounds 1 and 2
    on E_i x E_i, 80 entries."""
    from fmtori.partners import enumerate_partners

    return enumerate_partners(square_curve_product(), 1, 2)
