import pytest

from chen3.arith_core import build_factor_table


@pytest.fixture(scope="session")
def table_1e5():
    """Shared factor table over [1, 100002]."""
    return build_factor_table(100_002)
