import random

import pytest

from uhfree import normalform


@pytest.fixture
def rng():
    return random.Random(20240601)


@pytest.fixture(autouse=True)
def fresh_shape_reports():
    """Each test starts and ends with no family shape checked (normalform._shape_report)."""
    normalform._shape_report.cache_clear()
    yield
    normalform._shape_report.cache_clear()
