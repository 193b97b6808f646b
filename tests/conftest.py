import random

import pytest

from uhfree import emptiness, normalform


@pytest.fixture
def rng():
    return random.Random(20240601)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts and ends with no family shape checked (normalform._shape_report)
    and no emptiness certificate built (emptiness._universal)."""
    for cache in (normalform._shape_report, emptiness._universal):
        cache.cache_clear()
    yield
    for cache in (normalform._shape_report, emptiness._universal):
        cache.cache_clear()
