import random

import pytest

from uhfree import emptiness, normalform


@pytest.fixture
def rng():
    return random.Random(20240601)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts and ends with no family representative or shape checked
    (normalform._family_report, normalform._shape_report) and no emptiness
    certificate built (emptiness._universal)."""
    caches = (normalform._family_report, normalform._shape_report, emptiness._universal)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
