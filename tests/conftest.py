import random

import pytest

from uhfree import cli, emptiness, normalform

from .helpers import time_limit

# Wall-time limit of one test, far above the slowest (about 3 s on a 2-CPU
# machine), so that a kernel that never returns fails its test instead of
# hanging the suite.
TEST_TIME_LIMIT = 60


@pytest.fixture
def rng():
    return random.Random(20240601)


@pytest.fixture(autouse=True)
def per_test_time_limit():
    with time_limit(TEST_TIME_LIMIT):
        yield


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts and ends with no argv parsed (cli._parsed), no
    family shape checked (normalform._shape_report), no emptiness
    certificate built (emptiness._universal), rendered at a size
    (emptiness._rendered) or replayed for verification (emptiness._replay)."""
    caches = (
        cli._parsed,
        normalform._shape_report,
        emptiness._universal,
        emptiness._rendered,
        emptiness._replay,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
