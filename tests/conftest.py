import pytest
from hypothesis import settings

from primefold import build_sieve, core

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def big_sieve():
    # covers p_10001 = 104743
    return build_sieve(120_000)


@pytest.fixture(scope="session")
def small_sieve():
    return build_sieve(5_000)


@pytest.fixture(scope="module", autouse=True)
def keep_indicator_stores():
    # modules that reset the stores hand later modules the scans made before them
    saved = dict(core._STORES)
    yield
    core._STORES.update(saved)
