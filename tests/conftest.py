import pytest

from hopfqexp.double import drinfeld_double
from hopfqexp.presets import get_preset
from hopfqexp.qexp import quasi_exponent
from hopfqexp.suite import _Context


@pytest.fixture(scope="session")
def preset_cache():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = get_preset(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def double_cache(preset_cache):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = drinfeld_double(preset_cache(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def report_cache(preset_cache):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = quasi_exponent(preset_cache(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def suite_twists():
    """The theorem suite's seven twists, by their description in the suite."""
    return {name: T for name, T, _ in _Context(deep=False, max_dim=None).twists()}
