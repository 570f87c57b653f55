"""The bulk builds make no reference cycles, so the collector finds nothing.

Each build runs with the collector off, after a collection that clears
what came before; a collection right after it must find no unreachable
object.  This is the first step towards pausing the collector around the
builds: a build that makes no cycles frees everything by reference counts.
"""

import gc

import pytest

from hopfqexp.double import drinfeld_double, drinfeld_element
from hopfqexp.hopf import element_minimal_polynomial, validate
from hopfqexp.presets import get_preset
from hopfqexp.qexp import u_min_poly_via_t
from hopfqexp.suite import run_suite


def _unreachable_after(build):
    """What gc.collect() finds right after build(), run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        build()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def uqsl2():
    """uqsl2:3 and the Drinfeld element u of its double."""
    H = get_preset("uqsl2:3")
    return H, drinfeld_element(drinfeld_double(H))


BUILDS = {
    "preset": lambda H, u: get_preset("uqsl2:3"),
    "double": lambda H, u: drinfeld_double(H),
    "t-route": lambda H, u: u_min_poly_via_t(H),
    "power-sequence": lambda H, u: element_minimal_polynomial(u),
    "validate": lambda H, u: validate(H),
    "suite": lambda H, u: run_suite(max_dim=8),
}


@pytest.mark.parametrize("name", BUILDS)
def test_bulk_builds_make_no_reference_cycles(name, uqsl2):
    assert _unreachable_after(lambda: BUILDS[name](*uqsl2)) == 0


def test_the_probe_sees_a_cycle():
    def cycle():
        loop = []
        loop.append(loop)

    assert _unreachable_after(cycle) == 1
