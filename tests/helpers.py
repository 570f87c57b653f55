"""Comparisons shared by the tests."""

from hopfqexp.hopf import HopfAlgebraData


def same_structure(H: HopfAlgebraData, K: HopfAlgebraData) -> bool:
    """Identical structure constants (names and labels ignored)."""
    return (
        H.dim == K.dim
        and H.conductor == K.conductor
        and H.mult_table == K.mult_table
        and H.unit == K.unit
        and H.comult == K.comult
        and H.counit == K.counit
        and H.antipode == K.antipode
    )
