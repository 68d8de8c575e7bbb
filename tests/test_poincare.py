"""Residue-field Betti numbers against closed-form Poincare series."""

import pytest

from burchkit.homalg import GradedAlgebra, cyclic_presentation, resolve
from burchkit.rings import QuotientRing, SemigroupRing

from oracles import ci_poincare_coefficients, golod_poincare_coefficients

DEPTH = 5

# S/m^p with S = k[x, y] is Golod; over S it is resolved by the p + 1
# monomials of degree p and the p Hilbert-Burch syzygies between them.
AMBIENT_BETTI = {2: (3, 2), 3: (4, 3)}


def _power_ring(power):
    return QuotientRing(2, [(a, power - a) for a in range(power + 1)])


@pytest.mark.parametrize("power", sorted(AMBIENT_BETTI))
def test_residue_field_betti_numbers_match_golod_series(power):
    ring = _power_ring(power)
    algebra = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(algebra, ring.maximal_ideal()), DEPTH)
    want = golod_poincare_coefficients(2, AMBIENT_BETTI[power], DEPTH)
    assert res.betti() == want
    assert res.certified_through(DEPTH)


def test_golod_series_agrees_with_acceptance_pin():
    # m^2 = 0 gives 1/(1 - 2t); criterion 5 pins (1, 2, 5) for m^3 = 0
    assert golod_poincare_coefficients(2, AMBIENT_BETTI[2], DEPTH) == (
        1, 2, 4, 8, 16, 32,
    )
    assert golod_poincare_coefficients(2, AMBIENT_BETTI[3], DEPTH)[:3] == (
        1, 2, 5,
    )


# Complete intersections: (embedding dimension, codimension, ring, Betti
# numbers of k to CI_DEPTH).
# k[[t^2, t^3]] is a plane curve, k[[t^4, t^5, t^6]] is cut out by
# y^2 - xz and x^3 - z^2, and (x^2, y^3, z^4) is a regular sequence.
CI_DEPTH = 6
COMPLETE_INTERSECTIONS = {
    "sg23": (2, 1, lambda: SemigroupRing((2, 3)), (1, 2, 2, 2, 2, 2, 2)),
    "sg456": (3, 2, lambda: SemigroupRing((4, 5, 6)), (1, 3, 5, 7, 9, 11, 13)),
    "x2y3z4": (
        3, 3, lambda: QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        (1, 3, 6, 10, 15, 21, 28),
    ),
}


@pytest.mark.parametrize("name", sorted(COMPLETE_INTERSECTIONS))
def test_residue_field_betti_numbers_match_ci_series(name):
    e, c, make_ring, want = COMPLETE_INTERSECTIONS[name]
    assert ci_poincare_coefficients(e, c, CI_DEPTH) == want
    ring = make_ring()
    algebra = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(algebra, ring.maximal_ideal()), CI_DEPTH)
    assert res.betti() == want
    assert res.certified_through(CI_DEPTH)
