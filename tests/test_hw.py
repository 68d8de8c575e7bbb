"""Fractional ideals, duals, and torsion in I tensor Hom(I, R)."""

import pytest

from burchkit.hw import (
    FractionalSemigroupIdeal,
    dual_ideal,
    fractional_from_ideal,
    hw_has_torsion,
    hw_report,
)
from burchkit.rings import QuotientRing, SemigroupRing
from burchkit.semigroup import NumericalSemigroup


def test_dual_of_maximal_ideal():
    s = NumericalSemigroup((3, 4, 5))
    m = FractionalSemigroupIdeal(s, (3, 4, 5))
    dual = dual_ideal(m)
    # z + m inside S for exactly z in {0, 1, 2} + S
    assert set(dual.gens) == {0, 1, 2}
    assert not dual.is_integral() or dual.gens == (0,)


def test_dual_of_principal_is_principal():
    s = NumericalSemigroup((3, 4, 5))
    i = FractionalSemigroupIdeal(s, (7,))
    dual = dual_ideal(i)
    assert dual.is_principal()
    assert dual.gens == (-7,)


def test_double_dual_of_fractional_ideal_contains_it():
    s = NumericalSemigroup((4, 5, 6))
    i = FractionalSemigroupIdeal(s, (4, 6))
    dd = dual_ideal(dual_ideal(i))
    assert i.subset_of(dd)


def test_dual_of_zero_rejected():
    s = NumericalSemigroup((3, 4, 5))
    with pytest.raises(ValueError):
        dual_ideal(FractionalSemigroupIdeal(s, ()))


def test_torsion_for_maximal_ideal_over_3_4_5():
    ring = SemigroupRing((3, 4, 5))
    verdict = hw_has_torsion(fractional_from_ideal(ring.maximal_ideal()))
    assert verdict.has_torsion
    assert verdict.tor1_dim > 0
    assert verdict.certified


def test_no_torsion_for_principal_ideals():
    ring = SemigroupRing((3, 4, 5))
    for v in (3, 6, 10):
        verdict = hw_has_torsion(fractional_from_ideal(ring.ideal([v])))
        assert not verdict.has_torsion
        assert verdict.tor1_dim == 0
        assert verdict.certified


def test_torsion_for_cube_of_maximal_ideal_over_4_5_6():
    ring = SemigroupRing((4, 5, 6))
    verdict = hw_has_torsion(fractional_from_ideal(ring.mpow(3)))
    assert verdict.has_torsion
    assert verdict.certified


def test_verdict_is_shift_invariant():
    s = NumericalSemigroup((4, 5, 6))
    i = FractionalSemigroupIdeal(s, (4, 5))
    a = hw_has_torsion(i)
    b = hw_has_torsion(FractionalSemigroupIdeal(s, (9, 10)))
    assert a.has_torsion == b.has_torsion
    assert a.tor1_dim == b.tor1_dim


def test_regular_ambient_rejected():
    s = NumericalSemigroup((1,))
    with pytest.raises(ValueError):
        hw_has_torsion(FractionalSemigroupIdeal(s, (2, 3)))
    with pytest.raises(ValueError):
        hw_has_torsion(FractionalSemigroupIdeal(NumericalSemigroup((3, 4, 5)), ()))


def test_report_hypotheses_for_constructed_instance():
    # I = m * J satisfies the weak fullness hypothesis with respect to J
    ring = SemigroupRing((4, 5, 6))
    j = ring.ideal([4, 5])
    i = ring.maximal_ideal() * j
    rep = hw_report(fractional_from_ideal(i), fractional_from_ideal(j))
    assert rep.hypotheses_hold
    assert rep.subset_mj
    assert rep.wmf_wrt_j
    assert rep.has_torsion
    assert rep.certified
    assert not rep.is_principal


def test_report_without_wrt_still_decides_torsion():
    ring = SemigroupRing((4, 5, 6))
    rep = hw_report(fractional_from_ideal(ring.ideal([8])))
    assert rep.is_principal
    assert not rep.has_torsion
    assert rep.subset_mj is None
    assert rep.wmf_wrt_j is None
    assert not rep.hypotheses_hold


def test_fractional_view_needs_a_semigroup_ideal():
    ring = QuotientRing(2, [(2, 0), (0, 2)])
    with pytest.raises(ValueError, match="hw needs an ideal over a semigroup ring"):
        fractional_from_ideal(ring.maximal_ideal())
