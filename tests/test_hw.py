"""Duals of value sets, and torsion in I tensor Hom(I, R)."""

import pytest

from burchkit.fuzz import _SG_POOL, FuzzConfig, trial_rng
from burchkit.homalg import GradedAlgebra, module_from_ideal, tor_dim
from burchkit.hw import dual_ideal, hw_has_torsion, hw_report
from burchkit.rings import QuotientRing, SemigroupRing, SgIdeal
from burchkit.semigroup import NumericalSemigroup, RelativeIdealSet


def test_dual_of_maximal_ideal():
    s = NumericalSemigroup((3, 4, 5))
    m = RelativeIdealSet(s, (3, 4, 5))
    dual = dual_ideal(m)
    # z + m inside S for exactly z in {0, 1, 2} + S
    assert set(dual.gens) == {0, 1, 2}
    assert not dual.is_integral() or dual.gens == (0,)


def test_dual_of_principal_is_principal():
    s = NumericalSemigroup((3, 4, 5))
    i = RelativeIdealSet(s, (7,))
    dual = dual_ideal(i)
    assert len(dual.gens) == 1
    assert dual.gens == (-7,)


def test_double_dual_of_fractional_ideal_contains_it():
    s = NumericalSemigroup((4, 5, 6))
    i = RelativeIdealSet(s, (4, 6))
    dd = dual_ideal(dual_ideal(i))
    assert i.subset_of(dd)


def test_dual_of_zero_rejected():
    s = NumericalSemigroup((3, 4, 5))
    with pytest.raises(ValueError):
        dual_ideal(RelativeIdealSet(s, ()))


def test_torsion_for_maximal_ideal_over_3_4_5():
    ring = SemigroupRing((3, 4, 5))
    verdict = hw_has_torsion(ring.maximal_ideal())
    assert verdict.has_torsion
    assert verdict.tor1_dim > 0
    assert verdict.certified


def test_no_torsion_for_principal_ideals():
    ring = SemigroupRing((3, 4, 5))
    for v in (3, 6, 10):
        verdict = hw_has_torsion(ring.ideal([v]))
        assert not verdict.has_torsion
        assert verdict.tor1_dim == 0
        assert verdict.certified


def test_torsion_for_cube_of_maximal_ideal_over_4_5_6():
    ring = SemigroupRing((4, 5, 6))
    verdict = hw_has_torsion(ring.mpow(3))
    assert verdict.has_torsion
    assert verdict.certified


def test_verdict_is_shift_invariant():
    ring = SemigroupRing((4, 5, 6))
    a = hw_has_torsion(ring.ideal([4, 5]))
    b = hw_has_torsion(ring.ideal([9, 10]))
    assert a.has_torsion == b.has_torsion
    assert a.tor1_dim == b.tor1_dim


def test_regular_ambient_rejected():
    with pytest.raises(ValueError):
        hw_has_torsion(SemigroupRing((1,)).ideal([2, 3]))
    with pytest.raises(ValueError):
        hw_has_torsion(SemigroupRing((3, 4, 5)).zero_ideal())


def test_report_hypotheses_for_constructed_instance():
    # I = m * J satisfies the weak fullness hypothesis with respect to J
    ring = SemigroupRing((4, 5, 6))
    j = ring.ideal([4, 5])
    i = ring.maximal_ideal() * j
    rep = hw_report(i, j)
    assert rep.hypotheses_hold
    assert rep.subset_mj
    assert rep.wmf_wrt_j
    assert rep.has_torsion
    assert rep.certified
    assert not rep.is_principal


def test_report_without_wrt_still_decides_torsion():
    ring = SemigroupRing((4, 5, 6))
    rep = hw_report(ring.ideal([8]))
    assert rep.is_principal
    assert not rep.has_torsion
    assert rep.subset_mj is None
    assert rep.wmf_wrt_j is None
    assert not rep.hypotheses_hold


def test_hw_needs_a_semigroup_ideal():
    ring = QuotientRing(2, [(2, 0), (0, 2)])
    for call in (hw_has_torsion, hw_report):
        with pytest.raises(ValueError, match="hw needs an ideal over a semigroup ring"):
            call(ring.maximal_ideal())


def _engine_tor1(i, p):
    """dim Tor_1(R/I, I*) over GF(p) by resolving I* moved into R."""
    dual = dual_ideal(i.rep)
    j = SgIdeal(i.ring, dual.shift(i.ring.S.conductor - dual.gens[0]).gens)
    pres, pres_certified = module_from_ideal(GradedAlgebra(i.ring, p), j)
    res = tor_dim(pres, i, 1)
    assert pres_certified and res.bound_certified
    return res.total_dim


def test_count_matches_pinned_engine_values():
    # tor1_dim as the resolution engine gave it before hw counted components
    s345, s456 = SemigroupRing((3, 4, 5)), SemigroupRing((4, 5, 6))
    cases = (
        (s345.maximal_ideal(), 6),
        (s456.mpow(3), 12),
        (s456.ideal([17, 19, 20]), 7),
        (s456.ideal([4, 5]), 2),
        (SemigroupRing((6, 7, 9, 11)).maximal_ideal(), 12),
    )
    for i, want in cases:
        assert hw_has_torsion(i).tor1_dim == want, i


def _draw_vals(stream, s):
    """One to three values of S drawn from [floor, floor + c + m], with
    the floor drawn from 1..15."""
    floor = stream.randint(1, 15)
    count = stream.randint(1, 3)
    pool = [v for v in range(floor, floor + s.conductor + s.generators[0] + 1) if v in s]
    return stream.sample(pool, min(count, len(pool)))


def test_count_matches_the_engine_over_two_fields():
    # 20 non-principal draws per pool ring; the engine takes about 0.1 s
    # per ideal over <10, ..., 19>, so that ring gets 6
    cfg = FuzzConfig(seed=7)
    checked = 0
    for gens, quota in [(g, 20) for g in _SG_POOL] + [(tuple(range(10, 20)), 6)]:
        ring = SemigroupRing(gens)
        found = 0
        for k in range(200):
            i = ring.ideal(_draw_vals(trial_rng(cfg, k), ring.S))
            if len(i.min_gens()) == 1:
                continue
            got = hw_has_torsion(i).tor1_dim
            for p in (2, 101):
                assert got == _engine_tor1(i, p), (gens, i.min_gens(), p)
            found += 1
            if found == quota:
                break
        checked += found
    assert checked >= 150
