"""Numerical semigroups and relative ideal sets against brute enumeration."""

import random

import pytest

import oracles
from burchkit import semigroup
from burchkit.semigroup import (
    NumericalSemigroup,
    RelativeIdealSet,
    mpow_set,
    relset_colon,
    restrict_to_semigroup,
)

POOL = [(2, 3), (3, 4, 5), (4, 5, 6), (4, 5, 11), (3, 7), (5, 6, 7, 8), (4, 6, 9), (6, 7, 9, 11)]


def test_known_frobenius_numbers():
    assert NumericalSemigroup((2, 3)).frobenius == 1
    assert NumericalSemigroup((3, 4, 5)).frobenius == 2
    assert NumericalSemigroup((4, 5, 6)).frobenius == 7
    assert NumericalSemigroup((4, 5, 11)).frobenius == 7
    # two-generator closed form: ab - a - b
    assert NumericalSemigroup((3, 7)).frobenius == 3 * 7 - 3 - 7
    assert NumericalSemigroup((5, 8)).frobenius == 5 * 8 - 5 - 8


def test_frobenius_matches_dense_table():
    for gens in POOL:
        s = NumericalSemigroup(gens)
        window = 4 * max(gens) + 8
        table = oracles.sg_table(gens, window)
        gaps = [v for v in range(window + 1) if not table[v]]
        assert s.frobenius == (max(gaps) if gaps else -1)
        assert s.conductor == s.frobenius + 1
        for v in range(window + 1):
            assert (v in s) == table[v]


def test_large_multiplicity_uses_same_arithmetic():
    # multiplicity 101: a wide Apery tuple from the shortest-path search
    s = NumericalSemigroup((101, 103))
    assert s.frobenius == 101 * 103 - 101 - 103
    assert 101 + 103 in s
    assert 102 not in s


def test_minimal_generators():
    assert NumericalSemigroup((4, 5, 6, 11)).minimal_generators() == (4, 5, 6)
    assert NumericalSemigroup((2, 3, 4)).minimal_generators() == (2, 3)
    assert NumericalSemigroup((4, 5, 6)).minimal_generators() == (4, 5, 6)


def test_generator_validation():
    with pytest.raises(ValueError):
        NumericalSemigroup((2, 4))
    with pytest.raises(ValueError):
        NumericalSemigroup(())
    with pytest.raises(ValueError):
        NumericalSemigroup((0, 3))


def test_relset_minimalizes_generators():
    s = NumericalSemigroup((4, 5, 6))
    e = RelativeIdealSet(s, (8, 12, 9))
    # 12 = 8 + 4 is redundant
    assert e.gens == (8, 9)


def test_relset_membership_matches_table():
    rng = random.Random(5)
    for _ in range(50):
        gens, ivals, _ = oracles.rand_semigroup_instance(rng)
        s = NumericalSemigroup(gens)
        e = RelativeIdealSet(s, ivals)
        window = max(ivals) + 2 * s.conductor + max(gens) + 2
        table = oracles.ideal_table(gens, ivals, window)
        for v in range(window + 1):
            assert (v in e) == table[v]


def test_minkowski_sum_matches_table():
    rng = random.Random(6)
    for _ in range(40):
        gens, ivals, jvals = oracles.rand_semigroup_instance(rng)
        s = NumericalSemigroup(gens)
        e = RelativeIdealSet(s, ivals) + RelativeIdealSet(s, jvals)
        sums = [a + b for a in ivals for b in jvals]
        window = max(sums) + 2 * s.conductor + max(gens) + 2
        table = oracles.ideal_table(gens, sums, window)
        for v in range(window + 1):
            assert (v in e) == table[v]


def test_relset_colon_matches_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        gens, ivals, jvals = oracles.rand_semigroup_instance(rng)
        s = NumericalSemigroup(gens)
        e = RelativeIdealSet(s, ivals)
        f = RelativeIdealSet(s, jvals)
        q = relset_colon(e, f)
        # colon generators may be negative; compare on a shifted window
        lo = min(ivals) - max(jvals) - 1
        hi = max(ivals) + 2 * s.conductor + 2
        pad = hi + max(jvals) + 1
        itab = oracles.ideal_table(gens, ivals, pad)
        for z in range(lo, hi + 1):
            want = all(0 <= z + j <= pad and itab[z + j] for j in jvals)
            assert (z in q) == want


def test_restrict_to_semigroup_drops_outside_values():
    s = NumericalSemigroup((4, 5, 6))
    e = RelativeIdealSet(s, (-2, 3))
    r = restrict_to_semigroup(e)
    assert all(g in s for g in r.gens)
    window = 3 * s.conductor + 8
    for v in range(window + 1):
        assert (v in r) == (v in s and v in e)


def test_shift_into_the_semigroup():
    s = NumericalSemigroup((3, 4, 5))
    e = RelativeIdealSet(s, (-5, -1))
    assert all(g in s for g in e.shift(5).gens)
    # one step less leaves a value outside S
    assert not e.shift(4).is_integral()


def test_mpow_set_matches_generator_sums():
    s = NumericalSemigroup((4, 5, 6))
    m = mpow_set(s, 1)
    assert m.gens == (4, 5, 6)
    for power in range(5):
        e = mpow_set(s, power)
        sums = {0}
        for _ in range(power):
            sums = {v + g for v in sums for g in (4, 5, 6)}
        window = 6 * power + 2 * s.conductor + 2
        table = oracles.ideal_table((4, 5, 6), sorted(sums), window)
        for v in range(window + 1):
            assert (v in e) == table[v]


def test_zero_relset():
    s = NumericalSemigroup((3, 4, 5))
    z = RelativeIdealSet(s, ())
    assert z.is_zero()
    assert 0 not in z
    assert (z + RelativeIdealSet(s, (3,))).is_zero()


# (generators, low and high generator values, window, random pairs); the
# last semigroup has multiplicity 67, so its threshold tuples are wide
THRESHOLD_CASES = [
    ((3, 5), (-12, 30), (-80, 200), 60),
    ((4, 5, 6, 7), (-12, 30), (-80, 200), 60),
    ((6, 7, 9, 11), (-12, 30), (-80, 200), 60),
    ((67, 70, 71, 74, 75, 79, 83, 89, 97, 101), (-40, 140), (-320, 1300), 8),
]


@pytest.mark.parametrize("gens, span, window, pairs", THRESHOLD_CASES)
def test_threshold_operations_match_window_model(gens, span, window, pairs):
    s = NumericalSemigroup(gens)
    model = oracles.WindowSets(gens, *window)
    rng = random.Random(sum(gens))

    def agrees(got, members):
        return (
            frozenset(v for v in model.window() if v in got) == members
            and got.gens == model.min_gens(members)
        )

    for _ in range(pairs):
        egens = rng.sample(range(*span), rng.randint(1, 4))
        fgens = rng.sample(range(*span), rng.randint(1, 4))
        e, f = RelativeIdealSet(s, egens), RelativeIdealSet(s, fgens)
        emem, fmem = model.generated(egens), model.generated(fgens)
        assert agrees(e, emem)
        assert agrees(e + f, model.sum(egens, fgens))
        assert agrees(e.union(f), model.union(egens, fgens))
        assert agrees(e.intersect(f), emem & fmem)
        assert agrees(relset_colon(e, f), model.colon(egens, fgens))
        assert agrees(restrict_to_semigroup(e), emem & model.semigroup())
        c = rng.randint(-20, 20)
        assert agrees(e.shift(c), model.shift(egens, c))
        assert e.subset_of(f) == (emem <= fmem)
        assert e.is_integral() == (emem <= model.semigroup())


def test_memoized_colon_and_sum_match_fresh_and_brute_force():
    # the second pass is answered from the caches; both passes must equal
    # an uncached computation and the dense-table oracles
    rng = random.Random(1602)
    cases = [oracles.rand_semigroup_instance(rng) for _ in range(300)]
    rings = {gens: NumericalSemigroup(gens) for gens, _, _ in cases}
    semigroup._colon.cache_clear()
    semigroup._sum.cache_clear()
    for _ in range(2):
        for gens, ivals, jvals in cases:
            s = rings[gens]
            e, f = RelativeIdealSet(s, ivals), RelativeIdealSet(s, jvals)
            quot, total = relset_colon(e, f), e + f
            assert quot.thresholds == semigroup._colon.__wrapped__(e.thresholds, f.thresholds)
            assert total.thresholds == semigroup._sum.__wrapped__(e.thresholds, f.thresholds)
            window = max(ivals + jvals) * 2 + 2 * s.conductor + max(gens) + 2
            want = oracles.brute_colon_values(gens, ivals, jvals, window)
            assert [z for z in range(window + 1) if z in quot] == want
            table = oracles.ideal_table(gens, [a + b for a in ivals for b in jvals], window)
            assert [v for v in range(window + 1) if v in total] == [v for v, ok in enumerate(table) if ok]
    assert semigroup._colon.cache_info().hits >= len(cases)
    assert semigroup._sum.cache_info().hits >= len(cases)
