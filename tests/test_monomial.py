"""Monomial ideal arithmetic, colons and integral closure."""

import random
from operator import le

import oracles
from burchkit import monomial
from burchkit.monomial import MonomialIdeal, integral_closure
from burchkit.rings import QuotientRing


def mpow(nvars, s):
    """m^s in the polynomial ring k[x_1..x_n]."""
    return QuotientRing(nvars).mpow(s).rep


def test_minimal_generators_drop_multiples():
    i = MonomialIdeal(2, [(2, 0), (2, 1), (3, 3)])
    assert i.gens == ((2, 0),)
    assert MonomialIdeal(2, []).is_zero()
    assert MonomialIdeal(2, [(0, 0), (1, 0)]).is_unit()


def test_minimalize_compares_only_across_degrees(monkeypatch):
    # two distinct monomials of one degree never divide each other: the
    # 21 quadrics in 6 variables need no divisibility test, and with x0
    # kept below them each is tested against x0 alone, 6 comparisons
    # for the 6 multiples of x0 and 1 for the 15 others
    calls = {"n": 0}

    def counting(a, b):
        calls["n"] += 1
        return a <= b

    monkeypatch.setattr(monomial, "le", counting)
    quads = [
        tuple(int(k == a) + int(k == b) for k in range(6)) for a in range(6) for b in range(a, 6)
    ]
    assert monomial._minimalize(quads) == tuple(sorted(quads, key=lambda t: (sum(t), t)))
    assert calls["n"] == 0
    x0 = (1, 0, 0, 0, 0, 0)
    got = monomial._minimalize(quads + [x0])
    assert got == (x0,) + tuple(sorted((q for q in quads if not q[0]), key=lambda t: (sum(t), t)))
    assert calls["n"] == 6 * 6 + 15


def test_minimalize_matches_pairwise_divisibility():
    rng = random.Random(2606)
    for _ in range(200):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 12))]
        want = sorted(
            {u for u in gens if not any(w != u and all(map(le, w, u)) for w in gens)},
            key=lambda t: (sum(t), t),
        )
        assert monomial._minimalize(gens) == tuple(want)


def test_membership_matches_divisibility():
    rng = random.Random(3)
    for _ in range(60):
        nvars, _, igens, _ = oracles.rand_monomial_instance(rng)
        i = MonomialIdeal(nvars, igens)
        for u in oracles.box_monomials((5,) * nvars):
            assert i.member(u) == oracles.brute_member(igens, u)


def test_ops_match_enumeration():
    rng = random.Random(4)
    for _ in range(60):
        nvars, _, igens, jgens = oracles.rand_monomial_instance(rng)
        i = MonomialIdeal(nvars, igens)
        j = MonomialIdeal(nvars, jgens)
        box = oracles.box_monomials((6,) * nvars)
        prod = i * j
        inter = i.intersect(j)
        quot = i.colon(j)
        pgens = oracles.brute_product_gens(igens, jgens)
        for u in box:
            assert prod.member(u) == oracles.brute_member(pgens, u)
            assert inter.member(u) == (
                oracles.brute_member(igens, u) and oracles.brute_member(jgens, u)
            )
            assert quot.member(u) == oracles.brute_colon_member(igens, jgens, u)


def test_trusted_results_equal_validated_construction():
    # +, *, intersect and colon build their results without re-validating
    # exponents; each must equal the public constructor's result
    rng = random.Random(8)
    for _ in range(80):
        nvars, _, igens, jgens = oracles.rand_monomial_instance(rng)
        i = MonomialIdeal(nvars, igens)
        j = MonomialIdeal(nvars, jgens)
        lcms = [tuple(map(max, f, g)) for f in i.gens for g in j.gens]
        assert i + j == MonomialIdeal(nvars, i.gens + j.gens)
        assert i * j == MonomialIdeal(nvars, oracles.brute_product_gens(i.gens, j.gens))
        assert i.intersect(j) == MonomialIdeal(nvars, lcms)
        want = MonomialIdeal(nvars, [(0,) * nvars])
        for g in j.gens:
            part = MonomialIdeal(nvars, [tuple(max(a - b, 0) for a, b in zip(f, g)) for f in i.gens])
            want = MonomialIdeal(nvars, [tuple(map(max, u, w)) for u in want.gens for w in part.gens])
        assert i.colon(j) == want
    for nvars in (1, 2, 3):
        for s in range(6):
            assert mpow(nvars, s) == MonomialIdeal(nvars, oracles.degree_monomials(nvars, s))


def test_colon_known_values():
    # (x^2, y^3) : (x) = (x, y^3)
    i = MonomialIdeal(2, [(2, 0), (0, 3)])
    assert i.colon(MonomialIdeal(2, [(1, 0)])) == MonomialIdeal(2, [(1, 0), (0, 3)])
    # colon by the unit ideal is the ideal itself
    assert i.colon(MonomialIdeal(2, [(0, 0)])) == i


def test_mpow_and_maximal_ideal():
    assert set(mpow(2, 1).gens) == {(1, 0), (0, 1)}
    assert set(mpow(2, 3).gens) == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert mpow(3, 0).is_unit()


def test_integral_closure_known_values():
    # closure of (x^2, y^2) picks up xy
    i = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert integral_closure(i) == MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    # powers of the maximal ideal are closed
    assert integral_closure(mpow(2, 4)) == mpow(2, 4)
    assert integral_closure(mpow(3, 2)) == mpow(3, 2)
    # (x^4, y^4) closes to m^4
    j = MonomialIdeal(2, [(4, 0), (0, 4)])
    assert integral_closure(j) == mpow(2, 4)
    assert integral_closure(j) != j


def test_integral_closure_properties():
    rng = random.Random(9)
    for _ in range(40):
        nvars, _, igens, _ = oracles.rand_monomial_instance(rng)
        i = MonomialIdeal(nvars, igens)
        c = integral_closure(i)
        assert i.subset_of(c)
        assert integral_closure(c) == c
        # closure preserves the minimal generator degree
        if not i.is_zero():
            lo = min(sum(g) for g in i.gens)
            assert all(sum(g) >= lo for g in c.gens)


def test_colon_matches_reference_colon():
    # 3600 seeded pairs in 1-3 variables: arbitrary (mostly not m-primary)
    # ideals, m-primary ones, the zero dividend, colon by the unit ideal,
    # J inside I (the unit ideal comes out) and I inside J
    rng = random.Random(1301)
    unit_results = 0
    for k in range(3600):
        nvars = 1 + k % 3
        igens = oracles.rand_gens(rng, nvars, rng.randint(0, 5), 6)
        if k % 4 == 1:
            igens += [tuple(rng.randint(1, 6) * (a == b) for a in range(nvars)) for b in range(nvars)]
        jgens = oracles.rand_gens(rng, nvars, rng.randint(1, 4), 6)
        kind = k % 10
        if kind == 7:
            jgens = [(0,) * nvars]
        elif kind == 8 and igens:
            # multiples of generators of I
            jgens = [tuple(a + rng.randint(0, 2) for a in rng.choice(igens)) for _ in range(3)]
        elif kind == 9:
            # generators of J dividing generators of I
            igens = [tuple(a + rng.randint(0, 2) for a in rng.choice(jgens)) for _ in range(3)]
        i = MonomialIdeal(nvars, igens)
        j = MonomialIdeal(nvars, jgens)
        got = i.colon(j)
        assert got.gens == oracles.reference_colon(i.gens, j.gens), (i, j)
        assert got.is_unit() == (not i.is_zero() and j.subset_of(i))
        unit_results += got.is_unit()
    assert unit_results > 300


def test_integral_closure_matches_reference():
    # 150 m-primary fuzz draws and 150 arbitrary ideals in 1-3 variables
    from burchkit.fuzz import gen_mprimary_monomial

    rng = random.Random(1302)
    ideals = [gen_mprimary_monomial(rng, rng.randint(1, 3)) for _ in range(150)]
    for k in range(150):
        nvars = 1 + k % 3
        ideals.append(MonomialIdeal(nvars, oracles.rand_gens(rng, nvars, rng.randint(1, 5), 5)))
    closed = 0
    for i in ideals:
        want = oracles.reference_closure(i.gens, i.nvars)
        assert integral_closure(i).gens == want, i
        assert (integral_closure(i) == i) == (want == i.gens)
        closed += want == i.gens
    assert 30 < closed < 270



def test_memoized_colon_and_product_match_fresh_and_brute_force():
    # the second pass is answered from the caches; both passes must equal
    # an uncached computation and the enumeration oracles
    rng = random.Random(1601)
    cases = [oracles.rand_monomial_instance(rng) for _ in range(300)]
    monomial._colon.cache_clear()
    monomial._product.cache_clear()
    for _ in range(2):
        for nvars, _, igens, jgens in cases:
            i, j = MonomialIdeal(nvars, igens), MonomialIdeal(nvars, jgens)
            quot, prod = i.colon(j), i * j
            assert quot.gens == monomial._colon.__wrapped__(i.gens, j.gens)
            assert quot.gens == oracles.reference_colon(igens, jgens)
            assert prod.gens == monomial._product.__wrapped__(i.gens, j.gens)
            assert prod == MonomialIdeal(nvars, oracles.brute_product_gens(igens, jgens))
    assert monomial._colon.cache_info().hits >= len(cases)
    assert monomial._product.cache_info().hits >= len(cases)
