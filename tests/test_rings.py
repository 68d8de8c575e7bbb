"""Uniform ideal handles over both ring backends."""

import random

import pytest

import oracles
from burchkit.monomial import MonomialIdeal
from burchkit.rings import QIdeal, QuotientRing, SemigroupRing, SgIdeal
from burchkit.semigroup import RelativeIdealSet


def test_monomial_handles_match_enumeration():
    rng = random.Random(101)
    for _ in range(250):
        assert oracles.check_monomial_instance(rng) == []


def test_semigroup_handles_match_enumeration():
    rng = random.Random(202)
    for _ in range(250):
        assert oracles.check_semigroup_instance(rng) == []


def test_loewy_length_matches_enumeration():
    # m-primary fuzz draws over k[x_1..x_n], ideals of seeded Artinian and
    # non-Artinian quotients, and unit ideals
    from burchkit.fuzz import gen_mprimary_monomial

    rng = random.Random(1304)
    seen = set()
    for k in range(300):
        nvars = 1 + k % 3
        if k % 3 == 0:
            ring = QuotientRing(nvars)
            igens = gen_mprimary_monomial(rng, nvars).gens
        else:
            nvars, defining, igens, _ = oracles.rand_monomial_instance(rng)
            ring = QuotientRing(nvars, defining)
            if k % 10 == 4:
                igens = [(0,) * nvars]
        i = ring.ideal(igens)
        cap = sum(max(g[v] for g in i.rep.gens) for v in range(nvars)) + 1
        want = oracles.brute_loewy_monomial(i.rep.gens, nvars, cap)
        got = i.loewy_length()
        assert got == (oracles.INFINITY if want is None else want), (ring, i)
        seen.add("inf" if want is None else min(want, 2))
    assert seen == {"inf", 0, 1, 2}


def test_quotient_ring_basics():
    ring = QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    assert ring.top_degree() == 2
    assert not ring.depth_positive()
    m = ring.maximal_ideal()
    assert m.is_m_primary()
    assert ring.mpow(3).is_zero()
    assert ring.mpow(0).is_unit()
    assert ring.zero_ideal().loewy_length() == 3

    poly = QuotientRing(2)
    assert poly.top_degree() is None
    assert poly.depth_positive()
    assert poly.zero_ideal().loewy_length() == oracles.INFINITY


def test_std_basis_dimensions():
    ring = QuotientRing(2, oracles.degree_monomials(2, 3))
    assert [len(ring.basis(d)) for d in range(4)] == [1, 2, 3, 0]
    assert ring.top_degree() is not None
    poly = QuotientRing(2)
    assert poly.top_degree() is None
    assert len(poly.basis(5)) == 6


def test_socle_values():
    ring = QuotientRing(2, [(3, 0), (0, 3)])
    assert set(ring.socle()) == {(2, 2)}
    stairs = QuotientRing(2, [(3, 0), (1, 2), (0, 3)])
    # both corners of the staircase survive multiplication by nothing
    assert set(stairs.socle()) == {(2, 1), (0, 2)}
    assert not stairs.depth_positive()
    poly = QuotientRing(2)
    assert poly.depth_positive()
    assert set(poly.socle()) == set()


def test_socle_matches_enumeration():
    rng = random.Random(1303)
    for k in range(300):
        nvars = 1 + k % 3
        defining = MonomialIdeal(nvars, oracles.rand_gens(rng, nvars, rng.randint(1, 5), 4))
        if defining.is_unit():
            continue
        ring = QuotientRing(nvars, defining.gens)
        assert list(ring.socle()) == oracles.brute_socle(defining.gens, nvars, 5), defining


def test_semigroup_ring_basics():
    ring = SemigroupRing((4, 5, 6))
    assert ring.S.conductor == 8
    m = ring.maximal_ideal()
    assert set(m.min_gens()) == {4, 5, 6}
    assert set(ring.mpow(2).min_gens()) == {8, 9, 10, 11}
    assert ring.ideal([17, 19, 20]).is_m_primary()
    assert not ring.zero_ideal().is_m_primary()
    assert not ring.unit_ideal().is_m_primary()
    assert SemigroupRing((1,)).S.conductor == 0


def test_subset_and_equality():
    ring = QuotientRing(2)
    i = ring.ideal([(2, 0), (0, 2)])
    j = ring.ideal([(1, 0), (0, 1)])
    assert i.subset_of(j)
    assert not j.subset_of(i)
    assert i != j
    assert i == ring.ideal([(2, 0), (0, 2), (2, 2)])

    sg = SemigroupRing((3, 4, 5))
    a = sg.ideal([6, 7])
    assert a.subset_of(sg.maximal_ideal())
    assert a == sg.ideal([6, 7, 10])


def test_cross_ring_operations_rejected():
    a = QuotientRing(2).ideal([(1, 0)])
    b = QuotientRing(3).ideal([(1, 0, 0)])
    with pytest.raises(ValueError):
        a.colon(b)
    c = SemigroupRing((3, 4, 5)).ideal([3])
    d = SemigroupRing((4, 5, 6)).ideal([4])
    with pytest.raises(ValueError):
        c.intersect(d)


def test_intersect_matches_pairwise_membership():
    rng = random.Random(303)
    for _ in range(60):
        gens, ivals, jvals = oracles.rand_semigroup_instance(rng)
        ring = SemigroupRing(gens)
        i = ring.ideal(ivals)
        j = ring.ideal(jvals)
        inter = i.intersect(j)
        window = max(ivals + jvals) + 2 * ring.S.conductor + 2
        for v in range(window + 1):
            assert inter.member(v) == (i.member(v) and j.member(v))


def test_trusted_results_equal_validated_construction():
    # results built by the trusted constructor, which neither re-adds
    # the defining ideal nor checks a value set, must equal the
    # validating public constructors
    rng = random.Random(404)
    for _ in range(300):
        nvars, defining, igens, jgens = oracles.rand_monomial_instance(rng)
        ring = QuotientRing(nvars, defining)
        i, j = ring.ideal(igens), ring.ideal(jgens)
        for got in (i + j, i * j, i.intersect(j), i.colon(j), ring.mpow(rng.randint(0, 4))):
            want = QIdeal(ring, got.rep.gens)
            assert got == want and got.rep.gens == want.rep.gens
        gens, ivals, jvals = oracles.rand_semigroup_instance(rng)
        ring = SemigroupRing(gens)
        i, j = ring.ideal(ivals), ring.ideal(jvals)
        results = (
            i + j, i * j, i.intersect(j), i.colon(j), j.colon(i),
            ring.mpow(rng.randint(0, 4)), ring.maximal_ideal(),
        )
        for got in results:
            want = SgIdeal(ring, list(got.min_gens()))
            assert got == want and got.rep.thresholds == want.rep.thresholds


def test_quotient_mpow_equals_minimalized_sum():
    # m^s + A compares only the generators of A with the degree-s
    # monomials; the full pairwise minimalization gives the same ideal
    from burchkit.monomial import _ideal

    rng = random.Random(406)
    for k in range(120):
        nvars, defining, _, _ = oracles.rand_monomial_instance(rng)
        ring = QuotientRing(nvars, defining)
        top = ring.top_degree()
        for s in range((top if top is not None else 6) + 2):
            got = ring.mpow(s)
            want = _ideal(nvars, tuple(oracles.degree_monomials(nvars, s)) + ring.defining.gens)
            assert got.rep.gens == want.gens, (nvars, defining, s)
    with pytest.raises(ValueError, match="negative power"):
        QuotientRing(2, [(2, 0)]).mpow(-1)


def test_outside_is_the_basis_filtered_by_membership():
    # the basis of (R/I)_e that Tor over R/I reads, against membership
    rng = random.Random(421)
    for _ in range(60):
        nvars, defining, igens, _ = oracles.rand_monomial_instance(rng)
        ring = QuotientRing(nvars, defining)
        gens, ivals, _ = oracles.rand_semigroup_instance(rng)
        sg = SemigroupRing(gens)
        for r, ideal in (
            (ring, ring.ideal(igens)), (ring, ring.mpow(2)), (ring, ring.zero_ideal()),
            (ring, ring.unit_ideal()), (sg, sg.ideal(ivals)), (sg, sg.zero_ideal()),
            (sg, sg.unit_ideal()),
        ):
            for e in range(-1, 12):
                want = tuple(b for b in r.basis(e) if not ideal.member(b))
                assert tuple(ideal.outside(e)) == want, (ideal, e)
                assert tuple(ideal.outside(e)) == want  # kept per degree


def test_quotient_mpow_past_the_top_degree_lists_no_monomial(monkeypatch):
    # over an Artinian R, m^s lies in A once s passes the top degree, so
    # mpow returns A without listing the degree-s monomials; every power
    # equals the construction through those monomials
    from operator import le

    from burchkit import rings
    from burchkit.monomial import _compositions, _from_gens

    def through_monomials(ring, s):
        low = tuple(a for a in ring.defining.gens if sum(a) < s)
        top = [
            u for u in _compositions(ring.nvars, s)
            if not any(all(map(le, a, u)) for a in low)
        ]
        return _from_gens(ring.nvars, low + tuple(sorted(top)))

    rng = random.Random(419)
    cases = []
    while len(cases) < 40:
        nvars, defining, _, _ = oracles.rand_monomial_instance(rng)
        ring = QuotientRing(nvars, defining)
        top = ring.top_degree()
        if top is not None:
            cases.append((ring, top, [through_monomials(ring, s) for s in range(top + 4)]))
    asked = []
    real = rings._compositions

    def recording(nvars, s):
        asked.append(s)
        return real(nvars, s)

    monkeypatch.setattr(rings, "_compositions", recording)
    for ring, top, want in cases:
        asked.clear()
        for s, rep in enumerate(want):
            assert ring.mpow(s).rep == rep, (ring, s)
        assert asked and max(asked) <= top, (ring, top, asked)
    assert any(ring.nvars == 3 for ring, _, _ in cases)


def test_semigroup_ideal_from_value_set_checks_integrality():
    ring = SemigroupRing((4, 5, 6))
    frac = RelativeIdealSet(ring.S, (-2, 1))
    with pytest.raises(ValueError, match="value -2 is not in the semigroup"):
        SgIdeal(ring, frac.gens)
    for vals, bad in (([3], 3), ([4, 7], 7), ([-1, 8], -1)):
        with pytest.raises(ValueError, match="value %d is not in the semigroup" % bad):
            ring.ideal(vals)
    assert SgIdeal(ring, frac.shift(10).gens) == ring.ideal([8, 11])


def test_semigroup_ideal_from_an_iterator():
    # the values are read twice, to build the set and to name a bad one
    ring = SemigroupRing((4, 5, 6))
    with pytest.raises(ValueError, match="value 3 is not in the semigroup"):
        ring.ideal(v for v in [3, 8])
    assert ring.ideal(v for v in [8, 9, 15]) == ring.ideal([8, 9, 15])
    assert ring.ideal(iter(())) == ring.zero_ideal()


def _product_rings():
    return [
        QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)]),
        QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        # not Artinian: a product is decided by A's membership test
        QuotientRing(2, [(2, 0)]),
        SemigroupRing((6, 7, 9, 11)),
    ]


def test_product_tables_agree_with_mult():
    for ring in _product_rings():
        labels = [a for d in range(7) for a in ring.basis(d)]
        for a in labels:
            assert not ring.times(a)  # cold: nothing read yet
        for _ in ("cold", "warm"):
            for a in labels:
                row = ring.times(a)
                assert all(row[b] == ring.mult(a, b) for b in labels), (ring, a)
                assert len(row) == len(labels)
        # one table per label, kept on the ring
        assert ring.times(labels[1]) is ring.times(labels[1])
    poly = QuotientRing(2, [(2, 0)])
    assert poly.times((1, 0))[(1, 3)] is None
    assert poly.times((0, 1))[(1, 3)] == (1, 4)


def test_matrix_reads_the_product_tables_cold_and_warm():
    from burchkit.homalg import GradedAlgebra, HomogeneousMap

    rng = random.Random(2817)
    for _ in range(5):
        for ring in _product_rings():
            alg = GradedAlgebra(ring, 101)
            # drawn through mult: the tables are still cold
            f = oracles.draw_map(alg, rng)
            # another prime over the same ring reads the tables f filled
            g = HomogeneousMap(GradedAlgebra(ring, 2), f.source, f.target, f.elts)
            degrees = range(min(f.source.shifts), max(f.source.shifts) + 5)
            for pmap in (f, f, g):
                for d in degrees:
                    rows, src, tgt = pmap.matrix(d)
                    want_rows, want_src, want_tgt = oracles.dense_matrix(pmap, d)
                    assert (src, tgt) == (want_src, want_tgt)
                    assert [list(r.items()) for r in rows] == [list(r.items()) for r in want_rows]
