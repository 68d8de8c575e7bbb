"""Burch / weakly m-full predicates and the colon-Loewy identities."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from burchkit import rings
from burchkit.classify import (
    ClassificationReport,
    ColonTable,
    classification_report,
    cor214_classify,
    is_burch,
    is_weakly_mfull,
    is_weakly_mfull_wrt,
    l2_identities,
    l3_equivalence,
    loewy_length,
)
from burchkit.fuzz import _SG_POOL, SUITES, _build_ring
from burchkit.rings import QuotientRing, SemigroupRing

INFINITY = float("inf")


def _random_artinian_instance(rng):
    """A random ideal of an Artinian monomial quotient, as a suite instance."""
    n = rng.randint(1, 2)
    defining = [
        [rng.randint(2, 4) if k == v else 0 for k in range(n)] for v in range(n)
    ]
    gens = []
    for _ in range(rng.randint(1, 3)):
        mono = [rng.randint(0, 3) for _ in range(n)]
        if any(mono):
            gens.append(mono)
    return {"family": "monomial", "nvars": n, "defining": defining, "ideal": gens or [defining[0]]}


def _random_semigroup_instance(rng):
    """A random ideal of a numerical semigroup ring, as a suite instance."""
    sgens = rng.choice([(3, 4, 5), (4, 5, 6), (4, 5, 11), (2, 3)])
    ring = SemigroupRing(sgens)
    window = ring.S.conductor + 12
    pool = [v for v in range(1, window) if v in ring.S]
    vals = sorted(rng.sample(pool, rng.randint(1, 3)))
    return {"family": "semigroup", "sgens": list(sgens), "ideal": vals}


def _random_artinian_ideal(rng):
    inst = _random_artinian_instance(rng)
    return _build_ring(inst).ideal(inst["ideal"])


def _random_semigroup_ideal(rng):
    inst = _random_semigroup_instance(rng)
    return _build_ring(inst).ideal(inst["ideal"])


def _suite_verdicts(name, insts):
    """Counter of a suite check's verdicts over the given instances."""
    return Counter(SUITES[name].check(inst) for inst in insts)


def test_square_of_max_ideal_not_weakly_mfull_over_4_5_11():
    ring = SemigroupRing((4, 5, 11))
    m2 = ring.mpow(2)
    assert not is_weakly_mfull(m2)
    # witness: t^11 sits in (m*m^2 : m) but not in m^2
    assert not m2.member(11)
    assert (ring.maximal_ideal() * m2).colon(ring.maximal_ideal()).member(11)


def test_planar_staircase_ideal_is_burch_but_not_weakly_mfull():
    ring = QuotientRing(2)
    i = ring.ideal([(5, 0), (3, 1), (1, 3), (0, 5)])
    assert is_burch(i)
    assert not is_weakly_mfull(i)
    assert is_weakly_mfull_wrt(i, ring.mpow(3))
    assert loewy_length(i) == 5
    assert not ColonTable(i).depth_positive()


def test_weakly_mfull_wrt_colon_ideal_when_i_is_m_times_j():
    # I = m*J is weakly m-full with respect to every K between J and (I:m)
    ring = QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    m = ring.maximal_ideal()
    j = ring.ideal([(0, 1)])
    i = m * j
    k = i.colon(m)
    assert is_weakly_mfull_wrt(i, j)
    assert is_weakly_mfull_wrt(i, k)
    assert i.colon(k) == m
    # the same statement as the lemma213 suite checks it, with K = (I : m)
    inst = {
        "family": "monomial",
        "nvars": 2,
        "defining": [[3, 0], [2, 1], [1, 2], [0, 3]],
        "j": [[0, 1]],
        "kmode": "colon",
    }
    assert SUITES["lemma213"].check(inst) is True


def test_integrally_closed_ideals_are_weakly_mfull():
    ring = QuotientRing(2)
    for gens in ([(2, 0), (1, 1), (0, 2)], [(3, 0), (2, 1), (1, 2), (0, 3)]):
        i = ring.ideal(gens)
        assert i.is_integrally_closed()
        assert is_weakly_mfull(i)
        for s in range(4):
            assert is_weakly_mfull_wrt(i, ring.mpow(s))


def test_burch_via_loewy_is_a_sound_certificate():
    # the Loewy step ll(R/mI) = ll(R/I) + 1 is sufficient for Burch, not
    # equivalent to it; remark37 checks Burch wherever the step holds
    rng = random.Random(21)
    insts = [_random_artinian_instance(rng) for _ in range(60)]
    insts += [_random_semigroup_instance(rng) for _ in range(60)]
    verdicts = _suite_verdicts("remark37", insts)
    assert set(verdicts) <= {True, None}
    assert verdicts[True] >= 10


def test_l2_identities_hold_on_random_instances():
    rng = random.Random(22)
    seen = 0
    for _ in range(40):
        i = _random_artinian_ideal(rng)
        ring = i.ring
        gens = []
        for _ in range(rng.randint(1, 2)):
            mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            if any(mono):
                gens.append(mono)
        j = ring.ideal(gens or [(1,) + (0,) * (ring.nvars - 1)])
        if i.is_unit() or i.is_zero() or j.is_zero() or j.is_unit():
            continue
        rec = l2_identities(i, j)
        assert rec.all_hold
        seen += 1
    assert seen >= 10


def test_l3_equivalence_conditions_agree():
    rng = random.Random(23)
    for _ in range(60):
        i = _random_semigroup_ideal(rng)
        rec = l3_equivalence(i)
        assert rec.cond_i == rec.cond_ii == rec.cond_iii


def test_remark32_socle_colon_link():
    # wmf w.r.t. (I : m) iff I is Burch or depth(R/I) > 0
    rng = random.Random(24)
    insts = [_random_artinian_instance(rng) for _ in range(60)]
    insts += [_random_semigroup_instance(rng) for _ in range(60)]
    verdicts = _suite_verdicts("remark32", insts)
    assert set(verdicts) <= {True, None}
    assert verdicts[True] >= 10


def test_depth_positive_iff_colon_fixed():
    ring = QuotientRing(2)
    i = ring.ideal([(2, 0)])
    # (x^2) : m = (x^2) in the polynomial ring
    assert ColonTable(i).depth_positive()
    art = QuotientRing(2, [(2, 0), (0, 2)])
    assert not ColonTable(art.ideal([(1, 0)])).depth_positive()


def test_weakly_mfull_implies_socle_inside_ideal():
    rng = random.Random(25)
    for _ in range(80):
        i = _random_artinian_ideal(rng)
        if i.is_unit() or i.is_zero() or not is_weakly_mfull(i):
            continue
        soc = i.ring.ideal(list(i.ring.socle()))
        assert soc.subset_of(i)


def test_unit_and_mismatched_inputs_raise():
    ring = QuotientRing(2)
    with pytest.raises(ValueError):
        is_burch(ring.unit_ideal())
    with pytest.raises(ValueError):
        is_weakly_mfull(ring.unit_ideal())
    with pytest.raises(ValueError):
        is_weakly_mfull_wrt(ring.ideal([(1, 0)]), ring.zero_ideal())
    other = QuotientRing(3)
    with pytest.raises(ValueError):
        is_weakly_mfull_wrt(ring.ideal([(1, 0)]), other.ideal([(1, 0, 0)]))


def test_cor214_classification_is_stable():
    ring = SemigroupRing((4, 5, 6))
    m = ring.maximal_ideal()
    got = cor214_classify(m)
    assert got == cor214_classify(ring.ideal([4, 5, 6]))
    assert isinstance(got, frozenset)
    # classes only make sense for m-primary ideals
    assert cor214_classify(ring.mpow(2)) == cor214_classify(ring.mpow(2))


def test_report_computes_each_loewy_length_once(monkeypatch):
    # cor214 reads the report's ll(R/I) instead of computing it again,
    # and cor214_classify still refuses an ideal that is not m-primary
    calls = Counter()
    for cls in (rings.QIdeal, rings.SgIdeal):
        real = cls.loewy_length

        def counting(self, real=real):
            calls[id(self)] += 1
            return real(self)

        monkeypatch.setattr(cls, "loewy_length", counting)
    cube = QuotientRing(2, [(3, 0), (0, 3)])
    sg = SemigroupRing((4, 5, 6))
    for i in (cube.ideal([(2, 0), (1, 1), (0, 2)]), sg.ideal([8, 9]), sg.ideal([17, 19, 20])):
        calls.clear()
        report = classification_report(i)
        assert calls[id(i)] == 1
        assert report.cor214_class == cor214_classify(i)
    with pytest.raises(ValueError, match="m-primary"):
        cor214_classify(QuotientRing(2).ideal([(1, 0)]))
    with pytest.raises(ValueError, match="m-primary"):
        cor214_classify(sg.unit_ideal())


def test_classification_report_shape():
    ring = SemigroupRing((4, 5, 6))
    i = ring.ideal([17, 19, 20])
    rep = classification_report(i, named={"m4": ring.mpow(4)})
    assert rep.is_burch
    assert not rep.is_weakly_mfull
    assert rep.loewy_R_mod_I == 5
    assert rep.wmf_wrt_mpow[4] is True
    assert rep.wmf_wrt_mpow[3] is False
    assert rep.wmf_wrt_named["m4"] is True
    assert rep.is_m_primary
    poly = QuotientRing(2)
    rep2 = classification_report(poly.ideal([(2, 0)]))
    assert rep2.loewy_R_mod_I == INFINITY
    assert not rep2.is_m_primary


def test_report_power_range_reads_the_colon_table():
    # ranges that run past ll(R/I), where (I : m^s) is the unit ideal
    sg = SemigroupRing((4, 5, 6))
    poly = QuotientRing(2)
    for i, powers in (
        (sg.ideal([17, 19, 20]), (3, 9)),
        (poly.ideal([(5, 0), (3, 1), (1, 3), (0, 5)]), (2, 9)),
    ):
        assert powers[1] > i.loewy_length()
        rep = classification_report(i, powers=powers)
        t = ColonTable(i)
        want = {s: t.wmf_mpow(s) for s in range(powers[0], powers[1] + 1)}
        assert rep.wmf_wrt_mpow == want
        # the rest of the report does not depend on the range
        assert rep == replace(classification_report(i), wmf_wrt_mpow=want)


def _seeded_ideals(seed):
    """Nonzero proper ideals, each with an ideal J of the same ring."""
    rng = random.Random(seed)

    def monomials(n, count, top):
        out = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(count)]
        return [g for g in out if any(g)] or [(1,) + (0,) * (n - 1)]

    rings_ = [SemigroupRing(gens) for gens in _SG_POOL]
    for _ in range(6):
        n = rng.randint(1, 3)
        rings_.append(QuotientRing(n, monomials(n, rng.randint(n, n + 2), 4)))
    rings_.append(QuotientRing(2))
    for ring in rings_:
        for _ in range(10):
            if isinstance(ring, SemigroupRing):
                pool = [v for v in range(1, ring.S.conductor + 12) if v in ring.S]
                i = ring.ideal(rng.sample(pool, rng.randint(1, 3)))
                j = ring.ideal(rng.sample(pool, rng.randint(1, 2)))
            else:
                i = ring.ideal(monomials(ring.nvars, rng.randint(1, 3), 4))
                j = ring.ideal(monomials(ring.nvars, rng.randint(1, 2), 3))
            if not (i.is_zero() or i.is_unit() or j.is_zero()):
                yield i, j


def _report_from_predicates(i, named):
    ring = i.ring
    primary = i.is_m_primary()
    ll = loewy_length(i)
    burch = is_burch(i)
    wmf = is_weakly_mfull(i)
    top = ll if ll != INFINITY else 8
    # (I : 0) = R on both sides, so a zero power of m gives True
    pows = {
        s: ring.mpow(s).is_zero() or is_weakly_mfull_wrt(i, ring.mpow(s))
        for s in range(int(top) + 1)
    }
    return ClassificationReport(
        is_m_primary=primary,
        loewy_R_mod_I=ll,
        loewy_R_mod_mI=loewy_length(ring.maximal_ideal() * i),
        is_burch=burch,
        is_weakly_mfull=wmf,
        wmf_wrt_mpow=pows,
        wmf_wrt_named={label: is_weakly_mfull_wrt(i, j) for label, j in named.items()},
        is_integrally_closed=i.is_integrally_closed(),
        depth_R_mod_I_positive=ColonTable(i).depth_positive(),
        cor214_class=cor214_classify(i) if primary else frozenset(),
        open_pd_question=ring.depth_positive() and primary and burch and not wmf,
    )


def test_report_equals_the_public_predicates():
    seen = Counter()
    for i, j in _seeded_ideals(31):
        assert classification_report(i, named={"J": j}) == _report_from_predicates(i, {"J": j}), i
        seen[type(i.ring).__name__, i.is_m_primary()] += 1
    assert set(seen) == {
        ("SemigroupRing", True), ("QuotientRing", True), ("QuotientRing", False)
    }, seen


@pytest.fixture
def ideal_ops(monkeypatch):
    """Counter of (operation, left, right) over both ideal types."""
    ops = Counter()
    for cls in (rings.QIdeal, rings.SgIdeal):
        for name in ("__mul__", "colon"):
            def counted(self, other, _orig=getattr(cls, name), _name=name):
                ops[_name, self, other] += 1
                return _orig(self, other)

            monkeypatch.setattr(cls, name, counted)
    return ops


def test_report_forms_each_product_and_colon_once(ideal_ops):
    # rings and ideals in which the powers of m a report reads, and
    # their products with I, are nonzero and distinct; J is no power
    # of m, nor is mJ
    art = QuotientRing(2, [(6, 0), (0, 6)])
    sg = SemigroupRing((4, 5, 6))
    for i, j in (
        (sg.ideal([17, 19, 20]), sg.ideal([5])),
        (art.ideal([(2, 1), (0, 3)]), art.ideal([(1, 0)])),
        (QuotientRing(2).ideal([(2, 0), (1, 2)]), QuotientRing(2).ideal([(0, 1)])),
    ):
        ideal_ops.clear()
        report = classification_report(i, named={"J": j})
        ops = Counter(ideal_ops)
        assert max(ops.values()) == 1, ops.most_common(3)
        m = i.ring.maximal_ideal()
        assert ops["__mul__", m, i] == 1
        for s in range(max(report.wmf_wrt_mpow) + 1):
            assert ops["colon", i, i.ring.mpow(s)] == 1, s
            assert ops["colon", m * i, i.ring.mpow(s + 1)] == 1, s
