"""Graded resolutions, Betti numbers, Tor, and the exactness audits."""

import hashlib
import random

import pytest

from burchkit import fuzz, homalg, linalg
from burchkit.homalg import (
    GradedAlgebra,
    GradedFreeModule,
    GradedPresentation,
    HomogeneousMap,
    Resolution,
    annihilates,
    audit_resolution,
    cyclic_presentation,
    euler_holds,
    free_presentation,
    is_free,
    kernel_memo,
    kernel_minimal_gens,
    kernel_stop,
    kernel_window,
    module_from_ideal,
    resolve,
    syzygy,
    tor_dim,
)
from burchkit.fuzz import FuzzConfig, gen_module, trial_rng
from burchkit.rings import QuotientRing, SemigroupRing

from oracles import dense_matrix, dense_rref, draw_map, reference_kernel_gens


def _cube_ring():
    return QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)])


def test_algebra_basis_dimensions():
    alg = GradedAlgebra(_cube_ring())
    assert [len(alg.basis(d)) for d in range(4)] == [1, 2, 3, 0]
    assert alg.ring.top_degree() == 2

    sg = GradedAlgebra(SemigroupRing((4, 5, 6)))
    assert [len(sg.basis(d)) for d in range(9)] == [1, 0, 0, 0, 1, 1, 1, 0, 1]


def test_residue_field_betti_numbers_over_cube_ring():
    # k over k[x,y]/(x,y)^3: ranks grow 1, 2, 5, 11, 26
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    pres = cyclic_presentation(alg, ring.maximal_ideal())
    res = resolve(pres, 4)
    assert res.betti() == (1, 2, 5, 11, 26)
    assert res.certified_through(4)
    assert audit_resolution(res)


def _differentials_digest(res):
    # per map: every column as its entries grouped by row, each row sorted
    data = []
    for m in res.maps:
        cols = []
        for elt in m.elts:
            rows = [[] for _ in m.target.shifts]
            for (i, label), coeff in elt.items():
                rows[i].append((label, coeff))
            cols.append([sorted(r) for r in rows])
        data.append((m.source.shifts, m.target.shifts, cols))
    return hashlib.sha256(repr(data).encode()).hexdigest()


def test_residue_field_differentials_are_pinned():
    # the differentials themselves, not only their ranks, stay fixed:
    # digests of k over k[x,y]/(x,y)^3 and over k[[t^6,t^7,t^9,t^11]]
    ring = _cube_ring()
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 6)
    assert res.betti() == (1, 2, 5, 11, 26, 59, 137)
    assert _differentials_digest(res) == (
        "64ddcc8dd0395f3c05e0a07eb460a36ca2de2c3ef9e63cb5c9769cec48eda1ae"
    )
    ring = SemigroupRing((6, 7, 9, 11))
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 4)
    assert res.betti() == (1, 4, 12, 36, 108)
    assert _differentials_digest(res) == (
        "8774b42bb15569cac070e1ee49db6a503613d640ad57c82bbfbee761e9f9c313"
    )
    ring = SemigroupRing((4, 5, 6, 7))
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 6)
    assert res.betti() == (1, 4, 12, 36, 108, 324, 972)
    assert _differentials_digest(res) == (
        "e5d181096e2c2768275674d8d248c579b09c1f8a784d935dc98a532b4c69147b"
    )
    # deeper stages, where most degrees are seeded from t^m N_{d-m}
    ring = SemigroupRing((6, 7, 9, 11))
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 6)
    assert res.betti() == (1, 4, 12, 36, 108, 324, 972)
    assert _differentials_digest(res) == (
        "17ebbf309c48b8cdbcd031fb716821772ce83baef9814d85113e2d1276bc52d4"
    )
    ring = SemigroupRing((8, 9, 11, 13, 15))
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 5)
    assert res.betti() == (1, 5, 20, 80, 320, 1280)
    assert _differentials_digest(res) == (
        "b09e57436b652075a3b978bead7f0dd2f34c54c2a89c0ecaddbc968bd1e3fae5"
    )
    # a prime near 2^31, as in the benchmark's word-size inputs
    ring = SemigroupRing((4, 5, 6, 7))
    res = resolve(cyclic_presentation(GradedAlgebra(ring, 2147483647), ring.maximal_ideal()), 6)
    assert res.betti() == (1, 4, 12, 36, 108, 324, 972)
    assert _differentials_digest(res) == (
        "044e26cc928e9c5804eb82cdd09278965500d6452012bbe6e32cfee52928c341"
    )
    # monomial walks, which span each D_d from the degree below: Artinian
    # and non-Artinian rings, and cyclic modules R/I other than k
    cases = [
        (_cube_ring(), 101, None, 8, "42ff56555ef223ea502da7a7f977fd1daed11c7bb6a39154821c2d97c75a3d87"),
        (
            QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]), 2**31 - 1, None, 8,
            "a3c6097d48778f983897a2918f8362dc9650b9168c43be698369090ed1f6039b",
        ),
        (
            QuotientRing(3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]),
            101, None, 6, "2d8f5f8cb430f954c31b59f29640076184a6ef9a8493dd5ea36d24c02fce42fa",
        ),
        (
            QuotientRing(2, [(2, 0)]), 101, None, 5,
            "e2663c27d1a1c989ca7ec2a9259d5b3b44782f238d86deef09e1549e727c6c31",
        ),
        (
            QuotientRing(3, [(3, 0, 0), (0, 2, 0), (1, 1, 0)]), 101, None, 4,
            "72f909c256e73ff2abb026ec6163d894975820452d6e5eeea3ae89a22a137807",
        ),
        (
            QuotientRing(3, [(3, 0, 0), (0, 3, 0), (0, 0, 2)]), 101, [(2, 0, 0), (1, 1, 0)], 5,
            "dd2cbc4d190cf64b0eb1d056194577c5732e3a27f44a65ffb29e9792742a1289",
        ),
        (
            QuotientRing(2), 101, [(2, 0), (1, 1), (0, 3)], 3,
            "6a4ba585d474ecb2c36714105ed00ac2e11bce7cc704181009a0a3328d277439",
        ),
    ]
    for ring, p, gens, depth, want in cases:
        ideal = ring.maximal_ideal() if gens is None else ring.ideal(gens)
        res = resolve(cyclic_presentation(GradedAlgebra(ring, p), ideal), depth)
        assert _differentials_digest(res) == want, (ring, gens)


def test_algebra_rejects_composite_and_oversized_moduli():
    ring = _cube_ring()
    for bad in (0, 1, 4, 10, 101 * 103):
        with pytest.raises(ValueError, match="not prime"):
            GradedAlgebra(ring, bad)
    with pytest.raises(ValueError, match="too large"):
        GradedAlgebra(ring, 2**89 - 1)
    assert GradedAlgebra(ring, 2**61 - 1).p == 2**61 - 1


def test_koszul_resolution_over_polynomial_ring():
    ring = QuotientRing(2)
    alg = GradedAlgebra(ring)
    pres = cyclic_presentation(alg, ring.maximal_ideal())
    res = resolve(pres, 4)
    # the final stage is the recorded zero map that ends the complex
    assert res.betti() == (1, 2, 1, 0)
    assert res.complete
    assert audit_resolution(res)


def test_semigroup_residue_field_resolution():
    ring = SemigroupRing((3, 4, 5))
    alg = GradedAlgebra(ring)
    pres = cyclic_presentation(alg, ring.maximal_ideal())
    res = resolve(pres, 3)
    betti = res.betti()
    assert betti[0] == 1 and betti[1] == 3
    assert res.certified_through(3)
    assert audit_resolution(res)
    # the maximal ideal of a singular ring is never free
    assert not is_free(pres)


def test_duplicate_relation_columns_are_rejected():
    # two copies of the same relation pass the unit-entry check but the
    # stage-2 syzygy (1, -1) convicts the presentation of redundancy
    ring = SemigroupRing((4, 6, 9))
    alg = GradedAlgebra(ring)
    source = GradedFreeModule((4, 4))
    target = GradedFreeModule((0,))
    elts = [{(0, 4): 1}, {(0, 4): 1}]
    pres = GradedPresentation(HomogeneousMap(alg, source, target, elts))
    with pytest.raises(ValueError, match="not minimal"):
        resolve(pres, 2)
    # tor against any ideal routes through resolve and raises the same way,
    # also Tor_1 against k, which reads F_1 but still builds stage 2
    with pytest.raises(ValueError, match="not minimal"):
        tor_dim(pres, ring.maximal_ideal(), 2)
    with pytest.raises(ValueError, match="not minimal"):
        tor_dim(pres, ring.maximal_ideal(), 1)


def test_entries_vanishing_mod_p_are_dropped():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)  # p = 101
    one = GradedFreeModule((0,))
    zero_map = HomogeneousMap(alg, one, one, [{(0, (0, 0)): 101}])
    assert zero_map.elts == ({},)
    assert zero_map.is_zero() and zero_map.is_minimal
    assert zero_map.matrix(0)[0] == [{}]
    # a degree-0 entry that is 0 mod p is not a unit entry
    source, target = GradedFreeModule((1,)), GradedFreeModule((0, 1))
    mixed = HomogeneousMap(alg, source, target, [{(0, (1, 0)): 102, (1, (0, 0)): -101}])
    plain = HomogeneousMap(alg, source, target, [{(0, (1, 0)): 1}])
    assert mixed.elts == plain.elts
    assert mixed.is_minimal and not mixed.is_zero()
    want = resolve(GradedPresentation(plain), 4).betti()
    assert resolve(GradedPresentation(mixed), 4).betti() == want


def test_unit_entries_are_rejected_immediately():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    source = GradedFreeModule((0,))
    target = GradedFreeModule((0,))
    unit = GradedPresentation(HomogeneousMap(alg, source, target, [{(0, (0, 0)): 1}]))
    with pytest.raises(ValueError, match="not minimal"):
        resolve(unit, 1)
    with pytest.raises(ValueError, match="not minimal"):
        is_free(unit)


def test_is_free():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    assert is_free(free_presentation(alg, (0, 1)))
    assert not is_free(cyclic_presentation(alg, ring.maximal_ideal()))


def test_syzygy_presentations():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    pres = cyclic_presentation(alg, ring.maximal_ideal())
    first = syzygy(pres, 1)
    assert first.generators.rank == 2
    second = syzygy(pres, 2)
    assert second.generators.rank == 5
    # over the polynomial ring the Koszul complex ends: third syzygy is zero
    poly = QuotientRing(2)
    palg = GradedAlgebra(poly)
    kpres = cyclic_presentation(palg, poly.maximal_ideal())
    assert syzygy(kpres, 2).generators.rank == 1
    assert syzygy(kpres, 3).generators.rank == 0


def test_annihilates_semantics():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    m = ring.maximal_ideal()
    pres = cyclic_presentation(alg, ring.mpow(2))
    # J * generators lands in the relations iff J * R <= m^2
    assert annihilates(ring.mpow(2), pres, 0)
    assert not annihilates(m, pres, 0)
    # m^2 is the socle power: it kills every syzygy of m^2
    assert annihilates(ring.mpow(2), pres, 1)
    assert annihilates(ring.mpow(2), pres, 2)


def test_annihilates_at_t0_passes_the_presentation_once_per_degree(monkeypatch):
    # m^2 = (x^2, xy, y^2) on R/m^2 over k[x,y]/(x,y)^3: all three
    # products e*g sit in degree 2, so one pass of the presentation map
    # there and one per widened map
    ring = _cube_ring()
    pres = cyclic_presentation(GradedAlgebra(ring), ring.mpow(2))
    real = homalg._rank_pass
    degrees = []

    def counting(pmap, ideal, lo, hi):
        degrees.append((pmap.source.rank, lo, hi))
        return real(pmap, ideal, lo, hi)

    monkeypatch.setattr(homalg, "_rank_pass", counting)
    assert annihilates(ring.mpow(2), pres, 0)
    rank = pres.map.source.rank
    assert sorted(degrees) == [(rank, 2, 2)] + [(rank + 1, 2, 2)] * 3


def _draw_ideal(ring, rng):
    """The zero ideal, the unit ideal, or one to three labels of degree
    1..12."""
    u = rng.random()
    if u < 0.1:
        return ring.zero_ideal()
    if u < 0.15:
        return ring.unit_ideal()
    labels = [b for d in range(1, 13) for b in ring.basis(d)]
    return ring.ideal(rng.sample(labels, rng.randint(1, 3)))


@pytest.mark.parametrize(
    "ring",
    [
        SemigroupRing((4, 5, 6)),
        SemigroupRing((6, 7, 9, 11)),
        _cube_ring(),
        QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
    ],
    ids=["sg456", "sg6_7_9_11", "cube", "box"],
)
def test_annihilates_at_t0_matches_containment_and_products(ring):
    # J kills R/K iff J <= K, and kills I iff JI = 0
    rng = random.Random(2718)
    alg = GradedAlgebra(ring)
    seen = set()
    for _ in range(12):
        j, k = _draw_ideal(ring, rng), _draw_ideal(ring, rng)
        got = annihilates(j, cyclic_presentation(alg, k), 0)
        assert got == j.subset_of(k), (j, k)
        seen.add(("R/K", got))
        got = annihilates(j, module_from_ideal(alg, k)[0], 0)
        assert got == (j * k).is_zero(), (j, k)
        seen.add(("I", got))
    assert len(seen) == 4


def test_negative_homological_degrees_are_rejected():
    # k over k[[t^4, t^5, t^6]]: no stage -1 or -2 exists to read
    ring = SemigroupRing((4, 5, 6))
    m = ring.maximal_ideal()
    pres = cyclic_presentation(GradedAlgebra(ring), m)
    res = resolve(pres, 3)
    calls = (
        lambda: res.rank(-1),
        lambda: res.module(-1),
        lambda: homalg.tor_dims(pres, m, -1, 1),
        lambda: syzygy(pres, -1),
        lambda: tor_dim(pres, ring.ideal([8, 9]), -2),
        lambda: annihilates(m, pres, -1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="negative homological degree"):
            call()


def test_tor_known_values():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    m = ring.maximal_ideal()
    k_pres = cyclic_presentation(alg, m)
    # Tor_t(k, k) has total dimension = t-th Betti number of k
    for t, want in enumerate((1, 2, 5, 11)):
        got = tor_dim(k_pres, m, t)
        assert got.total_dim == want
        assert got.bound_certified
    # Tor of anything against the unit-free module R: R/0 keeps only t = 0
    zero = ring.zero_ideal()
    assert tor_dim(k_pres, zero, 1).total_dim == 0
    assert tor_dim(k_pres, zero, 0).total_dim == 1


def test_tor_rejects_an_ideal_of_another_ring():
    # over both families, and across them, an ideal of another ring is
    # refused; one of an equal ring built separately is accepted
    cases = (
        (_cube_ring, QuotientRing(2, [(2, 0), (0, 2)]), [(1, 0)]),
        (lambda: SemigroupRing((4, 5, 6)), SemigroupRing((3, 4, 5)), [8]),
        (_cube_ring, SemigroupRing((4, 5, 6)), [8]),
    )
    for build, other, gens in cases:
        ring = build()
        pres = cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal())
        for ideal in (other.ideal(gens), other.maximal_ideal()):
            with pytest.raises(ValueError, match="ambient mismatch"):
                tor_dim(pres, ideal, 1)
            with pytest.raises(ValueError, match="ambient mismatch"):
                homalg.tor_dims(pres, ideal, 0, 2)
        twin = build()
        assert twin is not ring and twin == ring
        for s in (1, 2):  # against k, and against R/m^2 through the ranks
            want = homalg.tor_dims(pres, ring.mpow(s), 0, 2)
            assert homalg.tor_dims(pres, twin.mpow(s), 0, 2) == want
            assert tor_dim(pres, twin.mpow(s), 1) == want[1]


def test_tor_vanishes_for_free_modules():
    ring = SemigroupRing((4, 5, 6))
    alg = GradedAlgebra(ring)
    pres = free_presentation(alg, (0, 4))
    for t in (1, 2, 3):
        r = tor_dim(pres, ring.maximal_ideal(), t)
        assert r.total_dim == 0
        assert r.bound_certified


def test_tor_symmetry_on_small_pairs():
    rng = random.Random(41)
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    monos = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for _ in range(10):
        i = ring.ideal(rng.sample(monos, rng.randint(1, 2)))
        j = ring.ideal(rng.sample(monos, rng.randint(1, 2)))
        pi = cyclic_presentation(alg, i)
        pj = cyclic_presentation(alg, j)
        for t in (1, 2):
            a = tor_dim(pi, j, t)
            b = tor_dim(pj, i, t)
            assert a.total_dim == b.total_dim
            assert a.dims_by_degree == b.dims_by_degree


def test_tor_range_reads_each_map_once(monkeypatch):
    # d_t bounds both Tor_(t-1) and Tor_t; one tor_dims call reads it in
    # one pass, with the same results as separate tor_dim calls
    real = homalg._rank_pass
    cube, sg = _cube_ring(), SemigroupRing((4, 5, 6))
    cases = [
        (cyclic_presentation(GradedAlgebra(cube), cube.maximal_ideal()), cube.ideal([(2, 0), (1, 1)])),
        (cyclic_presentation(GradedAlgebra(sg), sg.ideal([5, 6])), sg.ideal([8, 9])),
    ]
    for pres, ideal in cases:
        single = [tor_dim(pres, ideal, t) for t in range(4)]
        seen = []

        def counting(pmap, ideal, lo, hi):
            seen.append(id(pmap))
            return real(pmap, ideal, lo, hi)

        monkeypatch.setattr(homalg, "_rank_pass", counting)
        assert homalg.tor_dims(pres, ideal, 0, 3) == single
        monkeypatch.setattr(homalg, "_rank_pass", real)
        assert seen and len(seen) == len(set(seen))


def _tor_by_ranks(pres, ideal, t1):
    """Tor_0..Tor_t1 through the ranks of every map over R/I, off one
    resolution to depth t1 + 1."""
    res = resolve(pres, t1 + 1)
    top = ideal.quotient_top_degree()
    read = homalg._pass_reader(res, ideal, top, 0, t1)
    return [homalg._tor_from(res, ideal, top, t, read) for t in range(t1 + 1)]


def test_tor_against_k_reads_the_resolution_off_f_t():
    # against k = R/m no map is ranked and the resolution stops at F_t;
    # every result, window and certified flag included, is the rank one
    rng = random.Random(4113)
    rings = [_cube_ring(), _BOX, SemigroupRing((4, 5, 6))]
    raised = 0
    for ring in rings:
        alg = GradedAlgebra(ring)
        m = ring.maximal_ideal()
        cases = [cyclic_presentation(alg, m)]
        cases += [GradedPresentation(draw_map(alg, rng)) for _ in range(12)]
        for pres in cases:
            try:
                want = _tor_by_ranks(pres, m, 4)
            except ValueError as err:
                # a redundant relation: caught at stage 2 on both paths
                assert "not minimal" in str(err)
                with pytest.raises(ValueError, match="not minimal"):
                    homalg.tor_dims(pres, m, 0, 4)
                raised += 1
                continue
            assert homalg.tor_dims(pres, m, 0, 4) == want
            assert [tor_dim(pres, m, t) for t in range(5)] == want
    assert raised
    # k[x,y] has no certified window: Tor_1(R/(x), k) stays uncertified
    poly = QuotientRing(2)
    pres = cyclic_presentation(GradedAlgebra(poly), poly.ideal([(1, 0)]))
    m = poly.maximal_ideal()
    want = _tor_by_ranks(pres, m, 4)
    assert homalg.tor_dims(pres, m, 0, 4) == want
    assert tor_dim(pres, m, 1) == want[1]
    assert want[1].bound_certified is False and want[1].total_dim == 1


def test_tor_against_k_builds_no_stage_past_t(monkeypatch):
    calls = []
    real = homalg.kernel_minimal_gens

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(homalg, "kernel_minimal_gens", counting)
    ring = _cube_ring()
    m = ring.maximal_ideal()
    pres = cyclic_presentation(GradedAlgebra(ring), m)
    # stages 2..t1 for t1 >= 2; stage 2 alone for t1 = 1, to test minimality
    for t1, stages in ((4, 3), (2, 1), (1, 1), (0, 0)):
        calls.clear()
        homalg.tor_dims(pres, m, 0, t1)
        assert len(calls) == stages, t1
    # against another ideal the ranks of d_(t1+1) need stage t1 + 1
    calls.clear()
    homalg.tor_dims(pres, ring.ideal([(2, 0), (1, 1)]), 0, 4)
    assert len(calls) == 4


def test_tor_against_k_certifies_the_unbuilt_stage_by_its_window(monkeypatch):
    # the stage after F_t is certified exactly when kernel_window(F_t)
    # is; windows made to depend on the module show that flag is read
    real = homalg.kernel_window

    def partial(algebra, module):
        got = real(algebra, module)
        return homalg.DegreeWindow(got.bound, got.certified and max(module.shifts, default=0) < 4)

    monkeypatch.setattr(homalg, "kernel_window", partial)
    ring = _cube_ring()
    m = ring.maximal_ideal()
    pres = cyclic_presentation(GradedAlgebra(ring), m)
    want = _tor_by_ranks(pres, m, 4)
    assert [r.bound_certified for r in want] == [True, True, True, False, False]
    for t1 in range(5):
        assert homalg.tor_dims(pres, m, 0, t1) == want[: t1 + 1]


def test_module_from_ideal():
    ring = SemigroupRing((4, 5, 6))
    alg = GradedAlgebra(ring)
    pres, certified = module_from_ideal(alg, ring.ideal([4, 5]))
    assert certified
    assert pres.generators.rank == 2
    assert not is_free(pres)
    res = resolve(pres, 3)
    assert audit_resolution(res)
    # principal ideals present as free rank-1 modules
    prin, cert2 = module_from_ideal(alg, ring.ideal([8]))
    assert cert2 and is_free(prin) and prin.generators.rank == 1


def test_module_from_the_zero_ideal_is_a_certified_pair():
    for ring in (SemigroupRing((4, 5, 6)), _cube_ring()):
        for zero in (ring.ideal([]), ring.zero_ideal()):
            pres, certified = module_from_ideal(GradedAlgebra(ring), zero)
            assert certified is True
            assert pres.generators.rank == 0 and pres.map.is_zero()


def test_audits_pass_on_random_cyclic_resolutions():
    rng = random.Random(42)
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    monos = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for _ in range(15):
        i = ring.ideal(rng.sample(monos, rng.randint(1, 3)))
        res = resolve(cyclic_presentation(alg, i), 3)
        assert audit_resolution(res)
        assert res.certified_through(3)


def test_resolution_window_uncertified_over_nonartinian_quotient():
    # k[x,y]/(y^2, xy) has infinite-dimensional quotient: heuristic window
    ring = QuotientRing(2, [(0, 2), (1, 1)])
    alg = GradedAlgebra(ring)
    pres = cyclic_presentation(alg, ring.ideal([(0, 1)]))
    r = tor_dim(pres, ring.ideal([(1, 0)]), 2)
    assert r.total_dim > 0
    assert not r.bound_certified


def _assert_matrices_match_dense(pmap, degrees):
    for d in degrees:
        rows, src, tgt = pmap.matrix(d)
        want_rows, want_src, want_tgt = dense_matrix(pmap, d)
        assert (src, tgt) == (want_src, want_tgt)
        # same entries in the same insertion order, so elimination sees
        # identical input
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in want_rows]


def _assert_pass_matches_dense(pmap, ideal, lo, hi):
    """The pass of pmap over R/I against the dense assembly of each
    degree piece over R/I, ranked by the dense elimination."""
    dims, ranks = homalg._rank_pass(pmap, ideal, lo, hi)
    want_dims, want_ranks = {}, {}
    for d in range(lo, hi + 1):
        rows, src, _ = dense_matrix(pmap, d, ideal)
        dense = [[r.get(c, 0) for c in range(len(src))] for r in rows]
        rank = len(dense_rref(dense, len(src), pmap.algebra.p)[0])
        if src:
            want_dims[d] = len(src)
        if rank:
            want_ranks[d] = rank
    assert dims == want_dims
    assert ranks == want_ranks


def test_matrix_matches_dense_assembly_on_residue_field_differentials():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 5)
    quotient = ring.mpow(2)
    for m in res.maps:
        degrees = range(min(m.source.shifts), max(m.source.shifts) + 3)
        _assert_matrices_match_dense(m, degrees)
        _assert_pass_matches_dense(m, quotient, degrees[0], degrees[-1])
    ring = SemigroupRing((6, 7, 9, 11))
    alg = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 4)
    quotient = ring.ideal([12, 13])
    for m in res.maps:
        degrees = range(min(m.source.shifts), max(m.source.shifts) + 14)
        _assert_matrices_match_dense(m, degrees)
        _assert_pass_matches_dense(m, quotient, degrees[0], degrees[-1])


def test_matrix_matches_dense_assembly_on_random_presentations():
    cfg = FuzzConfig(seed=13)
    rings = (
        (QuotientRing(2, [(3, 0), (1, 2), (0, 3)]), [(2, 0), (0, 2)]),
        (SemigroupRing((4, 5, 6)), [8, 9]),
    )
    checked = 0
    for ring, jgens in rings:
        quotient = ring.ideal(jgens)
        for k in range(40):
            pres = gen_module(ring, trial_rng(cfg, k))
            maps = resolve(pres, 2).maps
            for m in maps:
                if not m.source.rank:
                    continue
                degrees = range(min(m.source.shifts), max(m.source.shifts) + 6)
                _assert_matrices_match_dense(m, degrees)
                _assert_pass_matches_dense(m, quotient, degrees[0], degrees[-1])
                checked += 1
    assert checked >= 80


@pytest.mark.parametrize("p", [2, 2147483647])
def test_rank_pass_matches_dense_ranks_over_quotients(p):
    # drawn maps over both families against zero, unit, m-primary and,
    # over k[x,y], the non-Artinian (x); each degree's rank over R/I is
    # the dense elimination's, in and past the degrees a map occupies
    rng = random.Random(9041 + p % 1000)
    poly = QuotientRing(2)
    cube, box = _cube_ring(), _BOX
    sg4, sg6 = SemigroupRing((4, 5, 6)), SemigroupRing((6, 7, 9, 11))
    cases = [
        (poly, [poly.ideal([(1, 0)]), poly.ideal([(2, 0), (1, 1)]), poly.zero_ideal(), poly.unit_ideal()]),
        (cube, [cube.mpow(2), cube.ideal([(1, 0)]), cube.zero_ideal(), cube.unit_ideal()]),
        (box, [box.ideal([(1, 0, 0), (0, 2, 0)]), box.maximal_ideal(), box.zero_ideal()]),
        (sg4, [sg4.ideal([8, 9]), sg4.maximal_ideal(), sg4.zero_ideal(), sg4.unit_ideal()]),
        (sg6, [sg6.ideal([12, 13]), sg6.mpow(2), sg6.zero_ideal()]),
    ]
    for ring, ideals in cases:
        alg = GradedAlgebra(ring, p)
        for _ in range(6):
            pmap = draw_map(alg, rng)
            lo = min(pmap.target.shifts) - 1
            hi = max(pmap.source.shifts) + 6
            for ideal in ideals:
                _assert_pass_matches_dense(pmap, ideal, lo, hi)
                # a window that starts inside the map's degrees
                _assert_pass_matches_dense(pmap, ideal, max(pmap.source.shifts), hi)


def test_map_constructor_rejects_malformed_columns():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    target = GradedFreeModule((0, 1))
    source = GradedFreeModule((2,))
    # x*y sits in degree 2 = 2 - 0, y in degree 1 = 2 - 1
    ok = HomogeneousMap(alg, source, target, [{(0, (1, 1)): 1, (1, (0, 1)): 3}])
    assert ok.elts == ({(0, (1, 1)): 1, (1, (0, 1)): 3},)
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        HomogeneousMap(alg, source, target, [{(0, (1, 0)): 1}])
    with pytest.raises(ValueError, match="not homogeneous of degree -1"):
        HomogeneousMap(alg, GradedFreeModule((0,)), target, [{(1, (1, 0)): 1}])
    for row in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            HomogeneousMap(alg, source, target, [{(row, (1, 0)): 1}])
    with pytest.raises(ValueError, match="column count"):
        HomogeneousMap(alg, source, target, [])
    with pytest.raises(ValueError, match="column count"):
        HomogeneousMap(alg, source, target, [{}, {}])


def test_map_constructor_rejects_labels_outside_r():
    # a label that names no nonzero monomial of R is refused, with the
    # entry named, before it can give a wrong answer
    sg = SemigroupRing((4, 5, 6))
    alg = GradedAlgebra(sg)
    source, target = GradedFreeModule((7,)), GradedFreeModule((0,))
    with pytest.raises(ValueError, match=r"entry \(0, 0\) = 7 is not a nonzero monomial of R"):
        HomogeneousMap(alg, source, target, [{(0, 7): 1}])
    for bad in (-1, 7.0, (7,)):
        with pytest.raises(ValueError, match="not a nonzero monomial"):
            HomogeneousMap(alg, source, target, [{(0, bad): 1}])
    assert HomogeneousMap(alg, GradedFreeModule((8,)), target, [{(0, 8): 1}]).elts == ({(0, 8): 1},)
    ring = QuotientRing(2, [(2, 0), (0, 2)])
    alg = GradedAlgebra(ring)
    source, target = GradedFreeModule((2,)), GradedFreeModule((0,))
    # x^2 is zero in R, and a 3-variable label is no monomial of R
    for bad in ((2, 0), (1, 1, 0), (1,), (3, -1)):
        with pytest.raises(ValueError, match=r"entry \(0, 0\) = .* is not a nonzero monomial of R"):
            HomogeneousMap(alg, source, target, [{(0, bad): 1}])
    # a coefficient that vanishes mod p leaves no entry to check
    assert HomogeneousMap(alg, source, target, [{(0, (1, 1)): 101}]).is_zero()


def test_dense_cols_view_round_trips_to_elts():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    for m in resolve(cyclic_presentation(alg, ring.maximal_ideal()), 4).maps:
        cols = m.cols
        assert len(cols) == m.source.rank
        assert all(len(col) == m.target.rank for col in cols)
        elts = [
            {(i, label): c for i, entry in enumerate(col) for label, c in entry.items()}
            for col in cols
        ]
        assert tuple(elts) == m.elts
        again = HomogeneousMap(alg, m.source, m.target, elts)
        assert again.cols == cols
        # the view is rebuilt on access: editing it leaves the map alone
        if cols and cols[0]:
            cols[0][0][(9, 9)] = 1
            assert m.cols[0][0] != cols[0][0]


def _assert_same_kernel(f, early_stop=False):
    got, got_cert = kernel_minimal_gens(f)
    want, want_cert = reference_kernel_gens(f, early_stop)
    assert got.source.shifts == want.source.shifts
    assert got.elts == want.elts
    assert got_cert == want_cert


@pytest.mark.parametrize(
    "gens", [(3, 7), (4, 5, 6, 7), (5, 7, 9), (6, 7, 9, 11), (7, 9, 10, 12)]
)
def test_early_stop_matches_full_window_walk_on_residue_fields(gens):
    ring = SemigroupRing(gens)
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 5)
    for f in res.maps[:-1]:
        _assert_same_kernel(f)


def test_early_stop_matches_full_window_walk_on_random_presentations():
    cfg = FuzzConfig(seed=29)
    pool = [(2, 3), (3, 5, 7), (4, 5, 6), (4, 6, 9), (6, 7, 9, 11)]
    maps = deficient = 0
    for k in range(60):
        ring = SemigroupRing(pool[k % len(pool)])
        pres = gen_module(ring, trial_rng(cfg, k))
        for f in resolve(pres, 4).maps:
            if not f.source.rank:
                continue
            _, rank_n, _ = kernel_stop(f)
            # rank C = rank F - rank N falls short of both dimensions of C
            if f.source.rank - rank_n < min(f.source.rank, f.target.rank):
                deficient += 1
            _assert_same_kernel(f)
            maps += 1
    assert maps >= 60 and deficient >= 20


def test_early_stop_handles_rank_deficient_and_injective_maps():
    ring = SemigroupRing((4, 5, 6))
    alg = GradedAlgebra(ring)
    two = GradedFreeModule((0, 0))
    # C = [[1, 1], [1, 1]] has rank 1, so ker f has rank 1
    f = HomogeneousMap(
        alg, GradedFreeModule((4, 5)), two, [{(0, 4): 1, (1, 4): 1}, {(0, 5): 1, (1, 5): 1}]
    )
    assert kernel_stop(f)[:2] == (4, 1)
    _assert_same_kernel(f)
    # C = [[1, 0], [0, 1]]: f is injective, and the walk stops before it starts
    g = HomogeneousMap(alg, GradedFreeModule((4, 5)), two, [{(0, 4): 1}, {(1, 5): 1}])
    assert kernel_stop(g)[:2] == (4, 0)
    _assert_same_kernel(g)
    assert kernel_minimal_gens(g)[0].source.rank == 0
    # monomial quotients walk their whole window
    cube = _cube_ring()
    assert kernel_stop(cyclic_presentation(GradedAlgebra(cube), cube.maximal_ideal()).map) is None


@pytest.mark.parametrize("p", (2, 101, 2**31 - 1))
@pytest.mark.parametrize(
    "ring",
    [SemigroupRing(g) for g in fuzz._SG_POOL]
    + [_cube_ring(), QuotientRing(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])]
    + [QuotientRing(2, [(2, 0)]), QuotientRing(2)],
    ids=repr,
)
def test_kernel_walk_matches_full_product_walk_on_residue_fields(ring, p):
    # over GF(2) entries cancel most often, which the skipped reductions
    # of columns already free m degrees down must survive
    res = resolve(cyclic_presentation(GradedAlgebra(ring, p), ring.maximal_ideal()), 5)
    for f in res.maps[:-1]:
        _assert_same_kernel(f, early_stop=True)


def test_kernel_walk_matches_full_product_walk_on_drawn_maps():
    rng = random.Random(4111)
    rings = [SemigroupRing(g) for g in fuzz._SG_POOL] + [
        _cube_ring(),
        QuotientRing(2, [(4, 0), (1, 2), (0, 3)]),
        QuotientRing(2, [(2, 2)]),
        QuotientRing(2, [(2, 0)]),
        QuotientRing(2),
    ]
    deficient = injective = 0
    for k in range(72):
        alg = GradedAlgebra(rings[k % len(rings)], rng.choice((2, 101)))
        f = draw_map(alg, rng)
        stop = kernel_stop(f)
        if stop is not None:
            rank_n = stop[1]
            deficient += f.source.rank - rank_n < min(f.source.rank, f.target.rank)
            injective += rank_n == 0
        _assert_same_kernel(f, early_stop=True)
        # and the next stage, a kernel of a kernel
        syz = kernel_minimal_gens(f)[0]
        if syz.source.rank:
            _assert_same_kernel(syz, early_stop=True)
    assert deficient >= 10 and injective >= 10


def test_kernel_walk_matches_full_product_walk_over_multiplicity_8():
    # over <8,9,11,13,15> each of the 8 residue classes carries its own
    # span; where N_(d-8) = 0 but N_d != 0 the class starts afresh with
    # an empty span, which the drawn maps must reach
    ring = SemigroupRing((8, 9, 11, 13, 15))
    rng = random.Random(2608)
    restarts = grown = 0
    for k in range(40):
        alg = GradedAlgebra(ring, rng.choice((2, 101, 2**31 - 1)))
        g = draw_map(alg, rng, top=20)
        # the map, its kernel and the kernel of that
        for _ in range(3):
            if not g.source.rank:
                break
            _assert_same_kernel(g, early_stop=True)
            dims = {}
            for d in range(min(g.source.shifts), kernel_window(alg, g.source).bound + 1):
                rows, src, _ = g.matrix(d)
                if src:
                    dims[d] = len(linalg.nullspace([r for r in rows if r], len(src), alg.p))
            restarts += any(dims.get(d - 8) == 0 and n for d, n in dims.items())
            # a carried span that the degree enlarges
            grown += any(0 < dims.get(d - 8, 0) < n for d, n in dims.items())
            g = kernel_minimal_gens(g)[0]
    assert restarts >= 20 and grown >= 10


def test_relations_minimal_matches_the_kernel_walk():
    # gen_module's minimality test reads null vectors at the unit columns
    # instead of walking the kernel; a column r * g appended to a drawn
    # map, r of positive degree and g a column, is always redundant
    rng = random.Random(4113)
    rings = [SemigroupRing(g) for g in fuzz._SG_POOL] + [
        _cube_ring(),
        QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        QuotientRing(2, [(4, 0), (1, 2), (0, 3)]),
        QuotientRing(2, [(2, 2)]),
        QuotientRing(2),
    ]
    seen = {True: 0, False: 0}
    for k in range(120):
        alg = GradedAlgebra(rings[k % len(rings)], rng.choice((2, 101)))
        f = draw_map(alg, rng)
        got = fuzz._relations_minimal(f)
        assert got == kernel_minimal_gens(f)[0].is_minimal
        seen[got] += 1
        j = rng.randrange(f.source.rank)
        e = min(d for d in range(1, 9) if alg.basis(d))
        r = rng.choice(alg.basis(e))
        col = {(i, prod): c for (i, b), c in f.elts[j].items() if (prod := alg.ring.mult(b, r)) is not None}
        g = HomogeneousMap(
            alg,
            GradedFreeModule(f.source.shifts + (f.source.shifts[j] + e,)),
            f.target,
            f.elts + (col,),
        )
        assert fuzz._relations_minimal(g) is False
        assert kernel_minimal_gens(g)[0].is_minimal is False
    assert seen[True] >= 40 and seen[False] >= 40


def test_kernel_walk_matches_full_product_walk_on_two_entry_columns():
    # gen_module's columns with an entry in each of two rows, and the
    # resolutions of their cokernels, over monomial quotients
    cfg = FuzzConfig(seed=31)
    pool = [
        _cube_ring(),
        QuotientRing(2),
        QuotientRing(2, [(2, 0)]),
        QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
    ]
    two = 0
    for k in range(80):
        ring = pool[k % len(pool)]
        pres = gen_module(ring, trial_rng(cfg, k))
        if not any(len({i for i, _ in e}) == 2 for e in pres.map.elts):
            continue
        two += 1
        for f in resolve(pres, 3).maps:
            if f.source.rank:
                _assert_same_kernel(f)
    assert two >= 10


def test_monomial_walk_forms_no_generator_products(monkeypatch):
    # k over k[x,y,z]/(x^2,y^3,z^4) to depth 8: D_d is spanned as the
    # variables times N_(d-1), one column map per variable and degree,
    # where every product of a generator and a basis element took 3432
    # scale_module_elt calls
    calls = {"n": 0}
    real = homalg.scale_module_elt

    def counting(*args):
        calls["n"] += 1
        return real(*args)

    monkeypatch.setattr(homalg, "scale_module_elt", counting)
    ring = QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)])
    res = resolve(cyclic_presentation(GradedAlgebra(ring, 2**31 - 1), ring.maximal_ideal()), 8)
    assert res.betti() == (1, 3, 6, 10, 15, 21, 28, 36, 45)
    assert calls["n"] == 0


def test_coefficient_pieces_give_the_nullspace_of_each_degree():
    # over k[S] the walk reads N_d off the RREF of the coefficient
    # matrix, through E_d on C's free columns; each lifted vector must
    # equal the nullspace of the assembled f_d exactly
    rng = random.Random(4112)
    rings = [SemigroupRing(g) for g in fuzz._SG_POOL]
    deficient = 0
    for k in range(60):
        alg = GradedAlgebra(rings[k % len(rings)], rng.choice((2, 101, 2147483647)))
        f = draw_map(alg, rng)
        _, rank_n, red = kernel_stop(f)
        deficient += f.source.rank - rank_n < min(f.source.rank, f.target.rank)
        pieces = homalg._CoefficientPieces(f, red)
        for d in range(min(f.source.shifts), kernel_window(alg, f.source).bound + 1):
            bits, null = pieces.kernel(d)
            rows, src, _ = f.matrix(d)
            # J_d as bits: one column j per basis element (j, t^(d - s_j))
            assert bits == sum(1 << j for j, _ in src)
            assert all(b == d - f.source.shifts[j] for j, b in src)
            if src:
                want = linalg.nullspace([r for r in rows if r], len(src), alg.p)
                # each vector is keyed by the column j of each of its entries
                assert [pieces.lift(w) for w in null.values()] == [
                    {src[c][0]: x for c, x in v.items()} for v in want
                ]
                assert list(null) == [src[max(v)][0] for v in want]
            else:
                assert null == {}
    assert deficient >= 10


def test_semigroup_walk_lifts_only_the_vectors_it_reduces(monkeypatch):
    # k over k[[t^6,t^7,t^9,t^11]] to depth 6: building every null vector
    # of each J_d took 3640 vectors; the walk lifts one only when it is
    # about to reduce it, and draws none once D_d fills N_d, so it lifts
    # exactly its 2071 reductions
    calls = {"n": 0}
    real = homalg._CoefficientPieces.lift

    def counting(self, w):
        calls["n"] += 1
        return real(self, w)

    monkeypatch.setattr(homalg._CoefficientPieces, "lift", counting)
    ring = SemigroupRing((6, 7, 9, 11))
    resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 6)
    assert calls["n"] == 2071


def test_kernel_maps_pass_the_map_constructor_unchanged():
    # the walk builds its kernel map without re-validating it; the
    # checking constructor must accept each one and keep its columns
    rng = random.Random(4114)
    rings = [SemigroupRing(g) for g in fuzz._SG_POOL] + [
        _cube_ring(),
        QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        QuotientRing(2, [(4, 0), (1, 2), (0, 3)]),
        QuotientRing(2),
    ]
    seen = {False: 0, True: 0}
    for k in range(64):
        ring = rings[k % len(rings)]
        alg = GradedAlgebra(ring, rng.choice((2, 101, 2**31 - 1)))
        f = draw_map(alg, rng)
        for _ in range(2):
            g = kernel_minimal_gens(f)[0]
            again = HomogeneousMap(alg, g.source, g.target, g.elts)
            assert again.elts == g.elts
            seen[kernel_stop(f) is not None] += g.source.rank > 0
            if not g.source.rank:
                break
            f = g
    assert seen[False] >= 20 and seen[True] >= 20


def test_semigroup_walk_forms_only_apery_products(monkeypatch):
    # k over k[[t^6,t^7,t^9,t^11]] to depth 6: the full-product walk
    # forms 9602 products of a generator with a basis element; seeded
    # degrees form only Apery products t^e g, none once D_d fills N_d,
    # and none with every column j of g in J_(d-m), as such a product is
    # t^m times an element of N_(d-m) and lies in the seed (2961 products
    # without that rule, 726 of which enlarge the span)
    calls = {"n": 0}
    real = linalg.EchelonSpan.add

    def counting(self, vec):
        calls["n"] += 1
        return real(self, vec)

    # over k[S] the walk adds to a span only the products it forms
    monkeypatch.setattr(linalg.EchelonSpan, "add", counting)
    ring = SemigroupRing((6, 7, 9, 11))
    resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 6)
    assert calls["n"] == 1202
    # over <4,5,6,7> the seed is all of D_d: none of the 2544 products
    # formed without the rule enlarged the span
    calls["n"] = 0
    ring = SemigroupRing((4, 5, 6, 7))
    resolve(cyclic_presentation(GradedAlgebra(ring, 2**31 - 1), ring.maximal_ideal()), 6)
    assert calls["n"] == 0


@pytest.mark.parametrize(
    "gens, p, depth, want",
    [((4, 5, 6, 7), 2**31 - 1, 6, 1452), ((6, 7, 9, 11), 101, 6, 2071)],
)
def test_semigroup_walk_reduces_only_newly_free_columns(monkeypatch, gens, p, depth, want):
    # a column free in degree d - m stays free in degree d, and its null
    # vector lies in t^m N_(d-m) plus the vectors of columns that became
    # free; only the latter are reduced (3093 and 3866 reductions when
    # every null vector was).  Over <4,5,6,7> each one is a generator.
    calls = {"n": 0}
    real = linalg.EchelonSpan.reduce

    def counting(self, vec):
        calls["n"] += 1
        return real(self, vec)

    monkeypatch.setattr(linalg.EchelonSpan, "reduce", counting)
    ring = SemigroupRing(gens)
    res = resolve(cyclic_presentation(GradedAlgebra(ring, p), ring.maximal_ideal()), depth)
    assert calls["n"] == want
    if gens == (4, 5, 6, 7):
        assert want == sum(res.betti()[2:])


def _record_pass_tops(monkeypatch):
    """Largest hi each map is passed to `_rank_pass` with, by map identity."""
    top = {}
    real = homalg._rank_pass

    def recording(pmap, ideal, lo, hi):
        top[id(pmap)] = max(top.get(id(pmap), hi), hi)
        return real(pmap, ideal, lo, hi)

    monkeypatch.setattr(homalg, "_rank_pass", recording)
    return top


def _record_walked_degrees(monkeypatch):
    """Largest degree the semigroup walk reads a kernel in, by map identity."""
    top = {}
    kernel = homalg._CoefficientPieces.kernel

    def recording(self, d):
        top[id(self.f)] = max(top.get(id(self.f), d), d)
        return kernel(self, d)

    monkeypatch.setattr(homalg._CoefficientPieces, "kernel", recording)
    return top


def test_early_stop_is_active(monkeypatch):
    # k over k[[t^6,t^7,t^9,t^11]]: stages 2-6 stop about a conductor
    # below their windows; windows and certification are unchanged
    ring = SemigroupRing((6, 7, 9, 11))
    alg = GradedAlgebra(ring)
    top = _record_walked_degrees(monkeypatch)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 6)
    walked = res.maps[:-1]
    assert tuple(top[id(f)] for f in walked) == (27, 39, 50, 62, 73)
    windows = tuple(kernel_window(alg, f.source) for f in walked)
    assert tuple(w.bound for w in windows) == (34, 46, 57, 69, 80)
    assert all(w.certified for w in windows)
    assert res.certified_through(6)


def test_audit_walks_the_full_window(monkeypatch):
    ring = SemigroupRing((6, 7, 9, 11))
    alg = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 4)
    top = _record_pass_tops(monkeypatch)
    assert audit_resolution(res)
    for f in res.maps[:-1]:
        assert top[id(f)] == kernel_window(alg, f.source).bound


def _with_last_map(res, columns, shifts):
    last = res.maps[-1]
    moved = HomogeneousMap(res.algebra, GradedFreeModule(shifts), last.target, columns)
    return Resolution(res.presentation, res.maps[:-1] + [moved], res.stage_certified, False)


@pytest.mark.parametrize(
    "ring, by",
    [
        (SemigroupRing((3, 4, 5)), 3),
        # the least-shift column of d_4 is y e_0 + x e_1, and x keeps both
        (QuotientRing(2, [(4, 0), (0, 4)]), (1, 0)),
    ],
    ids=["sg345", "x4y4"],
)
def test_audit_rejects_moved_shift_dropped_and_repeated_columns(ring, by):
    alg = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 4)
    assert audit_resolution(res) and euler_holds(res)
    last = res.maps[-1]
    shifts, elts = list(last.source.shifts), list(last.elts)
    j = shifts.index(min(shifts))
    # the generator at the least shift times by (t^3, or x): still a
    # minimal complex, but F_4 is one dimension short in that degree
    prods = alg.times(by)
    moved = {(i, prods[label]): c for (i, label), c in elts[j].items()}
    e = alg.deg(by)
    bad = _with_last_map(
        res, elts[:j] + [moved] + elts[j + 1:], shifts[:j] + [shifts[j] + e] + shifts[j + 1:]
    )
    assert not euler_holds(bad) and not audit_resolution(bad)
    # a column dropped at the least shift
    bad = _with_last_map(res, elts[:j] + elts[j + 1:], shifts[:j] + shifts[j + 1:])
    assert not euler_holds(bad) and not audit_resolution(bad)
    # a column repeated: the image, and so every exactness check, is
    # unchanged, and only the Euler identity sees the kernel of d_4
    bad = _with_last_map(res, elts + [elts[j]], shifts + [shifts[j]])
    assert not euler_holds(bad) and not audit_resolution(bad)


def test_euler_identity_on_complete_and_capped_resolutions():
    poly = QuotientRing(2)
    res = resolve(cyclic_presentation(GradedAlgebra(poly), poly.maximal_ideal()), 4)
    assert res.complete and euler_holds(res)
    ring = _cube_ring()
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 4)
    assert euler_holds(res)


def _counting_member(monkeypatch):
    from burchkit.monomial import MonomialIdeal

    calls = []
    member = MonomialIdeal.member

    def counting(self, v):
        calls.append(v)
        return member(self, v)

    monkeypatch.setattr(MonomialIdeal, "member", counting)
    return calls


def test_mult_agrees_with_membership_on_artinian_quotients():
    rng = random.Random(7)
    nvars = rng.randint(2, 3)
    powers = [tuple(rng.randint(2, 4) if k == v else 0 for k in range(nvars)) for v in range(nvars)]
    mixed = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(2)]
    rings = (
        _cube_ring(),
        QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        QuotientRing(nvars, powers + [m for m in mixed if any(m)]),
    )
    for ring in rings:
        alg = GradedAlgebra(ring)
        std = [b for d in range(ring.top_degree() + 1) for b in alg.basis(d)]
        got = {(a, b): ring.mult(a, b) for a in std for b in std}
        for (a, b), prod in got.items():
            want = tuple(x + y for x, y in zip(a, b))
            assert prod == (None if ring.defining.member(want) else want)


def test_mult_on_a_non_artinian_quotient_tests_membership(monkeypatch):
    ring = QuotientRing(2, [(0, 2), (1, 1)])
    calls = _counting_member(monkeypatch)
    assert ring.mult((3, 0), (2, 0)) == (5, 0)
    assert ring.mult((1, 0), (0, 1)) is None
    assert calls == [(5, 0), (1, 1)]


# Window and top-degree regimes, one ring each: k[S], Artinian quotients,
# a non-Artinian quotient and the polynomial ring.  Literals were computed
# before the ring families answered these themselves.
_SG = SemigroupRing((3, 4, 5))
_BOX = QuotientRing(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)])
_LINE = QuotientRing(2, [(0, 2), (1, 1)])  # k[x,y]/(y^2, xy): not Artinian
_POLY = QuotientRing(2)


def test_kernel_window_and_top_degree_per_regime():
    module = GradedFreeModule((1, 4))
    cases = (
        (_SG, (11, True), None),  # 4 + 2*conductor + 1, conductor 3
        (_cube_ring(), (6, True), 2),  # 4 + top degree
        (_BOX, (10, True), 6),
        (_LINE, (14, False), None),  # 4 + max defining degree + 8
        (_POLY, (12, False), None),
    )
    for ring, window, top in cases:
        alg = GradedAlgebra(ring)
        got = kernel_window(alg, module)
        assert (got.bound, got.certified) == window, ring
        empty = kernel_window(alg, GradedFreeModule(()))
        assert (empty.bound, empty.certified) == (-1, True)
        assert ring.zero_ideal().quotient_top_degree() == top, ring


def test_quotient_top_degree_per_regime():
    cases = (
        (_SG, (), -1, None),  # unit ideal, zero ideal
        (_cube_ring(), (), -1, 2),
        (_LINE, (), -1, None),
        (_POLY, (), -1, None),
        (_SG, [4, 5], 6, None),
        (_SG, [6], 8, None),
        (_SG, [3], 5, None),
        (_POLY, [(2, 0), (1, 3), (0, 2)], 2, None),  # m-primary
        (_POLY, [(2, 0)], None, None),  # not m-primary
        (_LINE, [(3, 0)], 2, None),
        (_LINE, [(0, 1)], None, None),
        (_cube_ring(), [(1, 0)], 2, None),
    )
    for ring, gens, top, zero_top in cases:
        if gens == ():
            assert ring.unit_ideal().quotient_top_degree() == top
            assert ring.zero_ideal().quotient_top_degree() == zero_top
        else:
            assert ring.ideal(gens).quotient_top_degree() == top, (ring, gens)
    assert _SG.mpow(2).quotient_top_degree() == 5
    assert _BOX.mpow(2).quotient_top_degree() == 1


def test_tor_window_and_certification_per_regime():
    cases = (
        (_SG, [4, 5], 1, (3, 11), True, {4: 1, 5: 1}),
        (_SG, [], 1, (3, 13), False, {}),  # R/0 unbounded: max shift + 8
        (_cube_ring(), [(1, 0), (0, 2)], 1, (1, 2), True, {1: 1, 2: 1}),
        (_cube_ring(), [(0, 0)], 1, (1, 0), True, {}),
        (_LINE, [(3, 0)], 1, (1, 3), False, {3: 1}),
        (_LINE, [(2, 0)], 1, (1, 2), False, {2: 1}),
        (_POLY, [(2, 0), (0, 2)], 1, (1, 3), False, {2: 2}),
        (_POLY, [(2, 0)], 1, (1, 9), False, {2: 1}),
        (_POLY, [(1, 0), (0, 1)], 3, (0, -1), False, {}),  # past the end
        (_SG, [0], 1, (3, 4), True, {}),  # R/R = 0: top degree -1
        (_cube_ring(), [], 2, (2, 5), True, {}),  # R/0 = R, Artinian
    )
    for ring, gens, t, window, certified, dims in cases:
        alg = GradedAlgebra(ring)
        got = tor_dim(cyclic_presentation(alg, ring.maximal_ideal()), ring.ideal(gens), t)
        assert (got.window, got.bound_certified, got.dims_by_degree) == (window, certified, dims), (
            ring, gens, t,
        )


def _count_eliminations(monkeypatch):
    """Count nullspace and rref calls, the elimination a computed kernel does."""
    count = {"n": 0}
    for name in ("nullspace", "rref"):
        real = getattr(linalg, name)

        def counting(*args, _real=real):
            count["n"] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    return count


def _same_map(g, w):
    assert (g.source.shifts, g.target.shifts, g.elts) == (
        w.source.shifts, w.target.shifts, w.elts
    )


def test_memoized_kernels_equal_fresh_ones():
    cfg = FuzzConfig(seed=31)
    rings = [
        _cube_ring(),
        QuotientRing(2, [(3, 0), (1, 2), (0, 3)]),
        QuotientRing(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]),
        SemigroupRing((4, 5, 6)),
        SemigroupRing((3, 5, 7)),
        SemigroupRing((6, 7, 9, 11)),
    ]
    maps = []
    for k in range(66):
        ring = rings[k % len(rings)]
        maps.append(gen_module(ring, trial_rng(cfg, k)).map)
    for ring in rings:
        maps.append(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()).map)
    fresh = [kernel_minimal_gens(f) for f in maps]
    fresh_stages = [resolve(GradedPresentation(f), 3).maps for f in maps]
    nonzero = sum(1 for f, _ in fresh if f.source.rank)
    assert nonzero >= 30
    with kernel_memo():
        for f, want, stages in zip(maps, fresh, fresh_stages):
            first = kernel_minimal_gens(f)
            _same_map(first[0], want[0])
            assert first[1] == want[1]
            # the repeat is the stored pair itself
            assert kernel_minimal_gens(f) is first
            got = resolve(GradedPresentation(f), 3).maps
            assert len(got) == len(stages)
            for g, w in zip(got, stages):
                _same_map(g, w)
    assert homalg._kernel_memo is None


def test_memo_hit_on_an_equal_algebra_does_no_elimination(monkeypatch):
    count = _count_eliminations(monkeypatch)
    pres = [
        cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal())
        for ring in (SemigroupRing((4, 5, 6)), SemigroupRing((4, 5, 6)))
    ]
    assert pres[0].algebra is not pres[1].algebra
    assert pres[0].algebra.ring is not pres[1].algebra.ring
    with kernel_memo():
        first = kernel_minimal_gens(pres[0].map)
        assert count["n"] > 0
        count["n"] = 0
        second = kernel_minimal_gens(pres[1].map)
        assert count["n"] == 0
        assert second is first
        # another prime is another key
        ring = SemigroupRing((4, 5, 6))
        other = cyclic_presentation(GradedAlgebra(ring, 103), ring.maximal_ideal())
        kernel_minimal_gens(other.map)
        assert count["n"] > 0


def test_a_raising_kernel_call_is_not_stored(monkeypatch):
    ring = _cube_ring()
    f = cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()).map
    want = kernel_minimal_gens(f)
    real = linalg.nullspace
    calls = {"n": 0, "fail": True}

    def flaky(*args):
        calls["n"] += 1
        if calls["fail"]:
            raise RuntimeError("elimination failed")
        return real(*args)

    monkeypatch.setattr(linalg, "nullspace", flaky)
    with kernel_memo():
        with pytest.raises(RuntimeError, match="elimination failed"):
            kernel_minimal_gens(f)
        assert homalg._kernel_memo == {}
        calls["fail"] = False
        calls["n"] = 0
        got = kernel_minimal_gens(f)
        _same_map(got[0], want[0])
        assert got[1] == want[1]
        assert calls["n"] > 0


def test_memo_lives_only_inside_its_outermost_scope(monkeypatch):
    # a deep resolution outside any scope leaves no memo behind
    ring = SemigroupRing((4, 5, 6, 7))
    res = resolve(cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal()), 5)
    assert homalg._kernel_memo is None
    count = _count_eliminations(monkeypatch)
    kernel_minimal_gens(res.maps[1])
    assert count["n"] > 0
    with kernel_memo():
        kernel_minimal_gens(res.maps[1])
        outer = homalg._kernel_memo
        with kernel_memo():
            assert homalg._kernel_memo is outer
            count["n"] = 0
            kernel_minimal_gens(res.maps[1])
            assert count["n"] == 0
        assert homalg._kernel_memo is outer and len(outer) == 1
    assert homalg._kernel_memo is None
    with pytest.raises(KeyError):
        with kernel_memo():
            kernel_minimal_gens(res.maps[1])
            raise KeyError("leave the scope")
    assert homalg._kernel_memo is None
    count["n"] = 0
    kernel_minimal_gens(res.maps[1])
    assert count["n"] > 0


def test_memo_stops_storing_at_its_cap(monkeypatch):
    monkeypatch.setattr(homalg, "KERNEL_MEMO_CAP", 2)
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 4)
    with kernel_memo():
        for f in res.maps:
            kernel_minimal_gens(f)
        assert len(homalg._kernel_memo) == 2
        count = _count_eliminations(monkeypatch)
        kernel_minimal_gens(res.maps[-1])
        assert count["n"] > 0
