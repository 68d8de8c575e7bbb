"""Graded resolutions, Betti numbers, Tor, and the exactness audits."""

import hashlib
import random

import pytest

from burchkit.homalg import (
    GradedAlgebra,
    GradedFreeModule,
    GradedPresentation,
    HomogeneousMap,
    annihilates,
    audit_resolution,
    cyclic_presentation,
    free_presentation,
    is_free,
    module_from_ideal,
    resolve,
    syzygy,
    tor_dim,
)
from burchkit.fuzz import FuzzConfig, gen_module, trial_rng
from burchkit.rings import QuotientRing, SemigroupRing

from oracles import dense_matrix


def _cube_ring():
    return QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)])


def test_algebra_basis_dimensions():
    alg = GradedAlgebra(_cube_ring())
    assert [alg.dim(d) for d in range(4)] == [1, 2, 3, 0]
    assert alg.is_artinian()
    assert alg.top_degree() == 2

    sg = GradedAlgebra(SemigroupRing((4, 5, 6)))
    assert [sg.dim(d) for d in range(9)] == [1, 0, 0, 0, 1, 1, 1, 0, 1]
    assert not sg.is_artinian()


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
    data = [
        (m.source.shifts, m.target.shifts, [[sorted(e.items()) for e in col] for col in m.cols])
        for m in res.maps
    ]
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
    # tor against any ideal routes through resolve and raises the same way
    with pytest.raises(ValueError, match="not minimal"):
        tor_dim(pres, ring.maximal_ideal(), 2)


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


def test_module_from_ideal():
    ring = SemigroupRing((4, 5, 6))
    alg = GradedAlgebra(ring)
    pres, certified = module_from_ideal(alg, ring.ideal([4, 5]))
    assert certified
    assert pres.generators.rank == 2
    assert not is_free(pres)
    res = resolve(pres, 3)
    assert audit_resolution(res)
    zero, _ = module_from_ideal(alg, ring.zero_ideal()), True
    # principal ideals present as free rank-1 modules
    prin, cert2 = module_from_ideal(alg, ring.ideal([8]))
    assert cert2 and is_free(prin) and prin.generators.rank == 1


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


def _assert_matrices_match_dense(pmap, degrees, view=None):
    for d in degrees:
        rows, src, tgt = pmap.matrix(d, view)
        want_rows, want_src, want_tgt = dense_matrix(pmap, d, view)
        assert (src, tgt) == (want_src, want_tgt)
        # same entries in the same insertion order, so elimination sees
        # identical input
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in want_rows]


def test_matrix_matches_dense_assembly_on_residue_field_differentials():
    ring = _cube_ring()
    alg = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 5)
    quotient = alg.modulo(ring.mpow(2))
    for m in res.maps:
        degrees = range(min(m.source.shifts), max(m.source.shifts) + 3)
        _assert_matrices_match_dense(m, degrees)
        _assert_matrices_match_dense(m, degrees, quotient)
    ring = SemigroupRing((6, 7, 9, 11))
    alg = GradedAlgebra(ring)
    res = resolve(cyclic_presentation(alg, ring.maximal_ideal()), 4)
    quotient = alg.modulo(ring.ideal([12, 13]))
    for m in res.maps:
        degrees = range(min(m.source.shifts), max(m.source.shifts) + 14)
        _assert_matrices_match_dense(m, degrees)
        _assert_matrices_match_dense(m, degrees, quotient)


def test_matrix_matches_dense_assembly_on_random_presentations():
    cfg = FuzzConfig(seed=13)
    rings = (
        (QuotientRing(2, [(3, 0), (1, 2), (0, 3)]), [(2, 0), (0, 2)]),
        (SemigroupRing((4, 5, 6)), [8, 9]),
    )
    checked = 0
    for ring, jgens in rings:
        alg = GradedAlgebra(ring)
        quotient = alg.modulo(ring.ideal(jgens))
        for k in range(40):
            pres = gen_module(cfg, ring, trial_rng(cfg, k), algebra=alg)
            maps = resolve(pres, 2).maps
            for m in maps:
                if not m.source.rank:
                    continue
                degrees = range(min(m.source.shifts), max(m.source.shifts) + 6)
                _assert_matrices_match_dense(m, degrees)
                _assert_matrices_match_dense(m, degrees, quotient)
                checked += 1
    assert checked >= 80


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
