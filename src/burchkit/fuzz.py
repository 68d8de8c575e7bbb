"""Seeded random instances and falsification suites for proven statements.

Every suite encodes a proved implication as an executable predicate and
hammers it with generated rings, ideals, and modules.  A failure is an
engine bug by construction, so the suites double as end-to-end tests of
the colon/Loewy arithmetic and the resolution kernels.

A suite is one row of the SUITES table, naming a module-level generator
and check; a statement helper with a single reader lives in its suite's
check rather than in classify.  The generator draws only from its
trial stream and returns an instance as plain JSON data (a dict), or
None when the draw yields nothing to test.  The check takes an instance
and returns None when it misses the statement's premises (a vacuous
trial), otherwise the verdict: True when the conclusion holds.  A check
that raises is a failure too; its counterexample carries the exception
type and message under "error".  Because instances are plain data,
counterexamples can be shrunk, serialized, and replayed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from .classify import (
    ColonTable,
    cor214_classify,
    is_burch,
    is_weakly_mfull_wrt,
    l2_identities,
    l3_equivalence,
)
from .homalg import (
    KERNEL_MEMO_CAP,
    GradedAlgebra,
    GradedFreeModule,
    GradedPresentation,
    HomogeneousMap,
    annihilates,
    cyclic_presentation,
    free_presentation,
    is_free,
    kernel_memo,
    module_from_ideal,
    resolve,
    tor_dim,
    tor_dims,
)
from .hw import hw_has_torsion, hw_report
from .linalg import nullspace
from .monomial import MonomialIdeal, integral_closure
from .rings import QuotientRing, SemigroupRing

INFINITY = float("inf")

# ceilings on the generated instances
_NVARS_MAX = 3
_DEGREE_MAX = 8

# small non-regular semigroups
_SG_POOL = (
    (2, 3),
    (3, 4, 5),
    (4, 5, 6),
    (4, 5, 11),
    (3, 7),
    (5, 6, 7, 8),
    (4, 6, 9),
    (6, 7, 9, 11),
)


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 2024
    trials: int = 200

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")


def trial_rng(cfg: FuzzConfig, index: int) -> random.Random:
    """Independent per-trial stream so trial k never depends on k-1."""
    return random.Random((cfg.seed * 0x9E3779B97F4A7C15 + index + 1) % 2**64)


# ---------------------------------------------------------------------------
# generators


def gen_mprimary_monomial(stream: random.Random, nvars: int) -> MonomialIdeal:
    """Pure power of every variable plus a few random monomials."""
    cap = max(2, _DEGREE_MAX // nvars)
    gens = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = stream.randint(2, cap)
        gens.append(tuple(e))
    for _ in range(stream.randint(0, nvars + 1)):
        e = tuple(stream.randint(0, cap - 1) for _ in range(nvars))
        if any(e):
            gens.append(e)
    return MonomialIdeal(nvars, gens)


def gen_module(ring, stream: random.Random) -> GradedPresentation:
    """Cokernel of a random homogeneous matrix with no unit entries."""
    algebra = GradedAlgebra(ring)
    ngen = stream.randint(1, 2)
    tshifts = tuple(sorted(stream.randint(0, 2) for _ in range(ngen)))
    jump_pool = [d for d in range(1, 9) if algebra.basis(d)][:3]
    elts = []
    sshifts = []
    for _ in range(stream.randint(0, 3)):
        i = stream.randrange(ngen)
        if not jump_pool:
            break
        jump = stream.choice(jump_pool)
        # jump_pool holds only degrees with a nonempty basis
        basis = algebra.basis(jump)
        elt = {(i, stream.choice(list(basis))): 1}
        sdeg = tshifts[i] + jump
        if ngen > 1 and stream.random() < 0.4:
            other = 1 - i
            jump2 = sdeg - tshifts[other]
            basis2 = algebra.basis(jump2) if jump2 >= 1 else ()
            if basis2:
                label = stream.choice(list(basis2))
                elt[(other, label)] = stream.randint(1, algebra.p - 1)
        sshifts.append(sdeg)
        elts.append(elt)
    # unit-free entries alone do not rule out a redundant relation, and a
    # redundant column would poison every later resolution stage; drop
    # columns until the first syzygy map certifies minimal generation
    while elts:
        pmap = HomogeneousMap(
            algebra, GradedFreeModule(tuple(sshifts)), GradedFreeModule(tshifts), elts
        )
        if _relations_minimal(pmap):
            return GradedPresentation(pmap)
        sshifts.pop()
        elts.pop()
    return free_presentation(algebra, tshifts)


def _relations_minimal(pmap):
    """Whether the columns of pmap minimally generate its image, as
    kernel_minimal_gens(pmap)[0].is_minimal says, with no kernel walk.

    Some column is redundant exactly when some syzygy has a unit entry,
    at a column (j, 1) in degree s_j.  Decomposable syzygies have no
    unit entries, so that happens iff some null vector of
    pmap.matrix(s_j) is nonzero at a column (j, 1).
    """
    shifts = pmap.source.shifts
    for d in set(shifts):
        rows, src, _ = pmap.matrix(d)
        units = {c for c, (j, _) in enumerate(src) if shifts[j] == d}
        for v in nullspace([r for r in rows if r], len(src), pmap.algebra.p):
            if not units.isdisjoint(v):
                return False
    return True


def _pure_power_instance(stream, n):
    """Monomial quotient by a random pure power of each of n variables."""
    per_var = max(2, min(4, _DEGREE_MAX // n))
    bounds = [stream.randint(2, per_var) for _ in range(n)]
    defining = [[b if k == i else 0 for k in range(n)] for i, b in enumerate(bounds)]
    return {"family": "monomial", "nvars": n, "defining": defining, "bounds": bounds}


def _all_monomials(bounds):
    out = [()]
    for b in bounds:
        out = [e + (k,) for e in out for k in range(b + 1)]
    return [e for e in out if any(e)]


def _rand_monomials(stream, bounds, count):
    gens = []
    for _ in range(count):
        e = tuple(stream.randint(0, b) for b in bounds)
        if any(e):
            gens.append(e)
    return gens


def _rand_sg_vals(stream, s, count):
    hi = 1 + s.conductor + s.generators[0]
    pool = [v for v in range(1, hi + 1) if v in s]
    return stream.sample(pool, min(count, len(pool)))


# ---------------------------------------------------------------------------
# instance (de)serialization


def _build_ring(inst):
    """The ring of an instance, one shared object per ring description,
    so its cached bases, socle, powers of m and Apery tuple are built
    once per process rather than once per trial."""
    if inst["family"] == "monomial":
        return _shared_ring(inst["nvars"], tuple(map(tuple, inst["defining"])))
    return _shared_ring(None, tuple(inst["sgens"]))


# the generators draw rings from fixed pools: 79 distinct rings in 150
# rounds of 100 trials per suite
@lru_cache(maxsize=128)
def _shared_ring(nvars, data):
    """QuotientRing(nvars, data), or SemigroupRing(data) when nvars is None."""
    return SemigroupRing(data) if nvars is None else QuotientRing(nvars, data)


def _encode_label(label):
    return list(label) if isinstance(label, tuple) else label


def _decode_label(raw):
    return tuple(raw) if isinstance(raw, list) else raw


def _encode_module(pres):
    pmap = pres.map
    cols = [
        [[i, _encode_label(label), coeff] for (i, label), coeff in sorted(elt.items())]
        for elt in pmap.elts
    ]
    return {
        "tshifts": list(pmap.target.shifts),
        "sshifts": list(pmap.source.shifts),
        "cols": cols,
    }


def _decode_module(algebra, data):
    target = GradedFreeModule(tuple(data["tshifts"]))
    source = GradedFreeModule(tuple(data["sshifts"]))
    elts = [
        {(i, _decode_label(label)): coeff for i, label, coeff in raw}
        for raw in data["cols"]
    ]
    return GradedPresentation(HomogeneousMap(algebra, source, target, elts))


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class Suite:
    name: str
    generate: object
    check: object
    # instance -> tag names, counted over the trials whose check returns a verdict
    tags: object = None


def _base_instance(stream):
    """A random monomial or semigroup ring, as plain data."""
    if stream.choice(("monomial", "semigroup")) == "monomial":
        return _monomial_instance(stream)
    return _semigroup_instance(stream)


def _monomial_instance(stream):
    """Artinian monomial quotient: pure powers, sometimes one mixed monomial."""
    n = stream.randint(1, 2) if stream.random() < 0.9 else _NVARS_MAX
    inst = _pure_power_instance(stream, n)
    if n > 1 and stream.random() < 0.4:
        e = [stream.randint(0, b - 1) for b in inst["bounds"]]
        if sum(e) >= 2:
            inst["defining"].append(e)
    return inst


def _semigroup_instance(stream):
    return {"family": "semigroup", "sgens": list(stream.choice(_SG_POOL))}


def _rand_ideal_gens(inst, stream, count):
    """Generator lists for a random nonzero proper ideal as plain data."""
    if inst["family"] == "monomial":
        bounds = inst["bounds"]
        gens = _rand_monomials(stream, bounds, count)
        if not gens:
            e = [0] * inst["nvars"]
            e[0] = max(1, bounds[0] - 1)
            gens = [tuple(e)]
        return [list(g) for g in gens]
    vals = _rand_sg_vals(stream, _build_ring(inst).S, count)
    return sorted(vals)


def _mpow_gens(inst, k):
    ring = _build_ring(inst)
    return [_encode_label(g) for g in ring.mpow(k).min_gens()]


def _mj_gens(inst, stream):
    """Minimal generators of m·J for a random J, as plain data."""
    j = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    ring = _build_ring(inst)
    return [_encode_label(g) for g in (ring.maximal_ideal() * ring.ideal(j)).min_gens()]


def _mj(ring, gens):
    """(J, m·J) for J on gens, or (None, None) when J is zero or the unit
    ideal or m·J is zero."""
    j = ring.ideal(gens)
    if j.is_zero() or j.is_unit():
        return None, None
    i = ring.maximal_ideal() * j
    return (None, None) if i.is_zero() else (j, i)


# --- identity and classification suites ------------------------------------


def _mprimary_gens(inst, stream):
    """A gen_mprimary_monomial draw over the instance's variables, as plain data."""
    return [list(g) for g in gen_mprimary_monomial(stream, inst["nvars"]).gens]


def _gen_ideal(stream):
    inst = _base_instance(stream)
    inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
    return inst


def _chk_remark23(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    m = ring.maximal_ideal()
    mi = m * i
    return m * mi.colon(m) == mi


def _gen_remark22(stream):
    inst = _base_instance(stream)
    kind = stream.random()
    if kind < 0.4:
        inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
    elif kind < 0.8:
        inst["ideal"] = _mj_gens(inst, stream)
    else:
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
    return inst


def _chk_remark22(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit():
        return None
    t = ColonTable(i)
    ll = i.loewy_length()
    cap = int(ll) if ll != INFINITY else 6
    hit = next((s for s in range(cap + 1) if t.wmf_mpow(s)), None)
    if hit is None:
        return None
    return all(t.wmf_mpow(u) for u in range(hit, hit + 4))


def _chk_remark32(inst):
    """wmf w.r.t. (I : m) iff I is Burch or depth(R/I) > 0."""
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit():
        return None
    t = ColonTable(i)
    k = t.colon(1)
    # the backend colon convention (I : 0) = R makes a zero k harmless
    wmf_colon = i.colon(k) == t.mi.colon(t.m * k)
    return wmf_colon == (t.burch() or t.depth_positive())


def _gen_remark37(stream):
    inst = _base_instance(stream)
    kind = stream.random()
    if inst["family"] == "monomial":
        if kind < 0.5:
            inst["ideal"] = _mprimary_gens(inst, stream)
        else:
            inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
    else:
        if kind < 0.5:
            inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        else:
            inst["ideal"] = _mpow_gens(inst, stream.randint(1, 4))
    return inst


def _chk_remark37(inst):
    """ll(R/mI) = ll(R/I) + 1 certifies that an m-primary I is Burch."""
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit() or not i.is_m_primary():
        return None
    if (ring.maximal_ideal() * i).loewy_length() != i.loewy_length() + 1:
        return None
    return is_burch(i)


def _gen_lemma36(stream):
    inst = _gen_ideal(stream)
    inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    return inst


def _chk_lemma36(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    j = ring.ideal(inst["j"])
    if j.is_zero() or j.is_unit() or i.is_zero() or i.is_unit():
        return None
    rec = l2_identities(i, j)
    ok = rec.all_hold
    # third part: a unit Loewy jump for (mI : J) certifies Burch
    c = i.colon(j)
    if not j.subset_of(i) and c.is_proper() and c.is_m_primary():
        lhs = (ring.maximal_ideal() * i).colon(j).loewy_length()
        if lhs == c.loewy_length() + 1:
            ok = ok and is_burch(i)
    return ok


def _gen_lemma310(stream):
    inst = _base_instance(stream)
    if inst["family"] == "monomial":
        inst["ideal"] = _mprimary_gens(inst, stream)
    else:
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
    return inst


def _chk_lemma310(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit() or not i.is_m_primary():
        return None
    rec = l3_equivalence(i)
    ok = rec.cond_i == rec.cond_ii == rec.cond_iii
    if rec.cond_iii and rec.witness_s is not None:
        ok = ok and 0 <= rec.witness_s < i.loewy_length()
    return ok


def _gen_lemma213(stream):
    inst = _base_instance(stream)
    inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    inst["kmode"] = stream.choice(["j", "colon", "mix"])
    return inst


def _chk_lemma213(inst):
    """For I = mJ and J <= K <= (I : m): I is wmf w.r.t. K and (I : K) = m."""
    ring = _build_ring(inst)
    j, i = _mj(ring, inst["j"])
    if i is None:
        return None
    m = ring.maximal_ideal()
    top = i.colon(m)
    mode = inst["kmode"]
    if mode == "j":
        k = j
    elif mode == "colon":
        k = top
    else:
        k = j + ring.ideal([top.min_gens()[0]])
    if not (j.subset_of(k) and k.subset_of(top)):
        return None
    return is_weakly_mfull_wrt(i, k) and i.colon(k) == m


def _gen_prop24(stream):
    n = stream.randint(2, _NVARS_MAX)
    raw = gen_mprimary_monomial(stream, n)
    closed = integral_closure(raw)
    return {
        "family": "monomial",
        "nvars": n,
        "defining": [],
        "ideal": [list(g) for g in closed.gens],
    }


def _chk_prop24(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit():
        return None
    if i.is_integrally_closed() is not True:
        return None
    colons = ColonTable(i)
    return colons.weakly_mfull() and all(colons.wmf_mpow(s) for s in range(4))


def _gen_prop38(stream):
    inst = _base_instance(stream)
    inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    inst["constructed"] = stream.random() < 0.7
    if not inst["constructed"]:
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
    return inst


def _chk_prop38(inst):
    ring = _build_ring(inst)
    # with m·J zero only I = 0 would lie in it
    j, mj = _mj(ring, inst["j"])
    if mj is None:
        return None
    i = mj if inst["constructed"] else ring.ideal(inst["ideal"])
    if i.is_zero() or not i.subset_of(mj):
        return None
    c = i.colon(j)
    if not (c.is_proper() and c.is_m_primary()):
        return None
    if not is_weakly_mfull_wrt(i, j):
        return None
    return is_burch(i)


def _gen_prop39(stream):
    inst = _base_instance(stream)
    kind = stream.random()
    if inst["family"] == "monomial" and kind < 0.4:
        inst["ideal"] = _mprimary_gens(inst, stream)
    elif kind < 0.7:
        inst["ideal"] = _mj_gens(inst, stream)
    else:
        inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
    return inst


def _chk_prop39(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit() or not i.is_m_primary():
        return None
    t = ColonTable(i)
    if not any(t.wmf_mpow(s) for s in range(int(i.loewy_length()))):
        return None
    return t.burch()


# --- homological suites -----------------------------------------------------


def _decode_premise_module(inst, ring):
    """Module an instance names under "mkind": free, R/yR for a socle
    monomial y, R/fR for a valuation f, an ideal, or a random cokernel."""
    algebra = GradedAlgebra(ring)
    kind = inst["mkind"]
    if kind == "free":
        return free_presentation(algebra, tuple(inst["mshifts"]))
    if kind == "socle":
        y = tuple(inst["socle_gen"])
        return cyclic_presentation(algebra, ring.ideal([y]))
    if kind == "cyclic":
        return cyclic_presentation(algebra, ring.ideal([inst["mval"]]))
    if kind == "ideal":
        return module_from_ideal(algebra, ring.ideal(inst["mivals"]))[0]
    return _decode_module(algebra, inst["module"])


def _draw_module(inst, stream, kind, ring=None):
    """A free ("free") or random ("random") premise module, as plain data."""
    inst["mkind"] = kind
    if kind == "free":
        inst["mshifts"] = sorted(stream.randint(0, 2) for _ in range(stream.randint(1, 2)))
    else:
        inst["module"] = _encode_module(gen_module(ring, stream))


def _attach_premise_module(inst, stream, ring, i):
    """Free, R/yR for a socle monomial y outside I, or random; and a stage t."""
    r = stream.random()
    if 0.2 <= r < 0.6 and inst["family"] == "monomial":
        options = [y for y in ring.socle() if not i.member(y)]
        if options:
            inst["mkind"] = "socle"
            inst["socle_gen"] = list(stream.choice(options))
            inst["t"] = 1
            return
    _draw_module(inst, stream, "free" if r < 0.2 else "random", ring)
    inst["t"] = stream.randint(1, 2)


def _tor_killed_verdict(inst, ring, i, killer, hyp=True):
    """hyp, Tor_t(M, R/I) = 0 and killer annihilating the t-th syzygy of M;
    None when a random M has Tor_t(M, R/I) != 0 (the premise fails)."""
    pres = _decode_premise_module(inst, ring)
    t = inst["t"]
    vanishes = tor_dim(pres, i, t).total_dim == 0
    if inst["mkind"] == "random" and not vanishes:
        return None
    return hyp and vanishes and annihilates(killer, pres, t)


def _gen_thm28(stream):
    inst = _base_instance(stream)
    inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    ring = _build_ring(inst)
    _, i = _mj(ring, inst["j"])
    if i is None:
        return None
    _attach_premise_module(inst, stream, ring, i)
    return inst


def _chk_thm28(inst):
    ring = _build_ring(inst)
    j, i = _mj(ring, inst["j"])
    if i is None:
        return None
    # hypotheses are guaranteed by the I = mJ construction, but the
    # engine must agree with the arithmetic facts behind them
    hyp = (
        i.subset_of(ring.maximal_ideal() * j)
        and i.colon(j).is_m_primary()
        and is_weakly_mfull_wrt(i, j)
    )
    return _tor_killed_verdict(inst, ring, i, j, hyp)


def _gen_cor215(stream):
    inst = _base_instance(stream)
    inst["part"] = stream.choice(["i", "ii"])
    if inst["part"] == "ii":
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        ring = _build_ring(inst)
        _, i = _mj(ring, inst["j"])
    else:
        inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
    if i is None or i.is_zero() or i.is_unit():
        return None
    _attach_premise_module(inst, stream, ring, i)
    return inst


def _chk_cor215(inst):
    ring = _build_ring(inst)
    if inst["part"] == "ii":
        _, i = _mj(ring, inst["j"])
        if i is None:
            return None
        killer = i.colon(ring.maximal_ideal())
    else:
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit() or not i.is_m_primary():
            return None
        s = ColonTable(i).cor214_power(int(i.loewy_length()))
        if s is None:
            return None
        killer = ring.mpow(s)
    return _tor_killed_verdict(inst, ring, i, killer)


def _gen_thm25(stream):
    inst = _monomial_instance(stream)
    ring = _build_ring(inst)
    ll = int(ring.zero_ideal().loewy_length())
    if ll < 2:
        return None
    inst["jpow"] = stream.randint(max(1, ll - 2), ll - 1)
    ring_m = ring.maximal_ideal()
    u = ring_m * ring.mpow(inst["jpow"]).colon(ring_m)
    soc = ring.ideal(list(ring.socle()))
    if soc.is_zero() or not soc.subset_of(u):
        return None
    extras = [g for g in u.min_gens() if stream.random() < 0.5]
    inst["ideal"] = [list(g) for g in soc.min_gens() + tuple(extras)]
    _draw_module(inst, stream, "random" if stream.random() < 0.75 else "free", ring)
    inst["t"] = stream.randint(1, 2)
    return inst


def _chk_thm25(inst):
    ring = _build_ring(inst)
    j = ring.mpow(inst["jpow"])
    if j.is_zero() or j.is_unit():
        return None
    i = ring.ideal(inst["ideal"])
    ring_m = ring.maximal_ideal()
    u = ring_m * j.colon(ring_m)
    soc = ring.ideal(list(ring.socle()))
    if not (soc.subset_of(i) and i.subset_of(u)) or i.is_unit():
        return None
    pres = _decode_premise_module(inst, ring)
    t = inst["t"]
    if not annihilates(j, pres, t):
        return None
    res = resolve(pres, t)
    if res.rank(t) == 0:
        # projective dimension below t: contrapositive says nothing
        return None
    tor = tor_dim(pres, i, t)
    return tor.total_dim > 0


def _gen_prop26(stream):
    n = 3 if stream.random() < 0.2 else 2
    inst = _pure_power_instance(stream, n)
    bounds = inst["bounds"]
    # cut a staircase corner so the socle needs two generators
    cut = [0] * n
    cut[0] = stream.randint(1, bounds[0] - 1)
    cut[1] = stream.randint(1, bounds[1] - 1)
    inst["defining"].append(cut)
    ring = _build_ring(inst)
    soc = sorted(ring.socle())
    if len(soc) < 2:
        return None
    y = stream.choice(soc)
    amb = MonomialIdeal(n, [tuple(g) for g in inst["defining"]])
    pool = []
    for g in _all_monomials(bounds):
        if amb.member(g) or all(g[i] <= y[i] for i in range(n)):
            continue
        pool.append(g)
    if not pool:
        return None
    gens = stream.sample(pool, min(stream.randint(1, 3), len(pool)))
    inst["ideal"] = [list(g) for g in gens]
    return inst


def _chk_prop26(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit():
        return None
    options = [y for y in ring.socle() if not i.member(y)]
    if not options:
        return None
    y = options[0]
    algebra = GradedAlgebra(ring)
    pres = cyclic_presentation(algebra, ring.ideal([y]))
    tor1, tor2 = tor_dims(pres, i, 1, 2)
    res = resolve(pres, 3)
    never_free = res.rank(3) > 0
    return tor1.total_dim == 0 and tor2.total_dim > 0 and never_free


def _gen_btor33(stream):
    inst = _monomial_instance(stream)
    if stream.random() < 0.7:
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    else:
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
    _draw_module(inst, stream, "free" if stream.random() < 0.25 else "random", _build_ring(inst))
    return inst


def _chk_btor33(inst):
    ring = _build_ring(inst)
    if "j" in inst:
        _, i = _mj(ring, inst["j"])
    else:
        i = ring.ideal(inst["ideal"])
    if i is None or i.is_zero() or i.is_unit() or not is_burch(i):
        return None
    pres = _decode_premise_module(inst, ring)
    tor1, tor2 = (r.total_dim for r in tor_dims(pres, i, 1, 2))
    if inst["mkind"] == "free" or is_free(pres):
        return tor1 == 0 and tor2 == 0
    # non-free over an Artinian ring: infinite projective dimension,
    # so consecutive vanishing would contradict the bound pd <= t
    return not (tor1 == 0 and tor2 == 0)


def _gen_cor210(stream):
    inst = _semigroup_instance(stream)
    inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    s = _build_ring(inst).S
    kind = stream.random()
    if kind < 0.25:
        _draw_module(inst, stream, "free")
    elif kind < 0.6:
        inst["mkind"] = "cyclic"
        inst["mval"] = _rand_sg_vals(stream, s, 1)[0]
    else:
        inst["mkind"] = "ideal"
        inst["mivals"] = _rand_sg_vals(stream, s, stream.randint(1, 3))
    inst["t"] = stream.randint(1, 2)
    return inst


def _chk_cor210(inst):
    ring = _build_ring(inst)
    j, i = _mj(ring, inst["j"])
    if i is None or not is_weakly_mfull_wrt(i, j):
        return None
    pres = _decode_premise_module(inst, ring)
    t = inst["t"]
    tor = tor_dim(pres, i, t)
    res = resolve(pres, t)
    # vanishing at stage t forces the minimal resolution to stop
    ok = tor.total_dim > 0 or res.rank(t) == 0
    if inst["mkind"] == "free":
        ok = ok and tor.total_dim == 0
    elif inst["mkind"] == "cyclic":
        # pd R/fR = 1 over a domain, and f is a zerodivisor on R/I
        tor1, tor2 = tor_dims(pres, i, 1, 2)
        ok = ok and tor1.total_dim > 0 and tor2.total_dim == 0
    elif not is_free(pres):
        # non-principal ideal module: infinite projective dimension,
        # so the rigidity above forces nonzero Tor at every stage
        ok = ok and tor.total_dim > 0
    return ok


def _gen_cor214(stream):
    inst = _semigroup_instance(stream)
    kind = stream.random()
    if kind < 0.4:
        inst["ideal"] = _mpow_gens(inst, stream.randint(1, 4))
    elif kind < 0.7:
        inst["ideal"] = _mj_gens(inst, stream)
    else:
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
    return inst


def _chk_cor214(inst):
    ring = _build_ring(inst)
    i = ring.ideal(inst["ideal"])
    if i.is_zero() or i.is_unit():
        return None
    classes = cor214_classify(i)
    if not classes:
        return None
    verdict = hw_has_torsion(i)
    return verdict.has_torsion and verdict.certified


def _gen_hw12(stream):
    inst = _semigroup_instance(stream)
    r = stream.random()
    if r < 0.25:
        inst["kind"] = "control"
        inst["ideal"] = _rand_sg_vals(stream, _build_ring(inst).S, 1)
    elif r < 0.8:
        inst["kind"] = "constructed"
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    else:
        inst["kind"] = "sampled"
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(2, 3))
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
    return inst


def _chk_hw12(inst):
    ring = _build_ring(inst)
    if inst["kind"] == "control":
        verdict = hw_has_torsion(ring.ideal(inst["ideal"]))
        return not verdict.has_torsion and verdict.tor1_dim == 0 and verdict.certified
    # k[S] is a domain: m·J is zero only when J is
    j, mj = _mj(ring, inst["j"])
    if mj is None:
        return None
    i = mj if inst["kind"] == "constructed" else ring.ideal(inst["ideal"])
    if i.is_zero():
        return None
    rep = hw_report(i, j)
    if not rep.hypotheses_hold:
        return None
    return rep.has_torsion and rep.certified


def _tags_hw12(inst):
    if inst["kind"] == "control":
        return ("control",)
    return ("hypothesis", "hypring:%s" % ",".join(str(g) for g in inst["sgens"]))


SUITES = {
    suite.name: suite
    for suite in (
        Suite("remark23", _gen_ideal, _chk_remark23),
        Suite("remark22", _gen_remark22, _chk_remark22),
        Suite("remark32", _gen_ideal, _chk_remark32),
        Suite("remark37", _gen_remark37, _chk_remark37),
        Suite("lemma36", _gen_lemma36, _chk_lemma36),
        Suite("lemma310", _gen_lemma310, _chk_lemma310),
        Suite("lemma213", _gen_lemma213, _chk_lemma213),
        Suite("prop24", _gen_prop24, _chk_prop24),
        Suite("prop38", _gen_prop38, _chk_prop38),
        Suite("prop39", _gen_prop39, _chk_prop39),
        Suite("thm28", _gen_thm28, _chk_thm28),
        Suite("cor215", _gen_cor215, _chk_cor215),
        Suite("thm25", _gen_thm25, _chk_thm25),
        Suite("prop26", _gen_prop26, _chk_prop26),
        Suite("btor33", _gen_btor33, _chk_btor33),
        Suite("cor210", _gen_cor210, _chk_cor210),
        Suite("cor214", _gen_cor214, _chk_cor214),
        Suite("hw12", _gen_hw12, _chk_hw12, _tags_hw12),
    )
}


# ---------------------------------------------------------------------------
# runner, shrinking, reports


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    trials: int
    effective: int
    failures: int
    passed: bool
    vacuous: bool
    counterexample: dict | None
    tags: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _outcome(check, inst):
    """(verdict, exception) of one check; a None verdict is a vacuous trial.

    A check that raises convicts the engine on that instance: the trial
    counts as an effective failure and the exception comes back.
    """
    try:
        return check(inst), None
    except Exception as exc:
        return False, exc


def shrink_instance(check, inst, error=None):
    """Greedy minimization: drop generators and lower entries, re-test.

    A candidate is kept only if it fails the same way: with `error`
    None, a check that returns a false verdict; otherwise a check that
    raises an exception of the same type as `error`.
    """

    def still_fails(cand):
        verdict, exc = _outcome(check, cand)
        if error is not None:
            return type(exc) is type(error)
        return exc is None and verdict is not None and not verdict

    cur = inst
    for _ in range(200):
        for cand in _shrink_candidates(cur):
            if still_fails(cand):
                cur = cand
                break
        else:
            return cur
    return cur


def _shrink_candidates(inst):
    for key in sorted(inst):
        value = inst[key]
        if key in ("defining", "sgens", "bounds") or not isinstance(value, list):
            continue
        if len(value) > 1:
            for cut in range(len(value)):
                yield {**inst, key: value[:cut] + value[cut + 1 :]}
        for gi, g in enumerate(value):
            if isinstance(g, int) and g > 1:
                yield {**inst, key: value[:gi] + [g - 1] + value[gi + 1 :]}
            elif isinstance(g, list):
                for ci, c in enumerate(g):
                    if c > 0:
                        smaller = list(g)
                        smaller[ci] = c - 1
                        yield {**inst, key: value[:gi] + [smaller] + value[gi + 1 :]}
    module = inst.get("module")
    if isinstance(module, dict) and module.get("cols"):
        cols = module["cols"]
        for cut in range(len(cols)):
            trimmed = {
                **module,
                "cols": cols[:cut] + cols[cut + 1 :],
                "sshifts": module["sshifts"][:cut] + module["sshifts"][cut + 1 :],
            }
            yield {**inst, "module": trimmed}


def run_suite(name: str, cfg: FuzzConfig = FuzzConfig()) -> SuiteReport:
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError("unknown suite: %s" % name)
    effective = 0
    failures = 0
    counterexample = None
    tags = Counter()
    # trials draw small rings from fixed pools, so rings, ideal colons,
    # products and closures recur, and so do syzygies and whole
    # instances: rings (_build_ring) and the ideal operations stay in
    # bounded caches across runs; syzygies, and the verdicts of checks
    # that returned keyed by repr(inst), in memos for this run only, so
    # each distinct instance is checked once.  As in kernel_memo, a
    # check that raises stores nothing.
    verdicts = {}
    with kernel_memo():
        for index in range(cfg.trials):
            inst = suite.generate(trial_rng(cfg, index))
            if inst is None:
                continue
            key = repr(inst)
            if key in verdicts:
                verdict, exc = verdicts[key], None
            else:
                verdict, exc = _outcome(suite.check, inst)
                if exc is None and len(verdicts) < KERNEL_MEMO_CAP:
                    verdicts[key] = verdict
            if verdict is None:
                continue
            effective += 1
            if exc is None and suite.tags is not None:
                tags.update(suite.tags(inst))
            if not verdict:
                failures += 1
                if counterexample is None:
                    counterexample = shrink_instance(suite.check, inst, exc)
                    if exc is not None:
                        # report the exception the shrunk instance raises
                        exc = _outcome(suite.check, counterexample)[1] or exc
                        counterexample = {
                            **counterexample,
                            "error": {"type": type(exc).__name__, "message": str(exc)},
                        }
    return SuiteReport(
        suite=name,
        seed=cfg.seed,
        trials=cfg.trials,
        effective=effective,
        failures=failures,
        passed=failures == 0,
        vacuous=cfg.trials == 0 or effective * 20 < cfg.trials,
        counterexample=counterexample,
        tags=dict(sorted(tags.items())),
    )


def replay_instance(name: str, inst: dict):
    """Re-run one stored instance; returns (effective, ok).

    A vacuous instance gives (False, True); a check that raises gives
    (True, False), as it does in run_suite.
    """
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError("unknown suite: %s" % name)
    verdict, _ = _outcome(suite.check, inst)
    return (False, True) if verdict is None else (True, verdict)


def suite_names():
    return tuple(sorted(SUITES))
