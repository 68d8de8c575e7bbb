"""Seeded random instances and falsification suites for proven statements.

Every suite encodes a proved implication as an executable predicate and
hammers it with generated rings, ideals, and modules.  A failure is an
engine bug by construction, so the suites double as end-to-end tests of
the colon/Loewy arithmetic and the resolution kernels.  A check that
raises is a failure too; its counterexample carries the exception type
and message under "error".  Instances are plain dicts so counterexamples
can be shrunk, serialized, and replayed.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from .classify import (
    burch_via_loewy,
    cor214_classify,
    is_burch,
    is_weakly_mfull,
    is_weakly_mfull_wrt,
    l2_identities,
    l3_equivalence,
    lemma213_check,
    remark32_equivalence,
)
from .homalg import (
    GradedAlgebra,
    GradedFreeModule,
    GradedPresentation,
    HomogeneousMap,
    annihilates,
    cyclic_presentation,
    free_presentation,
    is_free,
    kernel_memo,
    kernel_minimal_gens,
    resolve,
    tor_dim,
)
from .hw import FractionalSemigroupIdeal, hw_has_torsion, hw_report
from .monomial import MonomialIdeal, integral_closure
from .rings import QuotientRing, SemigroupRing
from .semigroup import NumericalSemigroup

INFINITY = float("inf")

# hard ceilings; FuzzConfig may only shrink them
_NVARS_MAX = 3
_DEGREE_MAX = 8
_SG_GENS_MAX = 4
_SG_VALUE_MAX = 30
_DEPTH_MAX = 6

# small non-regular semigroups, all within the generator caps
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
    backend_mix: tuple = ("monomial", "semigroup")
    nvars_cap: int = _NVARS_MAX
    degree_cap: int = _DEGREE_MAX
    sg_gens_cap: int = _SG_GENS_MAX
    sg_value_cap: int = _SG_VALUE_MAX
    depth_cap: int = _DEPTH_MAX

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        caps = (
            (self.nvars_cap, _NVARS_MAX),
            (self.degree_cap, _DEGREE_MAX),
            (self.sg_gens_cap, _SG_GENS_MAX),
            (self.sg_value_cap, _SG_VALUE_MAX),
            (self.depth_cap, _DEPTH_MAX),
        )
        for value, ceiling in caps:
            if not (1 <= value <= ceiling):
                raise ValueError("cap %d outside supported range 1..%d" % (value, ceiling))
        for b in self.backend_mix:
            if b not in ("monomial", "semigroup"):
                raise ValueError("unknown backend %r" % (b,))


def trial_rng(cfg: FuzzConfig, index: int) -> random.Random:
    """Independent per-trial stream so trial k never depends on k-1."""
    return random.Random((cfg.seed * 0x9E3779B97F4A7C15 + index + 1) % 2**64)


# ---------------------------------------------------------------------------
# generators


def gen_mprimary_monomial(cfg: FuzzConfig, stream: random.Random, nvars=None) -> MonomialIdeal:
    """Pure power of every variable plus a few random monomials."""
    n = nvars if nvars is not None else stream.randint(1, cfg.nvars_cap)
    cap = max(2, cfg.degree_cap // n)
    gens = []
    for i in range(n):
        e = [0] * n
        e[i] = stream.randint(2, cap)
        gens.append(tuple(e))
    for _ in range(stream.randint(0, n + 1)):
        e = tuple(stream.randint(0, cap - 1) for _ in range(n))
        if any(e):
            gens.append(e)
    return MonomialIdeal(n, gens)


def gen_semigroup_ideal(cfg: FuzzConfig, stream: random.Random, semigroup=None) -> FractionalSemigroupIdeal:
    """Random integral valuations above a random floor, minimalized."""
    s = semigroup
    if s is None:
        s = NumericalSemigroup(stream.choice(_semigroup_pool(cfg)))
    floor = stream.randint(1, max(2, cfg.sg_value_cap // 2))
    hi = floor + s.conductor + s.generators[0]
    pool = [v for v in range(floor, hi + 1) if v in s]
    vals = stream.sample(pool, min(stream.randint(1, 3), len(pool)))
    return FractionalSemigroupIdeal(s, vals)


def gen_module(cfg: FuzzConfig, ring, stream: random.Random = None, algebra=None) -> GradedPresentation:
    """Cokernel of a random homogeneous matrix with no unit entries."""
    stream = stream if stream is not None else random.Random(cfg.seed)
    algebra = algebra if algebra is not None else GradedAlgebra(ring)
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
        basis = algebra.basis(jump)
        if not basis:
            continue
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
        syz, _ = kernel_minimal_gens(pmap)
        if syz.is_minimal:
            return GradedPresentation(pmap)
        sshifts.pop()
        elts.pop()
    return free_presentation(algebra, tshifts)


def _semigroup_pool(cfg: FuzzConfig):
    pool = [
        g
        for g in _SG_POOL
        if len(g) <= cfg.sg_gens_cap and max(g) <= cfg.sg_value_cap
    ]
    return pool or [(2, 3)]


def _draw_artinian_ring(cfg: FuzzConfig, stream: random.Random):
    """Monomial quotient with a pure power of every variable."""
    n = stream.randint(1, min(2, cfg.nvars_cap)) if stream.random() < 0.9 else min(3, cfg.nvars_cap)
    per_var = max(2, min(4, cfg.degree_cap // n))
    bounds = [stream.randint(2, per_var) for _ in range(n)]
    defining = []
    for i in range(n):
        e = [0] * n
        e[i] = bounds[i]
        defining.append(tuple(e))
    if n > 1 and stream.random() < 0.4:
        e = tuple(stream.randint(0, b - 1) for b in bounds)
        if sum(e) >= 2:
            defining.append(e)
    return n, defining


def _all_monomials(bounds):
    out = [()]
    for b in bounds:
        out = [e + (k,) for e in out for k in range(b + 1)]
    return [e for e in out if any(e)]


def _rand_monomials(stream, nvars, bounds, count):
    gens = []
    for _ in range(count):
        e = tuple(stream.randint(0, b) for b in bounds)
        if any(e):
            gens.append(e)
    return gens


def _rand_sg_vals(stream, s, count, floor=1):
    hi = floor + s.conductor + s.generators[0]
    pool = [v for v in range(max(1, floor), hi + 1) if v in s]
    return stream.sample(pool, min(count, len(pool)))


# ---------------------------------------------------------------------------
# instance (de)serialization


def _build_ring(inst):
    if inst["family"] == "monomial":
        return QuotientRing(inst["nvars"], inst["defining"])
    return SemigroupRing(tuple(inst["sgens"]))


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


SUITES = {}


def _register(name):
    def deco(pair_factory):
        gen, chk = pair_factory()
        SUITES[name] = Suite(name, gen, chk)
        return pair_factory

    return deco


def _base_instance(cfg, stream):
    """A random ring from one of the families in cfg.backend_mix, as plain data."""
    fam = stream.choice([b for b in ("monomial", "semigroup") if b in cfg.backend_mix] or ["monomial"])
    return _monomial_instance(cfg, stream) if fam == "monomial" else _semigroup_instance(cfg, stream)


def _monomial_instance(cfg, stream):
    n, defining = _draw_artinian_ring(cfg, stream)
    return {
        "family": "monomial",
        "nvars": n,
        "defining": [list(g) for g in defining],
        "bounds": [max(g) for g in defining[:n]],
    }


def _semigroup_instance(cfg, stream):
    return {"family": "semigroup", "sgens": list(stream.choice(_semigroup_pool(cfg)))}


def _rand_ideal_gens(inst, stream, count, allow_power=True):
    """Generator lists for a random nonzero proper ideal as plain data."""
    if inst["family"] == "monomial":
        bounds = inst["bounds"]
        gens = _rand_monomials(stream, inst["nvars"], bounds, count)
        if not gens:
            e = [0] * inst["nvars"]
            e[0] = max(1, bounds[0] - 1)
            gens = [tuple(e)]
        return [list(g) for g in gens]
    s = NumericalSemigroup(inst["sgens"])
    vals = _rand_sg_vals(stream, s, count)
    return sorted(vals)


def _mpow_gens(inst, k):
    ring = _build_ring(inst)
    return [_encode_label(g) for g in ring.mpow(k).min_gens()]


# --- identity and classification suites ------------------------------------


@_register("remark23")
def _suite_remark23():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        m = ring.maximal_ideal()
        mi = m * i
        return True, m * mi.colon(m) == mi

    return gen, chk


@_register("remark22")
def _suite_remark22():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        kind = stream.random()
        if kind < 0.4:
            inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
        elif kind < 0.8:
            j = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
            ring = _build_ring(inst)
            prod = ring.maximal_ideal() * ring.ideal(j)
            inst["ideal"] = [_encode_label(g) for g in prod.min_gens()]
        else:
            inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit():
            return False, True
        m = ring.maximal_ideal()
        mi = m * i
        ll = i.loewy_length()
        cap = int(ll) if ll != INFINITY else 6
        hit = None
        for s in range(cap + 1):
            if i.colon(ring.mpow(s)) == mi.colon(ring.mpow(s + 1)):
                hit = s
                break
        if hit is None:
            return False, True
        ok = all(
            i.colon(ring.mpow(u)) == mi.colon(ring.mpow(u + 1))
            for u in range(hit, hit + 4)
        )
        return True, ok

    return gen, chk


@_register("remark32")
def _suite_remark32():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit():
            return False, True
        rec = remark32_equivalence(i)
        return True, rec.wmf_wrt_colon == rec.burch_or_posdepth

    return gen, chk


@_register("remark37")
def _suite_remark37():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        kind = stream.random()
        if inst["family"] == "monomial":
            if kind < 0.5:
                ideal = gen_mprimary_monomial(cfg, stream, nvars=inst["nvars"])
                inst["ideal"] = [list(g) for g in ideal.gens]
            else:
                inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
        else:
            if kind < 0.5:
                inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
            else:
                inst["ideal"] = _mpow_gens(inst, stream.randint(1, 4))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit() or not i.is_m_primary():
            return False, True
        if burch_via_loewy(i) is not True:
            return False, True
        return True, is_burch(i)

    return gen, chk


@_register("lemma36")
def _suite_lemma36():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        j = ring.ideal(inst["j"])
        if j.is_zero() or j.is_unit() or i.is_zero() or i.is_unit():
            return False, True
        rec = l2_identities(i, j)
        ok = rec.all_hold
        # third part: a unit Loewy jump for (mI : J) certifies Burch
        c = i.colon(j)
        if not j.subset_of(i) and c.is_proper() and c.is_m_primary():
            lhs = (ring.maximal_ideal() * i).colon(j).loewy_length()
            if lhs == c.loewy_length() + 1:
                ok = ok and is_burch(i)
        return True, ok

    return gen, chk


@_register("lemma310")
def _suite_lemma310():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        if inst["family"] == "monomial":
            ideal = gen_mprimary_monomial(cfg, stream, nvars=inst["nvars"])
            inst["ideal"] = [list(g) for g in ideal.gens]
        else:
            inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit() or not i.is_m_primary():
            return False, True
        rec = l3_equivalence(i)
        ok = rec.cond_i == rec.cond_ii == rec.cond_iii
        if rec.cond_iii and rec.witness_s is not None:
            ok = ok and 0 <= rec.witness_s < i.loewy_length()
        return True, ok

    return gen, chk


@_register("lemma213")
def _suite_lemma213():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        inst["kmode"] = stream.choice(["j", "colon", "mix"])
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        j = ring.ideal(inst["j"])
        if j.is_zero() or j.is_unit():
            return False, True
        i = ring.maximal_ideal() * j
        if i.is_zero():
            return False, True
        top = i.colon(ring.maximal_ideal())
        mode = inst["kmode"]
        if mode == "j":
            k = j
        elif mode == "colon":
            k = top
        else:
            k = j + ring.ideal([top.min_gens()[0]])
        rec = lemma213_check(j, k)
        if not rec.applicable:
            return False, True
        return True, rec.all_hold

    return gen, chk


@_register("prop24")
def _suite_prop24():
    def gen(cfg, stream):
        n = stream.randint(2, min(3, cfg.nvars_cap)) if cfg.nvars_cap >= 2 else 1
        raw = gen_mprimary_monomial(cfg, stream, nvars=n)
        closed = integral_closure(raw)
        return {
            "family": "monomial",
            "nvars": n,
            "defining": [],
            "ideal": [list(g) for g in closed.gens],
        }

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit():
            return False, True
        if i.is_integrally_closed() is not True:
            return False, True
        ok = is_weakly_mfull(i)
        for s in range(4):
            ok = ok and is_weakly_mfull_wrt(i, ring.mpow(s))
        return True, ok

    return gen, chk


@_register("prop38")
def _suite_prop38():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        inst["constructed"] = stream.random() < 0.7
        if not inst["constructed"]:
            inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        j = ring.ideal(inst["j"])
        if j.is_zero() or j.is_unit():
            return False, True
        if inst["constructed"]:
            i = ring.maximal_ideal() * j
        else:
            i = ring.ideal(inst["ideal"])
        if i.is_zero() or not i.subset_of(ring.maximal_ideal() * j):
            return False, True
        c = i.colon(j)
        if not (c.is_proper() and c.is_m_primary()):
            return False, True
        if not is_weakly_mfull_wrt(i, j):
            return False, True
        return True, is_burch(i)

    return gen, chk


@_register("prop39")
def _suite_prop39():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        kind = stream.random()
        if inst["family"] == "monomial" and kind < 0.4:
            ideal = gen_mprimary_monomial(cfg, stream, nvars=inst["nvars"])
            inst["ideal"] = [list(g) for g in ideal.gens]
        elif kind < 0.7:
            j = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
            ring = _build_ring(inst)
            prod = ring.maximal_ideal() * ring.ideal(j)
            inst["ideal"] = [_encode_label(g) for g in prod.min_gens()]
        else:
            inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit() or not i.is_m_primary():
            return False, True
        ll = int(i.loewy_length())
        witness = None
        for s in range(ll):
            if is_weakly_mfull_wrt(i, ring.mpow(s)):
                witness = s
                break
        if witness is None:
            return False, True
        return True, is_burch(i)

    return gen, chk


# --- homological suites -----------------------------------------------------


def _socle_gens(ring):
    return ring.ctx.socle()


def _module_kinds(stream):
    r = stream.random()
    if r < 0.2:
        return "free"
    if r < 0.6:
        return "socle"
    return "random"


def _decode_premise_module(inst, ring, algebra):
    """Module described by an instance: free / cyclic R mod yR / random."""
    kind = inst["mkind"]
    if kind == "free":
        return free_presentation(algebra, tuple(inst["mshifts"]))
    if kind == "socle":
        y = tuple(inst["socle_gen"])
        return cyclic_presentation(algebra, ring.ideal([y]))
    return _decode_module(algebra, inst["module"])


def _attach_premise_module(inst, cfg, stream, ring, algebra, i):
    kind = _module_kinds(stream)
    if kind == "socle" and inst["family"] == "monomial":
        options = [y for y in _socle_gens(ring) if not i.member(y)]
        if options:
            inst["mkind"] = "socle"
            inst["socle_gen"] = list(stream.choice(options))
            inst["t"] = 1
            return
    if kind == "free":
        inst["mkind"] = "free"
        inst["mshifts"] = sorted(stream.randint(0, 2) for _ in range(stream.randint(1, 2)))
        inst["t"] = stream.randint(1, 2)
        return
    inst["mkind"] = "random"
    inst["module"] = _encode_module(gen_module(cfg, ring, stream, algebra))
    inst["t"] = stream.randint(1, 2)


@_register("thm28")
def _suite_thm28():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        ring = _build_ring(inst)
        j = ring.ideal(inst["j"])
        if j.is_zero() or j.is_unit():
            return None
        i = ring.maximal_ideal() * j
        if i.is_zero():
            return None
        algebra = GradedAlgebra(ring)
        _attach_premise_module(inst, cfg, stream, ring, algebra, i)
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        j = ring.ideal(inst["j"])
        if j.is_zero() or j.is_unit():
            return False, True
        i = ring.maximal_ideal() * j
        if i.is_zero():
            return False, True
        algebra = GradedAlgebra(ring)
        pres = _decode_premise_module(inst, ring, algebra)
        t = inst["t"]
        tor = tor_dim(pres, i, t)
        # hypotheses are guaranteed by the I = mJ construction, but the
        # engine must agree with the arithmetic facts behind them
        hyp = (
            i.subset_of(ring.maximal_ideal() * j)
            and i.colon(j).is_m_primary()
            and is_weakly_mfull_wrt(i, j)
        )
        if inst["mkind"] == "random":
            if tor.total_dim:
                return False, True
            return True, hyp and annihilates(j, pres, t)
        ok = hyp and tor.total_dim == 0 and annihilates(j, pres, t)
        return True, ok

    return gen, chk


@_register("cor215")
def _suite_cor215():
    def gen(cfg, stream):
        inst = _base_instance(cfg, stream)
        inst["part"] = stream.choice(["i", "ii"])
        if inst["part"] == "ii":
            inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
            ring = _build_ring(inst)
            j = ring.ideal(inst["j"])
            if j.is_zero() or j.is_unit():
                return None
            i = ring.maximal_ideal() * j
        else:
            inst["ideal"] = _mpow_gens(inst, stream.randint(1, 3))
            ring = _build_ring(inst)
            i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit():
            return None
        algebra = GradedAlgebra(ring)
        _attach_premise_module(inst, cfg, stream, ring, algebra, i)
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        if inst["part"] == "ii":
            j = ring.ideal(inst["j"])
            if j.is_zero() or j.is_unit():
                return False, True
            i = ring.maximal_ideal() * j
            killer = i.colon(ring.maximal_ideal())
        else:
            i = ring.ideal(inst["ideal"])
            if i.is_zero() or i.is_unit() or not i.is_m_primary():
                return False, True
            witness = None
            for s in range(int(i.loewy_length())):
                if i.subset_of(ring.mpow(s + 1)) and is_weakly_mfull_wrt(i, ring.mpow(s)):
                    witness = s
                    break
            if witness is None:
                return False, True
            killer = ring.mpow(witness)
        if i.is_zero():
            return False, True
        algebra = GradedAlgebra(ring)
        pres = _decode_premise_module(inst, ring, algebra)
        t = inst["t"]
        tor = tor_dim(pres, i, t)
        if inst["mkind"] == "random":
            if tor.total_dim:
                return False, True
            return True, annihilates(killer, pres, t)
        return True, tor.total_dim == 0 and annihilates(killer, pres, t)

    return gen, chk


@_register("thm25")
def _suite_thm25():
    def gen(cfg, stream):
        inst = _monomial_instance(cfg, stream)
        ring = _build_ring(inst)
        ll = int(ring.zero_ideal().loewy_length())
        if ll < 2:
            return None
        inst["jpow"] = stream.randint(max(1, ll - 2), ll - 1)
        ring_m = ring.maximal_ideal()
        u = ring_m * ring.mpow(inst["jpow"]).colon(ring_m)
        soc = ring.ideal(list(_socle_gens(ring)))
        if soc.is_zero() or not soc.subset_of(u):
            return None
        extras = [g for g in u.min_gens() if stream.random() < 0.5]
        inst["ideal"] = [list(g) for g in soc.min_gens() + tuple(extras)]
        algebra = GradedAlgebra(ring)
        if stream.random() < 0.75:
            inst["mkind"] = "random"
            inst["module"] = _encode_module(gen_module(cfg, ring, stream, algebra))
        else:
            inst["mkind"] = "free"
            inst["mshifts"] = sorted(stream.randint(0, 2) for _ in range(stream.randint(1, 2)))
        inst["t"] = stream.randint(1, 2)
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        j = ring.mpow(inst["jpow"])
        if j.is_zero() or j.is_unit():
            return False, True
        i = ring.ideal(inst["ideal"])
        ring_m = ring.maximal_ideal()
        u = ring_m * j.colon(ring_m)
        soc = ring.ideal(list(_socle_gens(ring)))
        if not (soc.subset_of(i) and i.subset_of(u)) or i.is_unit():
            return False, True
        algebra = GradedAlgebra(ring)
        pres = _decode_premise_module(inst, ring, algebra)
        t = inst["t"]
        if not annihilates(j, pres, t):
            return False, True
        res = resolve(pres, t)
        if res.rank(t) == 0:
            # projective dimension below t: contrapositive says nothing
            return False, True
        tor = tor_dim(pres, i, t)
        return True, tor.total_dim > 0

    return gen, chk


@_register("prop26")
def _suite_prop26():
    def gen(cfg, stream):
        if cfg.nvars_cap < 2:
            return None
        n = 3 if (cfg.nvars_cap >= 3 and stream.random() < 0.2) else 2
        per = max(2, min(4, cfg.degree_cap // n))
        bounds = [stream.randint(2, per) for _ in range(n)]
        defining = []
        for i in range(n):
            e = [0] * n
            e[i] = bounds[i]
            defining.append(tuple(e))
        # cut a staircase corner so the socle needs two generators
        cut = [0] * n
        cut[0] = stream.randint(1, bounds[0] - 1)
        cut[1] = stream.randint(1, bounds[1] - 1)
        defining.append(tuple(cut))
        inst = {
            "family": "monomial",
            "nvars": n,
            "defining": [list(g) for g in defining],
            "bounds": bounds,
        }
        ring = _build_ring(inst)
        soc = sorted(_socle_gens(ring))
        if len(soc) < 2:
            return None
        y = stream.choice(soc)
        amb = MonomialIdeal(n, [tuple(g) for g in defining])
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

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit():
            return False, True
        options = [y for y in _socle_gens(ring) if not i.member(y)]
        if not options:
            return False, True
        y = options[0]
        algebra = GradedAlgebra(ring)
        pres = cyclic_presentation(algebra, ring.ideal([y]))
        tor1 = tor_dim(pres, i, 1)
        tor2 = tor_dim(pres, i, 2)
        res = resolve(pres, 3)
        never_free = res.rank(3) > 0
        return True, tor1.total_dim == 0 and tor2.total_dim > 0 and never_free

    return gen, chk


@_register("btor33")
def _suite_btor33():
    def gen(cfg, stream):
        inst = _monomial_instance(cfg, stream)
        if stream.random() < 0.7:
            inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        else:
            inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        ring = _build_ring(inst)
        algebra = GradedAlgebra(ring)
        if stream.random() < 0.25:
            inst["mkind"] = "free"
            inst["mshifts"] = sorted(stream.randint(0, 2) for _ in range(stream.randint(1, 2)))
        else:
            inst["mkind"] = "random"
            inst["module"] = _encode_module(gen_module(cfg, ring, stream, algebra))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        if "j" in inst:
            j = ring.ideal(inst["j"])
            if j.is_zero() or j.is_unit():
                return False, True
            i = ring.maximal_ideal() * j
        else:
            i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit() or not is_burch(i):
            return False, True
        algebra = GradedAlgebra(ring)
        pres = _decode_premise_module(inst, ring, algebra)
        tor1 = tor_dim(pres, i, 1).total_dim
        tor2 = tor_dim(pres, i, 2).total_dim
        if inst["mkind"] == "free" or is_free(pres):
            return True, tor1 == 0 and tor2 == 0
        # non-free over an Artinian ring: infinite projective dimension,
        # so consecutive vanishing would contradict the bound pd <= t
        return True, not (tor1 == 0 and tor2 == 0)

    return gen, chk


@_register("cor210")
def _suite_cor210():
    def gen(cfg, stream):
        inst = _semigroup_instance(cfg, stream)
        inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        s = NumericalSemigroup(inst["sgens"])
        kind = stream.random()
        if kind < 0.25:
            inst["mkind"] = "free"
            inst["mshifts"] = sorted(stream.randint(0, 2) for _ in range(stream.randint(1, 2)))
        elif kind < 0.6:
            inst["mkind"] = "cyclic"
            inst["mval"] = _rand_sg_vals(stream, s, 1)[0]
        else:
            inst["mkind"] = "ideal"
            inst["mivals"] = _rand_sg_vals(stream, s, stream.randint(1, 3))
        inst["t"] = stream.randint(1, 2)
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        j = ring.ideal(inst["j"])
        if j.is_zero() or j.is_unit():
            return False, True
        i = ring.maximal_ideal() * j
        if i.is_zero() or not is_weakly_mfull_wrt(i, j):
            return False, True
        algebra = GradedAlgebra(ring)
        if inst["mkind"] == "free":
            pres = free_presentation(algebra, tuple(inst["mshifts"]))
        elif inst["mkind"] == "cyclic":
            pres = cyclic_presentation(algebra, ring.ideal([inst["mval"]]))
        else:
            from .homalg import module_from_ideal

            pres, _ = module_from_ideal(algebra, ring.ideal(inst["mivals"]))
        t = inst["t"]
        tor = tor_dim(pres, i, t)
        res = resolve(pres, t)
        # vanishing at stage t forces the minimal resolution to stop
        ok = tor.total_dim > 0 or res.rank(t) == 0
        if inst["mkind"] == "free":
            ok = ok and tor.total_dim == 0
        elif inst["mkind"] == "cyclic":
            # pd R/fR = 1 over a domain, and f is a zerodivisor on R/I
            tor1 = tor_dim(pres, i, 1)
            tor2 = tor_dim(pres, i, 2)
            ok = ok and tor1.total_dim > 0 and tor2.total_dim == 0
        elif not is_free(pres):
            # non-principal ideal module: infinite projective dimension,
            # so the rigidity above forces nonzero Tor at every stage
            ok = ok and tor.total_dim > 0
        return True, ok

    return gen, chk


@_register("cor214")
def _suite_cor214():
    def gen(cfg, stream):
        inst = _semigroup_instance(cfg, stream)
        kind = stream.random()
        if kind < 0.4:
            inst["ideal"] = _mpow_gens(inst, stream.randint(1, 4))
        elif kind < 0.7:
            j = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
            ring = _build_ring(inst)
            prod = ring.maximal_ideal() * ring.ideal(j)
            inst["ideal"] = sorted(prod.min_gens())
        else:
            inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(1, 3))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        i = ring.ideal(inst["ideal"])
        if i.is_zero() or i.is_unit():
            return False, True
        classes = cor214_classify(i)
        if not classes:
            return False, True
        frac = FractionalSemigroupIdeal(ring.S, i.relset)
        verdict = hw_has_torsion(frac)
        return True, verdict.has_torsion and verdict.certified

    return gen, chk


@_register("hw12")
def _suite_hw12():
    def gen(cfg, stream):
        inst = _semigroup_instance(cfg, stream)
        r = stream.random()
        if r < 0.25:
            inst["kind"] = "control"
            s = NumericalSemigroup(inst["sgens"])
            inst["ideal"] = _rand_sg_vals(stream, s, 1)
        elif r < 0.8:
            inst["kind"] = "constructed"
            inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        else:
            inst["kind"] = "sampled"
            inst["ideal"] = _rand_ideal_gens(inst, stream, stream.randint(2, 3))
            inst["j"] = _rand_ideal_gens(inst, stream, stream.randint(1, 2))
        return inst

    def chk(inst):
        ring = _build_ring(inst)
        s = ring.S
        tag = "hypring:%s" % ",".join(str(g) for g in inst["sgens"])
        if inst["kind"] == "control":
            frac = FractionalSemigroupIdeal(s, inst["ideal"])
            verdict = hw_has_torsion(frac)
            ok = not verdict.has_torsion and verdict.tor1_dim == 0 and verdict.certified
            return True, ok, ("control",)
        if inst["kind"] == "constructed":
            j = ring.ideal(inst["j"])
            if j.is_zero() or j.is_unit():
                return False, True, ()
            i = ring.maximal_ideal() * j
        else:
            i = ring.ideal(inst["ideal"])
            j = ring.ideal(inst["j"])
            if j.is_zero() or j.is_unit():
                return False, True, ()
        if i.is_zero():
            return False, True, ()
        frac_i = FractionalSemigroupIdeal(s, i.relset)
        frac_j = FractionalSemigroupIdeal(s, j.relset)
        rep = hw_report(frac_i, frac_j)
        if not rep.hypotheses_hold:
            return False, True, ()
        return True, rep.has_torsion and rep.certified, ("hypothesis", tag)

    return gen, chk


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
    """(effective, ok, tags, exception) of one check.

    A check that raises convicts the engine on that instance: the trial
    counts as an effective failure and the exception comes back.
    """
    try:
        out = check(inst)
    except Exception as exc:
        return True, False, (), exc
    if len(out) == 2:
        eff, ok = out
        return eff, ok, (), None
    eff, ok, tags = out
    return eff, ok, tags, None


def shrink_instance(check, inst, error=None):
    """Greedy minimization: drop generators and lower entries, re-test.

    A candidate is kept only if it fails the same way: with `error`
    None, an effective trial whose check returns not-ok; otherwise a
    check that raises an exception of the same type as `error`.
    """

    def still_fails(cand):
        eff, ok, _, exc = _outcome(check, cand)
        if error is not None:
            return type(exc) is type(error)
        return exc is None and eff and not ok

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
        if key == "module":
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
    tags = {}
    # trials draw small rings from fixed pools, so syzygies recur
    with kernel_memo():
        for index in range(cfg.trials):
            stream = trial_rng(cfg, index)
            inst = suite.generate(cfg, stream)
            if inst is None:
                continue
            eff, ok, tag_list, exc = _outcome(suite.check, inst)
            if not eff:
                continue
            effective += 1
            for tag in tag_list:
                tags[tag] = tags.get(tag, 0) + 1
            if not ok:
                failures += 1
                if counterexample is None:
                    counterexample = shrink_instance(suite.check, inst, exc)
                    if exc is not None:
                        # report the exception the shrunk instance raises
                        exc = _outcome(suite.check, counterexample)[3] or exc
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

    A check that raises gives (True, False), as it does in run_suite.
    """
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError("unknown suite: %s" % name)
    eff, ok, _, _ = _outcome(suite.check, inst)
    return eff, ok


def suite_names():
    return tuple(sorted(SUITES))
