"""Seeded suites: determinism, shrinking, generator quality bands."""

import gc
import hashlib
import json

import pytest

from burchkit import cli, fuzz, homalg, linalg, monomial, semigroup
from burchkit.fuzz import (
    SUITES,
    _decode_module,
    FuzzConfig,
    Suite,
    gen_module,
    gen_mprimary_monomial,
    replay_instance,
    run_suite,
    shrink_instance,
    suite_names,
    trial_rng,
)
from burchkit.homalg import GradedAlgebra, is_free
from burchkit.monomial import integral_closure
from burchkit.rings import QuotientRing, SemigroupRing
from burchkit.semigroup import NumericalSemigroup

ALL_SUITES = (
    "btor33",
    "cor210",
    "cor214",
    "cor215",
    "hw12",
    "lemma213",
    "lemma310",
    "lemma36",
    "prop24",
    "prop26",
    "prop38",
    "prop39",
    "remark22",
    "remark23",
    "remark32",
    "remark37",
    "thm25",
    "thm28",
)


def test_suite_names_complete():
    assert suite_names() == ALL_SUITES


def test_all_suites_pass_a_smoke_run():
    cfg = FuzzConfig(seed=11, trials=25)
    for name in ALL_SUITES:
        report = run_suite(name, cfg)
        assert report.passed, (name, report.counterexample)
        assert report.failures == 0
        assert report.trials == 25


def test_reports_are_deterministic():
    cfg = FuzzConfig(seed=97, trials=40)
    a = run_suite("lemma36", cfg)
    b = run_suite("lemma36", cfg)
    assert a.to_json() == b.to_json()
    c = run_suite("lemma36", FuzzConfig(seed=98, trials=40))
    # a different seed reaches different instances
    assert c.seed != a.seed


def test_report_json_round_trip():
    report = run_suite("remark23", FuzzConfig(seed=11, trials=20))
    decoded = json.loads(report.to_json())
    assert decoded["suite"] == "remark23"
    assert decoded["trials"] == 20
    assert decoded["passed"] is True
    assert decoded["effective"] == report.effective


def test_zero_trials_report_is_vacuous():
    report = run_suite("remark23", FuzzConfig(seed=11, trials=0))
    assert report.vacuous
    assert report.passed
    assert report.effective == 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nosuchsuite")
    with pytest.raises(ValueError):
        replay_instance("nosuchsuite", {})


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(trials=-1)
    with pytest.raises(ValueError):
        FuzzConfig(seed=-1)
    with pytest.raises(ValueError):
        FuzzConfig(seed=2**64)


def test_trial_rng_streams_are_independent():
    cfg = FuzzConfig(seed=5)
    a = trial_rng(cfg, 0).random()
    b = trial_rng(cfg, 1).random()
    assert a != b
    assert trial_rng(cfg, 0).random() == a


def test_monomial_generator_hits_integrally_closed_ideals():
    cfg = FuzzConfig(seed=11)
    closed = 0
    for k in range(500):
        i = gen_mprimary_monomial(trial_rng(cfg, k), nvars=2)
        assert i.is_zero() is False and i.is_unit() is False
        if integral_closure(i) == i:
            closed += 1
    # the corpus must keep real mass on the integrally closed class
    assert closed >= 50


def test_module_generator_band_over_monomial_ring():
    cfg = FuzzConfig(seed=11)
    ring = QuotientRing(2, [(3, 0), (1, 2), (0, 3)])
    nonfree = 0
    for k in range(300):
        pres = gen_module(ring, trial_rng(cfg, k))
        assert pres.map.is_minimal
        if not is_free(pres):
            nonfree += 1
    assert 150 <= nonfree <= 285


def test_module_generator_band_over_semigroup_ring():
    cfg = FuzzConfig(seed=11)
    ring = SemigroupRing((4, 5, 6))
    nonfree = 0
    for k in range(300):
        pres = gen_module(ring, trial_rng(cfg, k))
        assert pres.map.is_minimal
        if not is_free(pres):
            nonfree += 1
    assert 150 <= nonfree <= 285


def test_replay_agrees_with_generation():
    cfg = FuzzConfig(seed=11, trials=30)
    suite = SUITES["remark23"]
    replayed = 0
    for k in range(30):
        inst = suite.generate(trial_rng(cfg, k))
        if inst is None:
            continue
        eff, ok = replay_instance("remark23", inst)
        if eff:
            assert ok
            replayed += 1
    assert replayed >= 5


def test_shrinker_minimizes_a_synthetic_failure():
    # fails whenever the first generator list is nonempty
    def check(inst):
        return not inst["gens"]

    inst = {"gens": [[2, 1], [1, 2], [1, 1]], "bounds": [3, 3]}
    small = shrink_instance(check, inst)
    assert check(small) is False
    assert len(small["gens"]) == 1
    total = sum(sum(g) for g in small["gens"])
    assert total <= 2


def test_shrinker_keeps_failures_that_cannot_shrink():
    def check(inst):
        # only the exact original fails
        return inst["gens"] != [[2, 2]]

    inst = {"gens": [[2, 2]]}
    small = shrink_instance(check, inst)
    assert small == inst


# SHA-256 of SuiteReport.to_json() per suite at seed 20240819 with 60
# trials, taken while graded maps still stored dense columns; any change
# of representation that moves a report fails here
_REPORT_DIGESTS = {
    "btor33": "db41adc07bbe6e2ef4c5d8fb9d0972db5b8d678017d22b4956da527b00cf6c18",
    "cor210": "07feb489777b01f445045e24770d0ca4c886c9058c3636100dca6300c46038a0",
    "cor214": "1c0b24544e8772f09f8674d8c34b1c2932e73280a369bf951c2abe03b9ea32ea",
    "cor215": "9aa26e53e2ece911872c808ac030251adbf9de6fddf87c879298af3bfcd68982",
    "hw12": "d70a6d683d2707f76cdc57304660cffa66e90d9b1fa856c53df486cf186a68ed",
    "lemma213": "653cd9e2e94a278c84b5d46b25963f3c6c3569dae8beb446e6fc183825ef0ca5",
    "lemma310": "5eab39d43bcc7888d28f68d23ee7f0b2f579f111117271b5b52786e1ccf7d64f",
    "lemma36": "bede0d6d87278b1cd45341a43296749031a418e849c55375d2009e7b05185e24",
    "prop24": "f73d3dc6f03674ed7e6ef678efb7d617721e063631e8d3f344c613fa97699d27",
    "prop26": "59121d4483d07cf31b7ab458f83324f91764b7c7e51a4676e70ea0a1d8a244db",
    "prop38": "c644c4ec23281e6946a6262ca4c5d891fc104797d686701df6bcfc8f50788e95",
    "prop39": "7435f75403d4e3f15278286a386fa212e9b022470395549844d9509f07542251",
    "remark22": "fddd241fd5a555a64cfc0c333ce4d5eaa7d368bbf3357e8c3c4feafe611aaa14",
    "remark23": "3d650e0dac7f218c3ecd3f338e36f1cbe9ae1438eb9a7b9726c6caff9ee4ae88",
    "remark32": "61fd6ff7efd38adbc23d6661e7c3155df70e0b1ff592ce5b225269ce241ba65e",
    "remark37": "5add87cf1cd633d34eb65265e95f094d73426a3f387c0c854f758fc0b78003e2",
    "thm25": "69f0e25ca8374d97b868da3bd5e2c7405281723f2365455afed10ab2d9880f5d",
    "thm28": "7e7e37c29a9996ac4d1a1594716905d60229097495a1afb1cf3808ae1f596df9",
}


def test_suite_reports_are_pinned():
    cfg = FuzzConfig(seed=20240819, trials=60)
    got = {
        name: hashlib.sha256(run_suite(name, cfg).to_json().encode()).hexdigest()
        for name in ALL_SUITES
    }
    assert got == _REPORT_DIGESTS


# SHA-256 over the suites in name order and trials 0..59 at seed
# 20240819 of json.dumps([instance, replay verdict], sort_keys=True) plus
# a newline per trial, both null when the generator returns None. While
# every suite passes the reports hold no instance, so this pin is what
# catches a generator that draws or builds differently
_INSTANCE_DIGEST = "5a06af5096808c08d4d39140c89a72a7bdd5a739d19ed2dd07afe8236184900f"


def test_generated_instances_are_pinned():
    cfg = FuzzConfig(seed=20240819, trials=60)
    h = hashlib.sha256()
    with homalg.kernel_memo():
        for name in ALL_SUITES:
            for k in range(cfg.trials):
                inst = SUITES[name].generate(trial_rng(cfg, k))
                verdict = None
                if inst is not None:
                    verdict = list(replay_instance(name, inst))
                    # a stored instance replays like the generated one
                    stored = json.loads(json.dumps(inst))
                    assert list(replay_instance(name, stored)) == verdict, (name, k)
                h.update((json.dumps([inst, verdict], sort_keys=True) + "\n").encode())
    assert h.hexdigest() == _INSTANCE_DIGEST


def _raise_on_two_or_more(monkeypatch):
    """Make remark23's check raise on ideals with at least two generators."""
    real = SUITES["remark23"]

    def check(inst):
        if len(inst["ideal"]) >= 2:
            raise ZeroDivisionError("%d generators" % len(inst["ideal"]))
        return real.check(inst)

    monkeypatch.setitem(SUITES, "remark23", Suite("remark23", real.generate, check))


def test_raising_check_becomes_a_shrunk_counterexample(monkeypatch):
    cfg = FuzzConfig(seed=11, trials=40)
    clean = run_suite("remark23", cfg)
    _raise_on_two_or_more(monkeypatch)
    report = run_suite("remark23", cfg)
    assert not report.passed
    assert report.failures > 0
    # raising trials count as effective failures, the others as before
    assert report.effective == clean.effective
    cx = report.counterexample
    assert cx["error"] == {"type": "ZeroDivisionError", "message": "2 generators"}
    # shrunk down to the smallest instance that still raises
    assert len(cx["ideal"]) == 2
    assert replay_instance("remark23", cx) == (True, False)
    json.loads(report.to_json())


def _trial_instances(name, cfg):
    """The instances of the trials whose generator returns one, by repr."""
    out = []
    for k in range(cfg.trials):
        inst = SUITES[name].generate(trial_rng(cfg, k))
        if inst is not None:
            out.append(repr(inst))
    return out


def _wrap_check(monkeypatch, name, check):
    real = SUITES[name]
    monkeypatch.setitem(SUITES, name, Suite(name, real.generate, check, real.tags))
    return real


@pytest.mark.parametrize("name", ["prop24", "cor214", "prop26", "hw12"])
def test_suite_run_checks_each_distinct_instance_once(monkeypatch, name):
    cfg = FuzzConfig(seed=11, trials=60)
    plain = run_suite(name, cfg).to_json()
    instances = _trial_instances(name, cfg)
    assert len(set(instances)) < len(instances)  # the run repeats some
    calls = []

    def counting(inst):
        calls.append(repr(inst))
        return real.check(inst)

    real = _wrap_check(monkeypatch, name, counting)
    assert run_suite(name, cfg).to_json() == plain
    assert sorted(calls) == sorted(set(instances))


@pytest.mark.parametrize("name", ["prop24", "cor214"])
@pytest.mark.parametrize("convict", [False, True])
def test_memoized_verdicts_count_every_trial(monkeypatch, name, convict):
    # effective and failures recounted trial by trial with replay_instance;
    # with convict, every other distinct effective instance fails, so
    # stored false verdicts must count once per repeat too
    cfg = FuzzConfig(seed=11, trials=60)
    if convict:

        def check(inst):
            verdict = real.check(inst)
            return verdict and len(repr(inst)) % 2 == 0

        real = _wrap_check(monkeypatch, name, check)
    report = run_suite(name, cfg)
    replays = [
        replay_instance(name, inst)
        for inst in (SUITES[name].generate(trial_rng(cfg, k)) for k in range(cfg.trials))
        if inst is not None
    ]
    assert report.effective == sum(effective for effective, _ in replays)
    assert report.failures == sum(effective and not ok for effective, ok in replays)
    assert (report.failures > 0) == convict


def test_raising_check_is_called_on_every_repeat(monkeypatch):
    # prop24's most repeated instance raises: each of its trials is one
    # effective failure, and none is answered from the verdict memo
    cfg = FuzzConfig(seed=11, trials=60)
    clean = run_suite("prop24", cfg)
    instances = _trial_instances("prop24", cfg)
    bad = max(set(instances), key=instances.count)
    repeats = instances.count(bad)
    assert repeats > 1
    calls = {"n": 0}

    def check(inst):
        if repr(inst) == bad:
            calls["n"] += 1
            raise ZeroDivisionError("repeated")
        return real.check(inst)

    real = _wrap_check(monkeypatch, "prop24", check)
    report = run_suite("prop24", cfg)
    assert report.failures == repeats
    assert report.effective == clean.effective
    assert report.counterexample["error"] == {"type": "ZeroDivisionError", "message": "repeated"}
    # one call per trial, and one more for the error of the reported
    # instance (no smaller candidate raises, so it is its own shrink)
    assert calls["n"] == repeats + 1


def _count_nullspace(monkeypatch):
    count = {"n": 0}
    real = linalg.nullspace

    def counting(*args):
        count["n"] += 1
        return real(*args)

    monkeypatch.setattr(linalg, "nullspace", counting)
    return count


def test_run_suite_drops_its_kernel_memo(monkeypatch):
    ring = SemigroupRing((4, 5, 6))
    pres = homalg.cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal())
    count = _count_nullspace(monkeypatch)
    run_suite("thm28", FuzzConfig(seed=11, trials=20))
    assert homalg._kernel_memo is None
    # a check that raises leaves the scope by the exception path
    seen = []
    _raise_on_two_or_more(monkeypatch)
    real = SUITES["remark23"].check

    def check(inst):
        seen.append(homalg._kernel_memo is not None)
        homalg.kernel_minimal_gens(pres.map)
        return real(inst)

    monkeypatch.setitem(SUITES, "remark23", Suite("remark23", SUITES["remark23"].generate, check))
    report = run_suite("remark23", FuzzConfig(seed=11, trials=40))
    assert report.counterexample["error"]["type"] == "ZeroDivisionError"
    assert seen and all(seen)
    assert homalg._kernel_memo is None
    count["n"] = 0
    homalg.kernel_minimal_gens(pres.map)
    assert count["n"] > 0


def test_suite_run_computes_fewer_kernels_than_asked(monkeypatch):
    asked = {"n": 0}
    computed = {"n": 0}
    public, private = homalg.kernel_minimal_gens, homalg._kernel_minimal_gens

    def asking(*args):
        asked["n"] += 1
        return public(*args)

    def computing(*args):
        computed["n"] += 1
        return private(*args)

    monkeypatch.setattr(homalg, "kernel_minimal_gens", asking)
    monkeypatch.setattr(homalg, "_kernel_minimal_gens", computing)
    report = run_suite("prop26", FuzzConfig(seed=7, trials=40))
    assert report.passed
    assert 0 < computed["n"] < asked["n"]
    # outside the scope every call computes
    asked["n"] = computed["n"] = 0
    ring = SemigroupRing((4, 5, 6))
    pres = homalg.cyclic_presentation(GradedAlgebra(ring), ring.maximal_ideal())
    homalg.resolve(pres, 3)
    homalg.resolve(pres, 3)
    assert computed["n"] == asked["n"] == 4


def test_fuzz_cli_exits_1_on_a_raising_check(monkeypatch, capsys):
    _raise_on_two_or_more(monkeypatch)
    code = cli.main(["fuzz", "--suite", "remark23", "--trials", "40", "--seed", "11"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False
    assert out["counterexample"]["error"]["type"] == "ZeroDivisionError"


def test_shrinker_keeps_only_the_same_failure():
    def check(inst):
        n = len(inst["gens"])
        if n == 1:
            raise KeyError("one")
        if n == 2:
            raise ZeroDivisionError("two")
        return False

    # a raising failure shrinks only through the same exception type
    small = shrink_instance(check, {"gens": [[1], [1], [1]]}, ZeroDivisionError("two"))
    assert small == {"gens": [[0], [0]]}
    # a plain failure never shrinks into a raising candidate
    small = shrink_instance(check, {"gens": [[1], [1], [1], [1]]})
    assert len(small["gens"]) == 3


def test_decoded_entries_are_reduced_mod_p():
    # a hand-edited counterexample can carry coefficients that vanish mod p
    alg = GradedAlgebra(QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)]))
    pres = _decode_module(alg, {"tshifts": [0], "sshifts": [0], "cols": [[[0, [0, 0], 101]]]})
    assert pres.map.elts == ({},)
    assert pres.map.is_zero() and pres.map.is_minimal
    data = {"tshifts": [0, 1], "sshifts": [1], "cols": [[[0, [1, 0], 203], [1, [0, 0], 202]]]}
    pres = _decode_module(alg, data)
    assert pres.map.elts == ({(0, (1, 0)): 1},)
    assert pres.map.is_minimal


def test_suites_leave_no_ring_for_the_collector():
    # a ring or semigroup that keeps its powers of m as ideals pointing
    # back at it is a reference cycle, freed only by a full collection
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in ("prop24", "hw12"):
            run_suite(name, FuzzConfig(seed=20240819, trials=40))
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        freed = [o for o in gc.garbage if isinstance(o, (QuotientRing, NumericalSemigroup))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert freed == []


# bounded caches kept across suite runs: fuzz rings, colons, products
# and integral closures
PROCESS_CACHES = (
    fuzz._shared_ring,
    monomial._closure,
    monomial._colon,
    monomial._product,
    semigroup._colon,
    semigroup._sum,
)


def test_process_caches_are_bounded():
    for cache in PROCESS_CACHES:
        assert 0 < cache.cache_info().maxsize <= 512, cache


def test_warm_and_cleared_caches_give_the_same_reports():
    cfg = FuzzConfig(seed=20240819, trials=100)

    def reports():
        return [run_suite(name, cfg).to_json() for name in ("remark22", "cor214", "thm28")]

    first = reports()
    assert all(json.loads(r)["effective"] > 0 for r in first)
    assert reports() == first
    for cache in PROCESS_CACHES:
        cache.cache_clear()
    assert reports() == first


def test_build_ring_shares_one_ring_per_description():
    mono = {"family": "monomial", "nvars": 2, "defining": [[2, 0], [0, 3]], "bounds": [2, 3]}
    ring = fuzz._build_ring(mono)
    assert fuzz._build_ring(json.loads(json.dumps(mono))) is ring
    assert fuzz._build_ring({**mono, "defining": [[2, 0], [0, 4]]}) is not ring
    assert fuzz._build_ring({**mono, "nvars": 3, "defining": [[2, 0, 0], [0, 3, 0]]}) is not ring
    sg = fuzz._build_ring({"family": "semigroup", "sgens": [4, 5, 6]})
    assert fuzz._build_ring({"family": "semigroup", "sgens": [4, 5, 6]}) is sg
    assert fuzz._build_ring({"family": "semigroup", "sgens": [4, 5, 7]}) is not sg
    assert ring == QuotientRing(2, [(2, 0), (0, 3)])
    assert sg == SemigroupRing((4, 5, 6))
