"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Criterion 5 pins the residue-field Betti numbers over k[x,y]/(x,y)^3 to
(1, 2, 5).  The value is fixed by hand, not by the engine: the first
syzygy of m = (x, y) has one Koszul generator in degree 2 and needs four
more in degree 3, and the Golod Poincare series
(1+t)^2 / (1 - 4t^2 - 3t^3) = 1 + 2t + 5t^2 + 11t^3 + ... agrees.
tests/test_poincare.py checks deeper ranks against that series.
"""

import random
import time

from burchkit.fixtures import EXAMPLES, run_example
from burchkit.fuzz import FuzzConfig, run_suite
from burchkit.homalg import (
    GradedAlgebra,
    audit_resolution,
    cyclic_presentation,
    module_from_ideal,
    resolve,
    tor_dim,
)
from burchkit.rings import QuotientRing, SemigroupRing

from oracles import check_monomial_instance, check_semigroup_instance

SEED = 20240819

SUITE_TRIALS = {
    "prop24": 500,
    "thm25": 500,
    "prop26": 500,
    "thm28": 700,
    "lemma213": 500,
    "remark22": 500,
    "remark23": 500,
    "remark32": 500,
    "btor33": 500,
    "lemma36": 500,
    "remark37": 500,
    "prop38": 500,
    "prop39": 500,
    "lemma310": 500,
    "cor215": 500,
}


def _verdict(num, name, problems):
    status = "PASS" if not problems else "FAIL"
    print("criterion %d (%s): %s" % (num, name, status))
    assert not problems, "\n".join(problems)


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    tables = {name: run_example(name) for name in EXAMPLES}
    elapsed = time.perf_counter() - t0
    problems = [
        "%s: %s" % (name, claim)
        for name, claims in tables.items()
        for claim, ok in claims
        if not ok
    ]
    if len(tables) != 6:
        problems.append("expected 6 example tables, got %d" % len(tables))
    if elapsed >= 10.0:
        problems.append("examples took %.1fs, budget 10s" % elapsed)
    _verdict(1, "worked examples", problems)


def test_criterion_2_theorem_suites():
    problems = []
    for name, trials in sorted(SUITE_TRIALS.items()):
        t0 = time.perf_counter()
        report = run_suite(name, FuzzConfig(seed=SEED, trials=trials))
        elapsed = time.perf_counter() - t0
        if not report.passed:
            problems.append(
                "%s failed: %r" % (name, report.counterexample)
            )
        if report.effective < 200:
            problems.append(
                "%s effective %d < 200" % (name, report.effective)
            )
        if report.vacuous:
            problems.append("%s vacuous" % name)
        if elapsed >= 60.0:
            problems.append("%s took %.1fs, budget 60s" % (name, elapsed))
    _verdict(2, "theorem suites", problems)


def test_criterion_3_torsion_family():
    report = run_suite("hw12", FuzzConfig(seed=SEED, trials=120))
    problems = []
    if not report.passed:
        problems.append("hw12 failed: %r" % (report.counterexample,))
    hypothesis = report.tags.get("hypothesis", 0)
    if hypothesis < 50:
        problems.append("only %d hypothesis instances, need 50" % hypothesis)
    rings = {t for t in report.tags if t.startswith("hypring:")}
    if len(rings) < 5:
        problems.append("only %d distinct ambient rings, need 5" % len(rings))
    if "control" not in report.tags:
        problems.append("no principal controls were exercised")
    _verdict(3, "torsion family", problems)


def test_criterion_4_oracle_equivalence():
    problems = []
    rng = random.Random(SEED)
    for k in range(1000):
        mismatches = check_monomial_instance(rng)
        if mismatches:
            problems.append("monomial instance %d: %r" % (k, mismatches[:3]))
            break
    rng = random.Random(SEED + 1)
    for k in range(1000):
        mismatches = check_semigroup_instance(rng)
        if mismatches:
            problems.append("semigroup instance %d: %r" % (k, mismatches[:3]))
            break
    _verdict(4, "oracle equivalence", problems)


def _random_proper_ideal(ring, rng):
    bounds = [max(g) for g in ring.defining.gens[: ring.nvars]]
    while True:
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, b - 1) for b in bounds)
            if any(e):
                gens.append(e)
        ideal = ring.ideal(gens)
        if not ideal.is_zero() and ideal.is_proper():
            return ideal


def test_criterion_5_homology_integrity():
    problems = []

    # independent audits of freshly computed resolutions
    rng = random.Random(SEED)
    for k in range(12):
        nvars = rng.randint(1, 2)
        defining = []
        for i in range(nvars):
            e = [0] * nvars
            e[i] = rng.randint(2, 3)
            defining.append(tuple(e))
        ring = QuotientRing(nvars, defining)
        algebra = GradedAlgebra(ring)
        ideal = _random_proper_ideal(ring, rng)
        pres = cyclic_presentation(algebra, ideal)
        if not audit_resolution(resolve(pres, 3)):
            problems.append("audit %d failed on %r" % (k, ideal))
    sg_alg = GradedAlgebra(SemigroupRing((4, 5, 6)))
    pres, _ = module_from_ideal(sg_alg, sg_alg.ring.ideal([4, 5]))
    if not audit_resolution(resolve(pres, 3)):
        problems.append("semigroup audit failed")

    # Tor symmetry on random small pairs
    rng = random.Random(SEED + 5)
    pairs = 0
    while pairs < 100:
        nvars = rng.randint(1, 2)
        defining = []
        for i in range(nvars):
            e = [0] * nvars
            e[i] = rng.randint(2, 3)
            defining.append(tuple(e))
        ring = QuotientRing(nvars, defining)
        algebra = GradedAlgebra(ring)
        i1 = _random_proper_ideal(ring, rng)
        i2 = _random_proper_ideal(ring, rng)
        t = rng.randint(1, 2)
        left, _ = module_from_ideal(algebra, i1)
        right, _ = module_from_ideal(algebra, i2)
        a = tor_dim(left, i2, t)
        b = tor_dim(right, i1, t)
        if (a.total_dim, a.dims_by_degree) != (b.total_dim, b.dims_by_degree):
            problems.append(
                "Tor_%d asymmetry: %r vs %r on %r, %r"
                % (t, a, b, i1.min_gens(), i2.min_gens())
            )
        pairs += 1

    # pinned Betti numbers of the residue field over k[x,y]/(x,y)^3
    ring = QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    algebra = GradedAlgebra(ring)
    k_pres = cyclic_presentation(algebra, ring.maximal_ideal())
    betti = resolve(k_pres, 2).betti()[:3]
    # Hand-derived, never computed by the engine.  Direct count: the first
    # syzygy of m = (x, y) has the Koszul generator (y, -x) in degree 2; in
    # degree 3 it is all of R_2^2 (dimension 6, as R_3 = 0), of which
    # x(y, -x) and y(y, -x) span only 2, so beta_2 = 1 + 4 = 5.  Golod:
    # R = S/m^3 is Golod with beta^S = (1, 4, 3), so
    # P(t) = (1+t)^2 / (1 - 4t^2 - 3t^3) = 1 + 2t + 5t^2 + 11t^3 + ...
    if betti != (1, 2, 5):
        problems.append(
            "betti of k over k[x,y]/(x,y)^3: computed %r, expected (1, 2, 5)"
            " from the direct syzygy count and the Golod Poincare series"
            % (betti,)
        )

    _verdict(5, "homology integrity", problems)
