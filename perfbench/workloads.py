"""The three workloads: what each round runs and how each output is checked.

A workload is built from a seed, which makes only the benchmark's own
seeded choices; `setup()` then makes the calls into the program that
come before the first timed operation (the part `setup_s` times).  Then
it hands out rounds.  Round r is a list of operations; each operation is
one call into the program, timed on its own.  Rounds differ only in
their inputs (a suite seed, a field prime, a set of problem files),
never in the kind or number of operations.  Inputs of different rounds
can still share work: the fuzz suites draw small rings from fixed pools
and build their algebras over GF(101), and query_mix runs the same
`paper --all` and `hw` (also over GF(101)) every round, so maps recur
across rounds there; on deep_resolution they do not.  Every check
compares an output with a computation that does not go through the code
path that produced it.

burchkit is imported by the caller's sys.path set-up; the layer modules
are always reached as module attributes, so a traced run sees every call.
"""

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass

import oracles
from burchkit import fuzz, homalg, rings


@dataclass
class Op:
    """One timed call; `units` counts it toward trials_per_s."""

    kind: str
    label: str
    fn: object
    data: object = None
    units: int = 1


def _round_rng(seed, r, salt):
    return random.Random("%s:%d:%d" % (salt, seed, r))


class Workload:
    """What every workload does unless it says otherwise."""

    def setup(self):
        """Calls into the program that precede the first timed operation."""

    def failed(self, rec):
        """True if the operation produced no output to check."""
        return False

    def close(self):
        pass


# ------------------------------------------------------------ theorem_suites

class TheoremSuites(Workload):
    """All falsification suites through fuzz.run_suite, one seed per round."""

    name = "theorem_suites"
    TRIALS = 100
    # entry points the traced run must see through the wrappers
    reached = (
        "fuzz.run_suite",
        "classify.is_burch",
        "classify.cor214_classify",
        "hw.hw_has_torsion",
        "homalg.kernel_minimal_gens",
        "homalg.resolve",
        "homalg.tor_dim",
        "rings.QIdeal.colon",
        "rings.SgIdeal.colon",
        "monomial.MonomialIdeal.colon",
        "semigroup.relset_colon",
        "linalg.nullspace",
    )

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.suites = fuzz.suite_names()

    def round_ops(self, r):
        suite_seed = _round_rng(self.seed, r, "suites").getrandbits(48)
        cfg = fuzz.FuzzConfig(seed=suite_seed, trials=self.TRIALS)
        return [
            Op("suite", name, lambda name=name: fuzz.run_suite(name, cfg), cfg, cfg.trials)
            for name in self.suites
        ]

    def record(self, op, out):
        return out

    def check(self, op, report):
        cfg = op.data
        if report.suite != op.label or report.seed != cfg.seed or report.trials != cfg.trials:
            return "report does not describe the suite run"
        if not report.passed:
            return "suite failed: %s" % report.to_json()
        if report.vacuous:
            return "suite vacuous: %d effective of %d" % (report.effective, report.trials)
        return None


# ----------------------------------------------------------- deep_resolution

class DeepResolution(Workload):
    """Residue-field resolutions and Tor, each input computed once per round.

    Round r runs every input over its own field prime, so no map of one
    round recurs in another.  Inputs, with rough single-core seconds:
      cube2   k over k[x,y]/(x,y)^3 to depth 8              (0.5)
      sg6     k over k[[t^6,t^7,t^9,t^11]] to depth 6        (1.8)
      golod3  k over k[x,y,z]/(x,y,z)^2 to depth 6           (0.3)
      ci3     Tor_8(k, k) over k[x,y,z]/(x^a,y^b,z^c),
              (a,b,c) a seeded order of (2,3,4), p near 2^31 (0.4)
      sg4     k over k[[t^4,t^5,t^6,t^7]] to depth 6, p near 2^31 (0.7)
    """

    name = "deep_resolution"
    reached = (
        "homalg.resolve",
        "homalg.tor_dim",
        "homalg.kernel_minimal_gens",
        "homalg.HomogeneousMap.matrix",
        "linalg.nullspace",
        "linalg.reduce_row",
        "linalg.EchelonSpan.add",
        "monomial.MonomialIdeal.member",
        "semigroup.NumericalSemigroup.__contains__",
    )

    def __init__(self, seed, workdir):
        rng = random.Random("deep:%d" % seed)
        self.small = oracles.primes_in(101, 400)
        self.word = oracles.primes_in(2**31 - 4000, 2**31)
        rng.shuffle(self.small)
        rng.shuffle(self.word)
        exps = [2, 3, 4]
        rng.shuffle(exps)
        self.ci_exps = tuple(exps)
        self.cube = oracles.monomials_of_degree(2, 3)
        self.square = oracles.monomials_of_degree(3, 2)
        self.ci = [tuple(a if j == i else 0 for j in range(3)) for i, a in enumerate(self.ci_exps)]

    def setup(self):
        self.inputs = [
            ("cube2", rings.QuotientRing(2, self.cube), 8, "small"),
            ("sg6", rings.SemigroupRing((6, 7, 9, 11)), 6, "small"),
            ("golod3", rings.QuotientRing(3, self.square), 6, "small"),
            ("ci3", rings.QuotientRing(3, self.ci), 8, "word"),
            ("sg4", rings.SemigroupRing((4, 5, 6, 7)), 6, "word"),
        ]

    def round_ops(self, r):
        ops = []
        for label, ring, depth, band in self.inputs:
            primes = self.small if band == "small" else self.word
            p = primes[(r + len(ops)) % len(primes)]
            algebra = homalg.GradedAlgebra(ring, p)
            pres = homalg.cyclic_presentation(algebra, ring.maximal_ideal())
            if label == "ci3":
                fn = lambda pres=pres, ring=ring, depth=depth: homalg.tor_dim(pres, ring.maximal_ideal(), depth)
            else:
                fn = lambda pres=pres, depth=depth: homalg.resolve(pres, depth)
            ops.append(Op(label, "%s/p=%d" % (label, p), fn, (ring, depth)))
        return ops

    def record(self, op, out):
        if op.kind == "ci3":
            return ("tor", out.total_dim, dict(out.dims_by_degree), out.bound_certified)
        shifts = [out.presentation.generators.shifts] + [m.source.shifts for m in out.maps]
        return ("res", [tuple(s) for s in shifts], out.certified_through(len(out.maps)))

    def check(self, op, rec):
        ring, depth = op.data
        if op.kind == "ci3":
            _, total, dims, certified = rec
            if not certified:
                return "Tor window not certified"
            if total != oracles.ci_betti(3, 3, depth)[depth]:
                return "Tor_%d total %d differs from (1+t)^3/(1-t^2)^3" % (depth, total)
            if dims != oracles.monomial_ci_tor(self.ci_exps, depth):
                return "Tor_%d by degree %r differs from the graded series" % (depth, dims)
            return None
        _, shifts, certified = rec
        if not certified:
            return "resolution not certified"
        betti = tuple(len(s) for s in shifts)
        if len(betti) != depth + 1:
            return "resolution stopped at depth %d" % (len(betti) - 1)
        want = None
        if op.kind == "cube2":
            want = oracles.golod_betti(2, oracles.power_ideal_betti(2, 3), depth)
        elif op.kind == "golod3":
            want = oracles.golod_betti(3, oracles.power_ideal_betti(3, 2), depth)
        if want is not None and betti != want:
            return "Betti numbers %r differ from the Golod series %r" % (betti, want)
        top = min(shifts[-1])
        if isinstance(ring, rings.SemigroupRing):
            table = oracles.semigroup_table(ring.S.generators, top)
            hilbert = [int(x) for x in table]
        else:
            hilbert = oracles.monomial_hilbert(ring.nvars, ring.defining.gens, top)
        bad = oracles.euler_defects(hilbert, shifts)
        if bad:
            return "graded shifts break sum (-1)^i B_i H_R = 1 in degrees %r" % bad[:5]
        return None


# ----------------------------------------------------------------- query_mix

_SG_POOL = ((3, 4, 5), (3, 5, 7), (4, 5, 6), (4, 5, 7), (4, 6, 9), (5, 6, 7, 8), (4, 5, 11))
_FIELD_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)
_VARS = ("x", "y", "z")


def _mono_text(u):
    parts = ["%s^%d" % (_VARS[i], e) if e > 1 else _VARS[i] for i, e in enumerate(u) if e]
    return "*".join(parts) or "1"


def _minimal_monomials(gens):
    kept = []
    for u in sorted(set(gens), key=lambda t: (sum(t), t)):
        if not any(oracles.divides(w, u) for w in kept):
            kept.append(u)
    return kept


class _MonomialFile:
    """A problem file over a seeded Artinian monomial quotient."""

    tag = "mono"

    def __init__(self, rng):
        n = 3 if rng.random() < 0.2 else 2
        caps = [rng.randint(2, 3 if n == 3 else 4) for _ in range(n)]
        defining = [tuple(c if j == i else 0 for j in range(n)) for i, c in enumerate(caps)]
        if rng.random() < 0.5:
            extra = tuple(rng.randint(0, c - 1) for c in caps)
            if sum(extra) >= 2:
                defining.append(extra)
        self.nvars, self.defining = n, _minimal_monomials(defining)
        self.box = oracles.MonomialBox(n, self.defining)
        standard = [u for u in self.box.points if any(u) and not self.box.member([], u)]
        self.i = self._draw(rng, standard)
        self.j = self._draw(rng, standard)
        self.k = self._draw(rng, standard)
        self.prime = rng.choice(_FIELD_PRIMES)

    @staticmethod
    def _draw(rng, standard):
        return _minimal_monomials(rng.sample(standard, min(len(standard), rng.randint(1, 3))))

    def text(self):
        names = ", ".join(_VARS[: self.nvars])
        ideal = lambda gens: ", ".join(_mono_text(u) for u in gens)
        entries = ", ".join("(1, %d, %s)" % (c + 1, _mono_text(u)) for c, u in enumerate(self.k))
        return "\n".join([
            "field GF(%d)" % self.prime,
            "ring r = poly(%s) mod [%s]" % (names, ideal(self.defining)),
            "ideal i in r = [%s]" % ideal(self.i),
            "ideal j in r = [%s]" % ideal(self.j),
            "ideal k in r = [%s]" % ideal(self.k),
            "module M in r = coker rows=1 cols=%d entries=[%s] shifts=[0]" % (len(self.k), entries),
        ]) + "\n"

    def queries(self, path):
        return [
            ("classify", ["classify", path, "i"], None),
            ("classify", ["classify", path, "i", "--wrt", "j"], None),
            ("classify", ["classify", path, "j", "--wrt-mpow-range", "0..3"], (0, 3)),
            ("tor", ["tor", path, "M", "i", "--range", "1..3"], None),
        ]

    def ring(self):
        return rings.QuotientRing(self.nvars, self.defining)

    def oracle(self):
        return self.box


class _SemigroupFile:
    """A problem file over a seeded numerical semigroup ring."""

    tag = "sg"

    def __init__(self, rng):
        self.gens = rng.choice(_SG_POOL)
        probe = oracles.SemigroupWindow(self.gens, 0)
        pool = [v for v in range(1, probe.conductor + 2 * self.gens[-1]) if probe.in_s(v)]
        self.i = probe.minimal(rng.sample(pool, rng.randint(1, 3)))
        self.j = probe.minimal(rng.sample(pool[:8], rng.randint(1, 2)))
        self.k = probe.minimal(rng.sample(pool[:10], rng.randint(1, 2)))
        self.window = oracles.SemigroupWindow(self.gens, max(self.i + self.j + self.k))
        self.prime = rng.choice(_FIELD_PRIMES)
        self._tor2 = None

    def text(self):
        vals = lambda xs: ", ".join(str(v) for v in xs)
        entries = ", ".join("(1, %d, %d)" % (c + 1, v) for c, v in enumerate(self.k))
        return "\n".join([
            "field GF(%d)" % self.prime,
            "ring s = semigroup(%s)" % vals(self.gens),
            "ideal i in s = [%s]" % vals(self.i),
            "ideal j in s = [%s]" % vals(self.j),
            "ideal k in s = [%s]" % vals(self.k),
            "module M in s = coker rows=1 cols=%d entries=[%s] shifts=[0]" % (len(self.k), entries),
        ]) + "\n"

    def queries(self, path):
        return [
            ("classify", ["classify", path, "i"], None),
            ("classify", ["classify", path, "i", "--wrt", "j"], None),
            ("classify", ["classify", path, "j", "--wrt-mpow-range", "1..4"], (1, 4)),
            ("tor", ["tor", path, "M", "i", "--range", "1..2"], None),
            ("hw", ["hw", path, "i"], None),
            ("hw", ["hw", path, "i", "--wrt", "j"], None),
        ]

    def ring(self):
        return rings.SemigroupRing(self.gens)

    def dual_tor2(self):
        """dim Tor_2(R/I, R/J) for J = Hom(I, R) moved into R.

        Tor_1(J, R/I), which `hw` reports, is Tor_2(R/I, R/J); this reads
        it off a resolution of R/I instead of one of J.  `hw` works over
        GF(101) whatever the file's field line says, and so does this.
        """
        if self._tor2 is None:
            ring = self.ring()
            pres_i = homalg.cyclic_presentation(homalg.GradedAlgebra(ring), ring.ideal(self.i))
            dual = ring.ideal(self.window.integral_dual(self.i))
            self._tor2 = homalg.tor_dim(pres_i, dual, 2).total_dim
        return self._tor2

    def oracle(self):
        return self.window


class QueryMix(Workload):
    """Seeded problem files queried through cli.main, plus `paper --all`.

    Each round writes its own files before it starts and removes them
    after; a round is every query on every file, then `paper --all`.
    The CLI builds its rings inside every timed call, so set-up is
    importing burchkit and its CLI.
    """

    name = "query_mix"
    FILES_PER_FAMILY = 8
    reached = (
        "cli.main",
        "problemfile.load_problem",
        "fixtures.run_example",
        "classify.classification_report",
        "hw.hw_report",
        "homalg.tor_dim",
        "homalg.kernel_minimal_gens",
        "rings.QIdeal.colon",
        "rings.SgIdeal.colon",
        "semigroup.relset_colon",
        "monomial.MonomialIdeal.colon",
        "linalg.rref",
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._written = {}

    def setup(self):
        self.cli = importlib.import_module("burchkit.cli")

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _write_round(self, r):
        if r in self._written:
            return self._written[r]
        for old in self._written.pop(r - 1, ()):
            old[0].unlink()
        rng = _round_rng(self.seed, r, "queries")
        files = []
        for k in range(self.FILES_PER_FAMILY):
            for family in (_MonomialFile, _SemigroupFile):
                prob = family(rng)
                path = self.workdir / ("r%d_%s%d.prob" % (r, family.tag, k))
                path.write_text(prob.text(), encoding="utf-8")
                files.append((path, prob))
        self._written[r] = files
        return files

    def round_ops(self, r):
        ops = []
        for path, prob in self._write_round(r):
            for kind, argv, extra in prob.queries(str(path)):
                ops.append(Op(kind, " ".join(argv[:1] + argv[2:]), lambda argv=argv: self._run(argv), (prob, argv, extra)))
        ops.append(Op("paper", "paper --all", lambda: self._run(["paper", "--all"])))
        return ops

    def record(self, op, out):
        code, stdout, stderr = out
        payload = json.loads(stdout) if code in (0, 1) and stdout else None
        return code, payload, stderr.strip()

    def failed(self, rec):
        # exit code 2 is an error with no JSON; `paper` exits 1 with its
        # claims when one is false, and that is checked, not counted
        return rec[1] is None

    def check(self, op, rec):
        code, payload, stderr = rec
        if op.kind == "paper":
            bad = [
                (name, c["claim"]) for name, ex in payload["examples"].items()
                for c in ex["claims"] if not c["ok"]
            ]
            if code != 0 or not payload["pass"] or bad:
                return "paper --all exited %d, claims failed: %r" % (code, bad)
            return None
        if code != 0:
            return "exited %d: %s" % (code, stderr[:200])
        prob, argv, extra = op.data
        if op.kind == "classify":
            return self._check_classify(prob, argv, extra, payload)
        if op.kind == "tor":
            return self._check_tor(prob, argv, payload)
        return self._check_hw(prob, argv, payload)

    @staticmethod
    def _check_classify(prob, argv, mpow_range, payload):
        name = argv[2]
        gens = prob.i if name == "i" else prob.j
        wrt = ("j", prob.j) if "--wrt" in argv else None
        want = oracles.classify_expect(prob.oracle(), gens, wrt=wrt, mpow_range=mpow_range)
        got = {key: payload.get(key) for key in want}
        if got != want:
            diff = {k: (got[k], want[k]) for k in want if got.get(k) != want[k]}
            return "classify %s disagrees with enumeration: %r" % (name, diff)
        return None

    @staticmethod
    def _check_tor(prob, argv, payload):
        # Tor_t(R/K, R/I) from the program resolving R/K, against
        # Tor_t(R/I, R/K) from a resolution of R/I
        ring = prob.ring()
        algebra = homalg.GradedAlgebra(ring, prob.prime)
        pres_i = homalg.cyclic_presentation(algebra, ring.ideal(prob.i))
        k_ideal = ring.ideal(prob.k)
        for row in payload["tor"]:
            other = homalg.tor_dim(pres_i, k_ideal, row["t"])
            dims = {int(d): v for d, v in row["dims_by_degree"].items()}
            if not row["bound_certified"] or dims != other.dims_by_degree:
                return "Tor_%d(R/K, R/I) = %r but Tor_%d(R/I, R/K) = %r" % (
                    row["t"], dims, row["t"], other.dims_by_degree,
                )
        return None

    @staticmethod
    def _check_hw(prob, argv, payload):
        win = prob.window
        if payload["has_torsion"] != (payload["tor1_dim"] > 0):
            return "has_torsion disagrees with tor1_dim"
        principal = len(prob.i) == 1
        if payload["is_principal"] != principal:
            return "is_principal is %r for generators %r" % (payload["is_principal"], prob.i)
        if principal and payload["has_torsion"]:
            return "a principal ideal reported torsion"
        if not principal:
            other = prob.dual_tor2()
            if payload["tor1_dim"] != other:
                return "tor1_dim %d but Tor_2(R/I, R/Hom(I,R)) has dimension %d" % (
                    payload["tor1_dim"], other,
                )
        if "--wrt" in argv:
            subset = win.ideal(prob.i) <= win.ideal(win.times(prob.j, win.maximal))
            mi = win.times(prob.i, win.maximal)
            wmf = win.colon(prob.i, prob.j) == win.colon(mi, win.times(prob.j, win.maximal))
            if (payload["subset_mj"], payload["wmf_wrt_j"]) != (subset, wmf):
                return "hw hypotheses (%r, %r) disagree with enumeration (%r, %r)" % (
                    payload["subset_mj"], payload["wmf_wrt_j"], subset, wmf,
                )
            if payload["hypotheses_hold"] != (subset and wmf):
                return "hypotheses_hold does not match its parts"
        elif payload["hypotheses_hold"]:
            return "hypotheses_hold without a hypothesis ideal"
        if payload["hypotheses_hold"] and not payload["has_torsion"]:
            return "hypotheses hold but no torsion was found"
        return None

    def close(self):
        for files in self._written.values():
            for path, _ in files:
                path.unlink(missing_ok=True)
        self._written.clear()


WORKLOADS = {cls.name: cls for cls in (TheoremSuites, DeepResolution, QueryMix)}
