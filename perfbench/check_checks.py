"""Show that the output checks catch wrong answers.

    python3 perfbench/check_checks.py

Runs round 0 of every workload at seed 1, confirms that the real
outputs pass their checks, then feeds each check deliberately wrong
copies (a Betti number off by one, a shifted generator degree, a flipped
verdict, a Tor dimension off by one, a false claim with its exit code)
and confirms that every one is rejected.  Each output goes through the
same after-round check as in a benchmark run, so a wrong answer counted
as a failed operation instead of an incorrect one gets through.  Exit
code 1 if a wrong answer gets through.
"""

import copy
import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import Rounds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _verdict(wl, op, rec):
    """(failed, problem) as a benchmark run's after-round check sees rec."""
    got = Rounds()
    got.check(wl, [(op, rec)])
    return got.failed, (got.problems[0] if got.problems else None)


def _suite_mutants(rec):
    yield "suite failed", dataclasses.replace(rec, passed=False, failures=1)
    yield "suite vacuous", dataclasses.replace(rec, vacuous=True)


def _deep_mutants(rec):
    if rec[0] == "tor":
        _, total, dims, cert = rec
        d = min(dims)
        yield "Tor total off by one", ("tor", total + 1, dims, cert)
        yield "Tor degree %d off by one" % d, ("tor", total, {**dims, d: dims[d] + 1}, cert)
        return
    _, shifts, cert = rec
    yield "last Betti number off by one", ("res", shifts[:-1] + [shifts[-1] + shifts[-1][:1]], cert)
    moved = list(shifts[2])
    moved[0] += 1
    yield "one F_2 shift moved up", ("res", shifts[:2] + [tuple(moved)] + shifts[3:], cert)
    yield "uncertified", ("res", shifts, False)


def _query_mutants(rec, op):
    code, payload, err = rec
    if op.kind == "paper":
        bad = copy.deepcopy(payload)
        first = next(iter(bad["examples"].values()))
        first["claims"][0]["ok"] = False
        first["pass"] = bad["pass"] = False
        yield "one paper claim false, exit 1", (1, bad, err)
        return
    if op.kind == "classify":
        for key in ("is_burch", "is_weakly_mfull"):
            bad = copy.deepcopy(payload)
            bad[key] = not bad[key]
            yield "%s flipped" % key, (code, bad, err)
        bad = copy.deepcopy(payload)
        bad["loewy_R_mod_I"] += 1
        yield "Loewy length off by one", (code, bad, err)
        bad = copy.deepcopy(payload)
        s = next(iter(bad["wmf_wrt_mpow"]))
        bad["wmf_wrt_mpow"][s] = not bad["wmf_wrt_mpow"][s]
        yield "wmf_wrt_mpow[%s] flipped" % s, (code, bad, err)
        return
    if op.kind == "tor":
        bad = copy.deepcopy(payload)
        row = bad["tor"][-1]
        d = min(row["dims_by_degree"], default="0")
        row["dims_by_degree"][d] = row["dims_by_degree"].get(d, 0) + 1
        yield "Tor_%d degree %s off by one" % (row["t"], d), (code, bad, err)
        return
    bad = copy.deepcopy(payload)
    bad["has_torsion"] = not bad["has_torsion"]
    bad["tor1_dim"] = 0 if payload["has_torsion"] else 1
    yield "torsion verdict flipped", (code, bad, err)
    bad = copy.deepcopy(payload)
    bad["is_principal"] = not bad["is_principal"]
    yield "is_principal flipped", (code, bad, err)


def main():
    workdir = HERE.parent / ".perfbench_work" / "check_checks"
    caught, missed = 0, []
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(1, workdir / name)
            wl.setup()
            kinds_seen = set()
            for op in wl.round_ops(0):
                rec = wl.record(op, op.fn())
                failed, problem = _verdict(wl, op, rec)
                if failed or problem is not None:
                    print("%s %s: real output failed or rejected: %s" % (name, op.label, problem))
                    return 1
                # one of each kind of output; hw once principal, once not
                key = (op.kind, rec[1]["is_principal"]) if op.kind == "hw" else op.kind
                if key in kinds_seen and name != "deep_resolution":
                    continue
                kinds_seen.add(key)
                if name == "theorem_suites":
                    mutants = _suite_mutants(rec)
                elif name == "deep_resolution":
                    mutants = _deep_mutants(rec)
                else:
                    mutants = _query_mutants(rec, op)
                for what, bad in mutants:
                    _, problem = _verdict(wl, op, bad)
                    if problem is None:
                        missed.append("%s %s: %s" % (name, op.label, what))
                    else:
                        caught += 1
                        print("caught  %-16s %-34s %-30s -> %s" % (name, op.label[:34], what, problem[:60]))
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in missed:
        print("MISSED  %s" % line)
    print("%d wrong answers caught, %d missed" % (caught, len(missed)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
