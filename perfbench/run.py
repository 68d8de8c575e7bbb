"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload theorem_suites --seed 1 --seconds 30 --trace 0

Run from the root of a burchkit source tree; the package is imported
from its `src/` directory, and the run exits with code 2 if there is
none.  The timed part is one process and one thread: rounds of
operations run back to back until --seconds of round time have passed,
each operation timed on its own and its time corrected for host speed
(hostspeed.py).  After each round, outside the timed calls, every output
is checked against an independent computation.

--trace 0 prints the end-to-end metrics: setup_s (median of several
fresh interpreters), wall_s and trials_per_s (medians over rounds),
query_p50_ms and query_p90_ms (over all operations), peak_rss_mib.
--trace 1 prints the per-layer metrics: the first half of the time runs
untraced rounds, the second half as many traced rounds, and every
figure is a mean per traced round.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
WORKLOAD_NAMES = ("theorem_suites", "deep_resolution", "query_mix")


def _import_program():
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not (SRC / "burchkit" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import burchkit

    return Path(burchkit.__file__).resolve().parent == (SRC / "burchkit").resolve()


def measure_setup(workload, seed, workdir):
    """Median seconds to import burchkit and set up, over fresh interpreters."""
    times = []
    for k in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir / ("probe%d" % k))],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Rounds:
    """What a sequence of rounds measured and found."""

    def __init__(self):
        self.raw_walls = []   # per round, seconds as measured
        self.walls = []       # per round, seconds at reference host speed
        self.units = []       # per round, trials (or operations)
        self.lats = []        # per operation, seconds at reference speed
        self.records = []     # (op, record) pairs kept for a later check
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, wl, records):
        for op, rec in records:
            self.attempted += 1
            if wl.failed(rec):
                self.failed += 1
                continue
            problem = wl.check(op, rec)
            if problem is not None:
                self.problems.append("%s: %s" % (op.label, problem))


def run_rounds(wl, rounds=None, seconds=None, keep=False, after_round=None):
    """Run rounds until `seconds` of round time pass (at least one round),
    or exactly the rounds in range `rounds`.

    Outputs are checked after each round, outside the timed calls, and
    dropped; with keep=True they are kept in `records` instead.
    `after_round`, if given, is called after each round's timed calls.
    """
    got = Rounds()
    used = 0.0
    r = rounds.start if rounds is not None else 0
    while True:
        begin = perf_counter()
        ops = wl.round_ops(r)
        probe = hostspeed.SpeedProbe()
        records = []
        raw = ref = 0.0
        for op in ops:
            before = probe.mark(force=not records)
            t0 = perf_counter()
            out = op.fn()
            dt = perf_counter() - t0
            records.append((op, wl.record(op, out), dt, before))
            del out
        probe.mark(force=True)
        if after_round is not None:
            after_round()
        for op, rec, dt, before in records:
            scaled = dt * probe.factor(before)
            raw += dt
            ref += scaled
            got.lats.append(scaled)
        got.raw_walls.append(raw)
        got.walls.append(ref)
        got.units.append(sum(op.units for op in ops))
        used += perf_counter() - begin
        records = [(op, rec) for op, rec, _, _ in records]
        if keep:
            got.records.extend(records)
        else:
            got.check(wl, records)
        r += 1
        if rounds is not None:
            if r >= rounds.stop:
                break
        elif used >= seconds:
            break
    return got


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, args, workdir):
    setup_s = measure_setup(wl.name, args.seed, workdir)
    got = run_rounds(wl, seconds=args.seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(got.walls), "s"),
        "peak_rss_mib": metric(peak, "MiB"),
        "trials_per_s": metric(statistics.median(u / w for u, w in zip(got.units, got.walls)), "trials/s"),
        "query_p50_ms": metric(1000.0 * statistics.median(got.lats), "ms"),
        "query_p90_ms": metric(1000.0 * statistics.quantiles(got.lats, n=10)[8], "ms"),
    }
    print("%s: %d rounds, %d operations; median round %.4f s as measured, %.4f s at reference speed"
          % (wl.name, len(got.walls), len(got.lats), statistics.median(got.raw_walls), statistics.median(got.walls)),
          file=sys.stderr)
    return metrics, got


def per_layer(wl, args):
    import layertrace

    plain = run_rounds(wl, seconds=args.seconds / 2.0)
    k = len(plain.walls)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl, rounds=range(k, 2 * k), keep=True, after_round=tracer.end_round)
    finally:
        tracer.uninstall()
    traced.check(wl, traced.records)
    metrics = {}
    for layer in layertrace.LAYERS:
        metrics[layer + ".calls"] = metric(tracer.layer_calls(layer) / k, "count")
        metrics[layer + ".self_s"] = metric(tracer.self_s[layer] / k, "s")
    metrics.update({
        "homalg.kmg_calls": metric(tracer.kmg_calls / k, "count"),
        "homalg.kmg_distinct": metric(tracer.kmg_distinct / k, "count"),
        "homalg.matrix_cells": metric(tracer.matrix_cells / k, "count"),
        "linalg.elim_ops_est": metric(tracer.elim_ops / k, "count"),
        "linalg.max_cols": metric(tracer.max_cols, "count"),
        "trace.wall_s": metric(sum(traced.raw_walls) / k, "s"),
        "trace.overhead_s": metric((sum(traced.walls) - sum(plain.walls)) / k, "s"),
    })
    never = sum(1 for n in tracer.calls.values() if n == 0)
    print("%s: %d untraced + %d traced rounds; %d of %d wrapped functions not reached here"
          % (wl.name, k, k, never, len(tracer.calls)), file=sys.stderr)
    for got in (plain, traced):
        got.problems += ["wrapper never reached: %s" % q for q in tracer.unreached(wl.reached)]
    return metrics, plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description="burchkit benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        print("error: no burchkit source tree at %s" % SRC, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = WORK / ("%s-%d" % (args.workload, os.getpid()))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        if args.trace:
            metrics, *parts = per_layer(wl, args)
        else:
            metrics, got = end_to_end(wl, args, workdir)
            parts = [got]
        wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = sorted(set(p for got in parts for p in got.problems))
    for line in problems[:20]:
        print("CHECK FAILED %s" % line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(got.attempted for got in parts),
        "failed": sum(got.failed for got in parts),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
