"""Run each workload ten times and report how steady its figures are.

    python3 perfbench/steadiness.py [--seed 1] [--against .perfbench_runs/steadiness-seed1.json]

Every workload of BENCHMARK.json runs ten times for its run_seconds; run
i uses seed S + i.  For every end-to-end metric the report gives the
median over the runs, the quartiles (statistics.quantiles, n=4), and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
With --against, the medians are compared with an earlier report: a
median worse than the earlier one by more than its bound, or a different
share of failed operations, is flagged.  Results are written to
.perfbench_runs/steadiness-seed<S>.json; the exit code is 1 if any
figure is out of bounds or any run was incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit("run failed (%s, seed %d):\n%s" % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {"median": center, "q1": q1, "q3": q3, "spread": (q3 - q1) / center, "values": values}


def worse_by(new, old, better):
    change = (new - old) / old
    return change if better == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    earlier = json.loads(args.against.read_text()) if args.against else {}
    report, ok = {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        began = time.perf_counter()
        results = [run_once(workload, args.seed + i, bench["run_seconds"]) for i in range(RUNS)]
        per_run = (time.perf_counter() - began) / RUNS
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "metrics": {},
        }
        ok &= entry["correct"] and len(entry["failed_share"]) == 1
        print("%s: %d runs of %.0f s each, correct=%s, failed/attempted %s"
              % (workload, len(results), per_run, entry["correct"], shares[:3]))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            line = "  %-14s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f  bound %.2f" % (
                name, stats["median"], stats["q1"], stats["q3"], stats["spread"], spec["bound"])
            if stats["spread"] > spec["bound"]:
                line += "  SPREAD OVER BOUND"
                ok = False
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before is not None:
                change = worse_by(stats["median"], before["median"], spec["better"])
                stats["worse_than_earlier"] = change
                line += "  worse-by %+.3f" % change
                if change > spec["bound"]:
                    line += "  MEDIAN OVER BOUND"
                    ok = False
            entry["metrics"][name] = stats
            print(line)
        if workload in earlier and earlier[workload]["failed_share"] != entry["failed_share"]:
            print("  failed share changed: %r vs %r" % (earlier[workload]["failed_share"], entry["failed_share"]))
            ok = False
        report[workload] = entry
        sys.stdout.flush()

    OUT.mkdir(exist_ok=True)
    path = OUT / ("steadiness-seed%d.json" % args.seed)
    path.write_text(json.dumps(report, indent=1))
    print("wrote %s" % path.relative_to(ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
