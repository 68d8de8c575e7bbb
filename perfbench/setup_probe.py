"""Time one fresh interpreter's set-up for a workload; prints seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Two stretches are timed and added: importing burchkit, and the
workload's `setup()`, the calls into the program (building its ring
objects, importing the CLI) that come before its first timed operation.
The benchmark's own preparation between them (its seeded choices, the
prime lists) is not timed.  Prints the raw seconds and the seconds
corrected for host speed (see hostspeed.py).
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _program_modules():
    return {m for m in sys.modules if m == "burchkit" or m.startswith("burchkit.")}


def main(name, seed, workdir):
    import hostspeed

    t0 = perf_counter()
    import burchkit  # noqa: F401

    elapsed = perf_counter() - t0
    imported = _program_modules()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](int(seed), Path(workdir))
    if _program_modules() != imported:
        raise SystemExit("burchkit modules imported outside the timed set-up: %s"
                         % sorted(_program_modules() - imported))
    t1 = perf_counter()
    wl.setup()
    elapsed += perf_counter() - t1
    wl.close()
    probe = hostspeed.SpeedProbe()
    probe.mark(force=True)
    probe.mark(force=True)
    print(repr(elapsed), repr(elapsed * probe.factor(0)))


if __name__ == "__main__":
    main(*sys.argv[1:4])
