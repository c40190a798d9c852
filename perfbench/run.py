"""Benchmark entry point: set-up probes, the measured worker, checks, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload landscape|solve|reduced_map \
        --seed N --seconds S --trace 0|1 [--tiny]

With --trace 0 the last line of standard output reports the end-to-end
metrics (op_p50_s, setup_s, peak_rss_mb); with --trace 1 the per-layer
metrics.  Both report how many operations were attempted and failed, and
whether every completed operation passed the checks in checks.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (the benchmark's own module, beside this file)

# Set-up is timed in this many fresh processes besides the worker; the
# reported set-up time is the median of all of them.
SETUP_PROBES = 10
# One thread for BLAS and OpenMP, so iteration counts and timings repeat.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *(["--tiny"] if args.tiny else []), *extra]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (smoke test); figures are not comparable")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hyploop" / "__init__.py").is_file():
        print(f"perfbench: no src/hyploop under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)

    def probe_setup(count):
        """Set-up times of ``count`` fresh processes, or None if one fails."""
        times = []
        for _ in range(count):
            probe = subprocess.run(worker_cmd(args, "--setup-only"), env=env, cwd=root,
                                   capture_output=True, text=True, timeout=120)
            if probe.returncode:
                sys.stderr.write(probe.stderr)
                return None
            times.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
        return times

    # half the probes before the worker and half after, so that one slow
    # spell of the machine does not hold every sample
    setups = [] if args.trace else probe_setup(SETUP_PROBES // 2)
    if setups is None:
        return 1
    worker = subprocess.run(
        worker_cmd(args, "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--out", str(out)),
        env=env, cwd=root, timeout=args.seconds + 150)
    if worker.returncode:
        print(f"perfbench: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    if not args.trace:
        more = probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        if more is None:
            return 1
        setups += more
    result = json.loads((out / "result.json").read_text())

    import checks  # numpy and scipy are loaded only now, after the measured process

    problems = checks.check_result(result)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    for r in failed[:3]:
        print(f"perfbench: round {r['round']} op {r['op']} failed: {r['stderr'][-1].strip()}",
              file=sys.stderr)

    if args.trace:
        from tracing import UNITS as layer_units

        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        # a failed operation counts as slower than every completed one
        times = [r["seconds"] if r["ok"] else math.inf for r in records]
        values = {
            "op_p50_s": statistics.median(times),
            "setup_s": statistics.median(setups + [result["setup"]["setup_s"]]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
