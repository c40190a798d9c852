"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_7.json --seed 901

PARENT_DIR and CHANGE_DIR are checkouts (for example `git archive` copies)
that each hold `perfbench/` and `BENCHMARK.json`.  For every workload, pair
i of ten runs `perfbench/run.py --trace 0` of both checkouts for the
`run_seconds` of the change's `BENCHMARK.json`, with seed SEED + i, the
parent first in even pairs and the change first in odd ones.  Then each
side makes one traced run (`--trace 1`) per workload at seed 1.  The output
holds every run, each side's median and first/third quartiles of the
end-to-end metrics, the pairs the change won, the traced per-layer figures
and a note naming the cores, Python and numpy the timings come from.  Only
the standard library is used; nothing runs in parallel.

`setup_s` times fresh processes that import the program, so a checkout
holding bytecode would be compared, loading it, with one compiling every
module.  The tool therefore refuses checkouts with a `__pycache__` under
`src/` or `perfbench/`, and runs every child with PYTHONDONTWRITEBYTECODE=1
so that none appears during the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

WORKLOADS = ("landscape", "solve", "reduced_map")
END_TO_END = ("op_p50_s", "setup_s", "peak_rss_mb")
PAIRS = 10
TRACE_SEED = 1


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True, env=env)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{checkout.name} {workload} seed={seed} trace={trace} "
          f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
          file=sys.stderr, flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bytecode_dirs(checkout: Path) -> list[Path]:
    """The `__pycache__` directories under `src/` and `perfbench/` of a checkout."""
    return sorted(d for top in ("src", "perfbench") for d in (checkout / top).rglob("__pycache__"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        found = bytecode_dirs(path)
        if found:
            sys.exit(f"bench_record: refusing to record: {found[0]} holds bytecode, which "
                     "set-up would load in one checkout and compile in the other; delete "
                     "every __pycache__ under src/ and perfbench/ of both checkouts first")
    seconds = float(json.loads((sides["change"] / "BENCHMARK.json").read_text())["run_seconds"])
    record = {
        "note": (f"wall-clock timings on {os.cpu_count()} CPU cores, Python "
                 f"{platform.python_version()}, numpy {version('numpy')}; on a machine "
                 "shared with other work they are indicative only"),
        "python": platform.python_version(),
        "seeds": [args.seed + i for i in range(PAIRS)],
        "run_seconds": seconds,
        "trace_seed": TRACE_SEED,
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs",
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(sides[side], workload, seed, seconds, 0)
                runs[side].append({
                    "seed": seed, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    **{m: result["metrics"][m]["value"] for m in END_TO_END},
                })
        entry = {"runs": runs, "end_to_end": {}}
        for metric in END_TO_END:
            pairs = list(zip(runs["parent"], runs["change"]))
            entry["end_to_end"][metric] = {
                "parent": summary([r[metric] for r in runs["parent"]]),
                "change": summary([r[metric] for r in runs["change"]]),
                "change_wins": sum(c[metric] < p[metric] for p, c in pairs),
                "pairs": len(pairs),
            }
        entry["traced"] = {
            side: {name: m["value"] for name, m in
                   run(path, workload, TRACE_SEED, seconds, 1)["metrics"].items()}
            for side, path in sides.items()
        }
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
