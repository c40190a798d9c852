"""The measured process: set-up, then whole rounds of operations until time is up.

Run by run.py, never by hand.  It imports hyploop from the checkout's src/,
times its own set-up, runs the operations in process and writes what they
returned to ``<out>/result.json`` (and per-operation files beside it) for
run.py to check.  It imports neither scipy nor the checks, so neither enters
the set-up time or the peak resident memory.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload W --seed N --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402  (the benchmark's own module, beside this file)

SRC = Path.cwd() / "src"


def import_program() -> float:
    """Import hyploop from the checkout (numpy is already loaded); seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hyploop.cli  # noqa: F401  (loads every layer)

    seconds = time.perf_counter() - t0
    module = sys.modules["hyploop"].__file__
    if not Path(module).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hyploop was imported from {module}, not from {SRC}")
    return seconds


def prepare(workload: str, ops: list[dict]) -> dict:
    """The rest of the set-up before the first operation.

    Parses the fields, builds the problem objects, and fills the lazy caches
    the first operation would otherwise fill: the disk rule, the frame data
    and the frequency blocks with their pseudo-inverses (one frozen solve
    per k).
    """
    from hyploop import _quad, euclidean, fields, linearized, melnikov, reduction

    state = {"fields": {
        text: fields.parse_field(text)
        for text in (workloads.QUADRATIC, workloads.TRANSCENDENTAL)
    }}
    quad = state["fields"][workloads.QUADRATIC]
    n = workloads.N_SAMPLES
    if workload in ("landscape", "solve"):
        _quad.disk_rule(melnikov.NR_DEFAULT, melnikov.NA_DEFAULT)
    problems = []
    if workload in ("solve", "reduced_map"):
        for k in sorted({op["k"] for op in ops}):
            problems.append(reduction.HyperbolicProblem(k, quad, n))
            linearized.frozen_solve((0.0, 1.0), k, np.zeros((n, 2)), np.zeros(3))
    if workload == "solve":
        problems.append(euclidean.EuclideanProblem(workloads.FLAT_SOLVE["k"], quad, n))
    state["problems"] = problems
    return state


def setup(workload: str, ops: list[dict]) -> dict:
    t0 = time.perf_counter()
    import_s = import_program()
    state = prepare(workload, ops)
    state["times"] = {"import_s": import_s, "setup_s": time.perf_counter() - t0}
    return state


def _cli(argv: list[str]):
    from hyploop import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_landscape(spec: dict, state: dict, stem: Path) -> dict:
    record = {"rc": [], "stdout": [], "stderr": [], "csv": []}
    fields = (("q", workloads.QUADRATIC), ("t", workloads.TRANSCENDENTAL))
    for (tag, text), box in zip(fields, spec["boxes"]):
        path = f"{stem}_{tag}.csv"
        rc, out, err = _cli(["melnikov", "--k", repr(spec["k"]), "--field", text,
                             "--box", workloads.box_text(box),
                             "--grid", str(spec["grid"]), "--out", path])
        for key, value in (("rc", rc), ("stdout", out), ("stderr", err), ("csv", path)):
            record[key].append(value)
        if rc:
            break
    return record


def run_solve(spec: dict, state: dict, stem: Path) -> dict:
    k, eps = repr(spec["k"]), repr(spec["eps"])
    flat = workloads.FLAT_SOLVE
    loop, flat_loop = f"{stem}_loop.csv", f"{stem}_flat.csv"
    steps = (
        ["solve", "--k", k, "--eps", eps, "--field", workloads.QUADRATIC,
         "--box", workloads.box_text(spec["box"]), "--grid", str(spec["grid"]),
         "--n-samples", str(workloads.N_SAMPLES), "--out", loop],
        ["verify", "--in", loop, "--k", k],
        ["euclid", "solve", "--k", repr(flat["k"]), "--eps", repr(flat["eps"]),
         "--field", workloads.QUADRATIC, "--box", workloads.box_text(flat["box"]),
         "--grid", str(spec["grid"]), "--n-samples", str(workloads.N_SAMPLES),
         "--out", flat_loop],
    )
    record = {"rc": [], "stdout": [], "stderr": [], "loop": loop, "flat": flat_loop}
    for argv in steps:
        rc, out, err = _cli(argv)
        for key, value in (("rc", rc), ("stdout", out), ("stderr", err)):
            record[key].append(value)
        if rc:
            break
    return record


def run_reduced_map(spec: dict, state: dict, stem: Path) -> dict:
    from hyploop import reduction

    field = state["fields"][workloads.QUADRATIC]
    k = spec["k"]
    rows = []
    try:
        for eps in spec["eps"]:
            for z in spec["centers"]:
                st = reduction.reduce_at(eps, z, k, field, workloads.N_SAMPLES)
                offset = reduction.reduced_energy_offset(eps, z, k, field,
                                                         workloads.N_SAMPLES, state=st)
                grad = reduction.reduced_gradient(eps, z, k, field,
                                                  workloads.N_SAMPLES, state=st)
                rows.append((eps, z, st, offset, grad))
    except Exception as exc:  # a failed operation is reported, not fatal
        return {"rc": [4], "stderr": [f"{type(exc).__name__}: {exc}"], "rows": rows}
    return {"rc": [0], "stderr": [""], "rows": rows}


def save_reduced_map(record: dict, stem: Path) -> dict:
    """Store the map rows of one operation; done outside the timed region."""
    rows = record.pop("rows")
    if rows:
        np.savez(
            f"{stem}_map.npz",
            eps=np.array([r[0] for r in rows]),
            z=np.array([r[1] for r in rows]),
            t=np.array([r[2].t for r in rows]),
            theta=np.array([r[2].theta for r in rows]),
            constraint_res=np.array([r[2].constraint_res for r in rows]),
            samples=np.array([r[2].loop.samples for r in rows]),
            offset=np.array([r[3] for r in rows]),
            grad=np.array([r[4] for r in rows]),
        )
        record["map"] = f"{stem}_map.npz"
    return record


RUNNERS = {"landscape": run_landscape, "solve": run_solve, "reduced_map": run_reduced_map}


def run_rounds(args, ops, state, tracer) -> list[dict]:
    """Whole rounds until ``args.seconds`` have passed.

    With tracing, rounds alternate untraced and traced (untraced first), and
    at least one of each runs, so the run reports its own tracing overhead.
    """
    runner = RUNNERS[args.workload]
    records = []
    start = time.perf_counter()
    round_no = 0
    while True:
        traced = tracer is not None and round_no % 2 == 1
        if traced:
            tracer.install()
        for j, spec in enumerate(ops):
            stem = args.out / f"r{round_no}o{j}"
            if traced:
                tracer.op = len(records)
            t0 = time.perf_counter()
            record = runner(spec, state, stem)
            seconds = time.perf_counter() - t0
            if args.workload == "reduced_map":
                record = save_reduced_map(record, stem)
            record.update(round=round_no, op=j, seconds=seconds, traced=traced,
                          ok=all(rc == 0 for rc in record["rc"]))
            records.append(record)
        if traced:
            tracer.uninstall()
        round_no += 1
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or round_no >= 2):
            return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.make_round(args.workload, args.seed, args.tiny)
    if args.setup_only:
        print(json.dumps(setup(args.workload, ops)["times"]))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        import_s = import_program()
        tracer = Tracer()
        tracer.install()  # set-up spans carry op -1
        state = prepare(args.workload, ops)
        tracer.uninstall()
        state["times"] = {"import_s": import_s}
    else:
        state = setup(args.workload, ops)

    records = run_rounds(args, ops, state, tracer)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "setup": state["times"],
        "peak_rss_mb": peak_rss_mb(),
        "records": records,
    }
    if tracer is not None:
        from tracing import layer_metrics

        traced = [r["seconds"] for r in records if r["traced"] and r["ok"]]
        plain = [r["seconds"] for r in records if not r["traced"] and r["ok"]]
        metrics = layer_metrics(tracer.spans, sum(r["traced"] for r in records))
        metrics["setup.import_s"] = state["times"]["import_s"]
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0)
        result["layers"] = metrics
        tracer.write(args.out / "spans.csv")
    with open(args.out / "result.json", "w") as fh:
        json.dump(result, fh, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
