"""Run the same commands in two checkouts and report every difference in their outputs.

    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR
    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR --case "kernel --k 2 --n-samples 8"

PARENT_DIR and CHANGE_DIR are checkouts (for example `git archive` copies)
that each hold `src/hyploop` and `demos/`.  Each case runs once per
checkout, in a fresh temporary directory, with that checkout's `src/` on
PYTHONPATH and PYTHONDONTWRITEBYTECODE=1.  The built-in cases are the
README command-line examples, `euclid melnikov` (also at k = 0.25, where
the flat value rule refines), three multi-start critical-point searches
(`melnikov` of sin(2 z1) cos(2 z2) at k = 3 and grid 16, 7 points; `euclid
melnikov` of that field at k = 2 and grid 16, 8 points; the transcendental
`melnikov` at the default grid 32), a transcendental solve, a k = 1.3 solve
(each solve's loop file verified again, the flat one too), a long
correction chord (k = 1.3, eps = 0.05), a transcendental `reduce`, every
non-zero exit that prints a report (no critical point, a blocked solve, a
failed first continuation target, K not finite on a verified loop) and
every script in `demos/`; `--case ARGS`, repeatable, runs those `hyploop`
command lines instead.
The exit code, stdout and stderr of every command, and every file a case
leaves in its directory, are compared byte for byte.  Prints each
difference and exits 1 if there is one, else prints the number of
commands compared and exits 0.  Only the standard library is used;
nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

QUADRATIC = "z1^2 + (z2-2)^2"
TRANSCENDENTAL = "exp(-z1^2)*sin(z2) + tanh(z1*z2)"
SADDLES = "sin(2*z1)*cos(2*z2)"  # minima, maxima and saddles: a search with many starts
BOX = "-0.6,0.6,1.2,2.8"
DEMOS = ("01_reference_circle", "02_curvature_fields", "03_linearized_kernel",
         "04_melnikov_landscape", "05_perturbed_solve", "06_euclidean_oracle")

# name -> the commands run in one directory, in order: hyploop arguments, or a demo script
CASES = {
    "melnikov": [["melnikov", "--k", "2", "--field", QUADRATIC, "--box", BOX, "--grid", "16"]],
    "solve": [["solve", "--k", "2", "--eps", "0.01", "--field", QUADRATIC, "--box", BOX,
               "--grid", "12", "--out", "loop.csv"],
              ["verify", "--in", "loop.csv", "--k", "2"],
              ["verify", "--in", "loop.csv", "--k", "2", "--field", "exp(1000*z2)"]],  # exit 4
    "reduce": [["reduce", "--k", "2", "--eps", "0.01", "--field", QUADRATIC, "--z", "0,2"]],
    "reduce, long chord": [["reduce", "--k", "1.3", "--eps", "0.05", "--field", QUADRATIC,
                            "--z", "0,1.5"]],
    "transcendental reduce": [["reduce", "--k", "2", "--eps", "0.01", "--field", TRANSCENDENTAL,
                               "--z", "0.3,1.9"]],
    "continue": [["continue", "--k", "2", "--field", QUADRATIC, "--box", BOX,
                  "--eps-list", "0.001,0.01,0.05", "--out", "chain"]],
    "kernel": [["kernel", "--k", "2"]],
    "euclid solve": [["euclid", "solve", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
                      "--box", "-0.6,0.6,1.4,2.6"],
                     ["verify", "--in", "loop.csv", "--k", "2"]],
    "euclid melnikov": [["euclid", "melnikov", "--k", "2", "--field", QUADRATIC,
                         "--box", "-0.6,0.6,1.4,2.6", "--grid", "8"]],
    "euclid melnikov, small k": [["euclid", "melnikov", "--k", "0.25", "--field", TRANSCENDENTAL,
                                  "--box", BOX, "--grid", "4"]],
    "melnikov, multi-start": [["melnikov", "--k", "3", "--field", SADDLES,
                               "--box", "-1.5,1.5,1.2,2.8", "--grid", "16"]],
    "euclid melnikov, multi-start": [["euclid", "melnikov", "--k", "2", "--field", SADDLES,
                                      "--box", "-1.5,1.5,-1,1", "--grid", "16"]],
    "transcendental melnikov": [["melnikov", "--k", "2", "--field", TRANSCENDENTAL,
                                 "--box", BOX]],
    "transcendental solve": [["solve", "--k", "2", "--eps", "0.01", "--field", TRANSCENDENTAL,
                              "--box", BOX, "--grid", "12", "--out", "loop.csv"],
                             ["verify", "--in", "loop.csv", "--k", "2"]],
    "k = 1.3 solve": [["solve", "--k", "1.3", "--eps", "0.01", "--field", QUADRATIC,
                       "--box", BOX, "--grid", "12", "--out", "loop.csv"],
                      ["verify", "--in", "loop.csv", "--k", "1.3"]],
    # the other report-printing exits: 2 (no critical point, blocked) and 4
    "melnikov, no critical point": [["melnikov", "--k", "2", "--field", "z1", "--box", BOX,
                                     "--grid", "4"]],
    "solve, blocked": [["solve", "--k", "1.001", "--eps", "-0.01", "--field", "1", "--box", BOX,
                        "--grid", "4"]],
    "solve, no critical point": [["solve", "--k", "2", "--eps", "0.01", "--field", "z1",
                                  "--box", BOX, "--grid", "4"]],
    "continue, first target fails": [["continue", "--k", "2", "--field", QUADRATIC, "--box", BOX,
                                      "--eps-list", "5"]],
    **{name: [[f"demos/{name}.py"]] for name in DEMOS},
}


def run_case(checkout: Path, commands: list[list[str]]) -> tuple[list, dict]:
    """Run a case's commands in a fresh directory: (exit code, stdout, stderr) each, and the files left."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        results = []
        for args in commands:
            argv = ([str(checkout / args[0])] if args[0].startswith("demos/")
                    else ["-m", "hyploop.cli", *args])
            proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env, capture_output=True)
            results.append((proc.returncode, proc.stdout, proc.stderr))
        files = {str(p.relative_to(tmp)): p.read_bytes()
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
    return results, files


def differences(name: str, commands, parent, change) -> list[str]:
    """One line per output of the case that differs between the two sides."""
    out = []
    for args, before, after in zip(commands, parent[0], change[0]):
        label = shlex.join(args)
        for what, a, b in zip(("exit code", "stdout", "stderr"), before, after):
            if a != b:
                out.append(f"{name}: `{label}`: {what} differs: {a!r:.200} != {b!r:.200}")
    for path in sorted(parent[1].keys() | change[1].keys()):
        if parent[1].get(path) != change[1].get(path):
            out.append(f"{name}: file {path} differs (or is written on one side only)")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--case", action="append", metavar="ARGS",
                        help="a hyploop command line to compare instead of the built-in cases")
    args = parser.parse_args(argv)

    cases = {text: [shlex.split(text)] for text in args.case} if args.case else CASES
    parent, change = args.parent.resolve(), args.change.resolve()
    found = []
    for name, commands in cases.items():
        found += differences(name, commands, run_case(parent, commands),
                             run_case(change, commands))
    for line in found:
        print(line)
    if found:
        return 1
    print(f"no difference in {sum(map(len, cases.values()))} commands of {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
