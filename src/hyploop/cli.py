"""Command-line front end: config parsing, dispatch, machine-readable reports.

Exit codes: 0 success; 2 a nonexistence condition fired or no critical
point was found; 3 configuration or parse error, or an output that cannot be
written; 4 numerical failure, or an array too large to allocate.
All floating-point output is printed with 17 significant digits, so
identical configurations produce bit-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import re
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from . import euclidean, melnikov
from .errors import FieldSyntaxError, HyploopError, NoCritical
from .fields import BinOp, Const, PlaneBox, RegionBox, check_nonexistence, eval_field, parse_field
from .halfplane import HALFPLANE
from .linearized import kernel_report
from .loops import curvature_radius, fmt, load_loop, save_loop, verify_solution
from .reduction import continue_eps, reduce_at, solve_full

SCHEMA = "hyploop/1"

EXIT_OK = 0
EXIT_BLOCKED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# 17-significant-digit JSON helpers
# ---------------------------------------------------------------------------


def to_json(value, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits (json.dumps would not).

    Non-finite floats have no JSON spelling and are written as null.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(np.asarray(value).tolist()) if isinstance(value, np.ndarray) else list(value)
        if not seq:
            return "[]"
        body = ", ".join(to_json(v, indent + 1) for v in seq)
        if len(body) < 80:
            return "[" + body + "]"
        items = ",\n".join(f"{pad}  {to_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt(value) if np.isfinite(value) else "null"
    return json.dumps(value)


def emit(command: str, report: dict, summary: str):
    """The JSON report, headed by the schema and the command, on stdout; the summary on stderr."""
    print(to_json({"schema": SCHEMA, "command": command, **report}))
    print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # treat "-1,1,1,3" and friends as values, not flags (flags are words)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):  # exit 3, not argparse's default 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_floats(value, count: int, what: str) -> list[float]:
    """Finite floats from comma-separated text, a list or a single number; no bool."""
    items = value.split(",") if isinstance(value, str) else value
    items = items if isinstance(items, list) else [items]
    try:
        if any(isinstance(v, bool) for v in items):  # float(True) would read 1
            raise TypeError
        values = [float(v) for v in items]
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        raise ConfigError(f"{what} must be comma-separated numbers, got {value!r}")
    if count and len(values) != count:
        raise ConfigError(f"{what} needs {count} comma-separated numbers, got {len(values)}")
    if not all(np.isfinite(values)):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return values


def _parse_int(value, what: str) -> int:
    """An integer from a flag or a config file; no float, bool or text."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _text(value, key, flag, euclid):
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be text, got {value!r}")
    return value


def _numbers(count: int):
    """Rule for ``count`` comma-separated numbers, any count if 0."""
    return lambda value, key, flag, euclid: tuple(_parse_floats(value, count, flag))


def _center(value, key, flag, euclid):
    z = tuple(_parse_floats(value, 2, flag))
    if not z[1] > 0:
        raise ConfigError(f"{flag} needs z2 > 0, got {z[1]}")
    return z


def _number(value, key, flag, euclid) -> float:
    return _parse_floats(value, 1, flag)[0]


def _curvature(value, key, flag, euclid) -> float:
    k = _parse_floats(value, 1, flag)[0]
    if not euclid:
        try:
            curvature_radius(k)  # the half-plane bounds on k, stated once
        except ValueError as exc:
            raise ConfigError(f"{flag}: {exc}")
    elif not k > 0:
        raise ConfigError(f"euclid commands need k > 0, got {k}")
    elif not np.isfinite(k * k):
        raise ConfigError(f"{flag} is too large: its square overflows, got {k}")
    return k


def _box(value, key, flag, euclid):
    try:
        return (PlaneBox if euclid else RegionBox)(*_parse_floats(value, 4, flag))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _samples(value, key, flag, euclid) -> int:
    n = _parse_int(value, flag)
    if n < 4 or n & (n - 1):
        raise ConfigError(f"{flag} must be a power of two >= 4, got {n}")
    return n


def _grid(value, key, flag, euclid) -> int:
    n = _parse_int(value, flag)
    if n < 2:
        raise ConfigError(f"{flag} must be >= 2, got {n}")
    return n


# Each setting, once: its config key (and settings attribute), its flag, its argparse
# options, the rule read(value, key, flag, euclid) that reads a flag or config value
# and checks it, and its value when unset.  Settings are read, and fail, in this order.
SETTINGS = (
    ("field", "--field", {}, _text, None),
    ("out", "--out", {}, _text, None),
    ("infile", "--in", {"help": "loop CSV to verify"}, _text, None),
    ("k", "--k", {"type": float}, _curvature, None),
    ("box", "--box", {"help": "z1min,z1max,z2min,z2max"}, _box, None),
    ("z", "--z", {"help": "z1,z2"}, _center, None),
    ("eps_list", "--eps-list", {"help": "comma-separated eps targets"}, _numbers(0), None),
    ("n_samples", "--n-samples", {"type": int}, _samples, 256),
    ("grid", "--grid", {"type": int}, _grid, 32),
    ("eps", "--eps", {"type": float}, _number, 0.0),
)


def _build_config(args, euclid: bool = False) -> argparse.Namespace:
    """The settings of a run: one attribute per SETTINGS key, and ``eps_given``."""
    loaded = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config!r} must hold a JSON object")
        unknown = sorted(set(loaded) - {key for key, *_ in SETTINGS})
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)} in {args.config!r}")
        # null leaves a setting unset, as if its key were absent
        loaded = {key: value for key, value in loaded.items() if value is not None}
    values = {}
    for key, flag, _, read, _ in SETTINGS:
        if key == "k" and args.command == "verify":
            read = _number  # _cmd_verify applies the rule of the plane the sidecar names
        given = getattr(args, key, None)  # a flag overrides the config file
        if given is not None or key in loaded:
            values[key] = read(loaded[key] if given is None else given, key, flag, euclid)
        elif key == "k":
            raise ConfigError("--k is required")
    unset = {key: value for key, *_, value in SETTINGS}
    return argparse.Namespace(**{**unset, **values}, eps_given="eps" in values)


def _parsed_field(cfg):
    if cfg.field is None:
        raise ConfigError("--field is required for this command")
    try:
        return parse_field(cfg.field)
    except FieldSyntaxError as exc:
        raise ConfigError(f"bad field text: {exc}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _output(path: str) -> str:
    """``path``, once its directory is known to exist: a missing one fails before computing."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return path


def _point_dict(p) -> dict:
    return {
        "z1": p.z[0],
        "z2": p.z[1],
        "F": p.value,
        "grad": list(p.grad),
        "hess": [list(row) for row in p.hess],
        "classification": p.classification,
    }


def _cmd_melnikov(cfg, euclid: bool = False) -> int:
    if cfg.box is None:
        raise ConfigError("--box is required for melnikov")
    expr = _parsed_field(cfg)
    out = _output(cfg.out or "melnikov.csv")
    search = melnikov.find_critical(cfg.k, expr, cfg.box, cfg.grid,
                                    euclidean.FLAT if euclid else HALFPLANE)
    with Path(out).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z1", "z2", "F", "dF1", "dF2"])
        writer.writerows([fmt(v) for v in row] for row in zip(*search.grid))
    command = "euclid melnikov" if euclid else "melnikov"
    report = {
        "k": cfg.k,
        "field": cfg.field,
        "grid": cfg.grid,
        "csv": str(out),
        "points": [_point_dict(p) for p in search.points],
        "interior_min": search.interior_min,
        "interior_max": search.interior_max,
        "note": search.note,
    }
    if not search.points:
        emit(command, report, f"no critical point: {search.note}")
        return EXIT_BLOCKED
    emit(command, report, f"{len(search.points)} critical point(s); CSV in {out}")
    return EXIT_OK


def _cmd_kernel(cfg) -> int:
    rep = kernel_report(cfg.k, cfg.n_samples)
    report = {
        "k": rep.k,
        "n": rep.n,
        "dimension": rep.dimension,
        "sigma_min_nonzero": rep.sigma_min_nonzero,
        "max_principal_angle": rep.max_principal_angle,
        "per_mode": [
            {"n": m, "zeros": z, "sigma_min": lo, "sigma_max": hi}
            for (m, z, lo, hi) in rep.per_mode
        ],
    }
    emit("kernel", report,
         f"kernel dimension {rep.dimension}, sigma_min_nonzero {rep.sigma_min_nonzero:.6g}")
    return EXIT_OK


def _cmd_verify(cfg) -> int:
    if cfg.infile is None:
        raise ConfigError("--in is required for verify")
    try:
        loop, meta = load_loop(cfg.infile)
        field_text = cfg.field if cfg.field is not None else (meta or {}).get("field")
        eps = cfg.eps if cfg.eps_given else float((meta or {}).get("eps", 0.0))
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot read loop {cfg.infile!r}: {exc}")
    flat = (meta or {}).get("plane") == "flat"  # written by euclid solve
    _curvature(cfg.k, "k", "--k", flat)
    if not (flat or loop.is_upper):
        raise ConfigError(f"loop {cfg.infile!r} leaves the half-plane (a sample has u2 <= 0)")
    expr = parse_field(field_text) if field_text else None
    if expr is None:
        eps = 0.0
    rep = verify_solution(loop, cfg.k, eps, expr, euclidean.FLAT if flat else HALFPLANE)
    report = {
        "k": cfg.k,
        "eps": eps,
        "field": field_text,
        "in": str(cfg.infile),
        "defects": asdict(rep),
    }
    if rep.mu == 0 and np.isinf(rep.speed_defect):
        emit("verify", report, "hyploop: numerical failure: degenerate loop (numerically "
                               "constant or its speed collapses); defects are null")
        return EXIT_NUMERICAL
    if not np.isfinite(rep.residual_sup):
        emit("verify", report, "hyploop: numerical failure: K is not finite on the loop; "
                               "the residual and curvature defects are null")
        return EXIT_NUMERICAL
    emit("verify", report, rep.summary())
    return EXIT_OK


def _cmd_reduce(cfg) -> int:
    if cfg.z is None:
        raise ConfigError("--z is required for reduce")
    expr = _parsed_field(cfg)
    state = reduce_at(cfg.eps, cfg.z, cfg.k, expr, cfg.n_samples)
    report = {
        "k": cfg.k,
        "eps": cfg.eps,
        "field": cfg.field,
        "z": list(state.z),
        "t": state.t,
        "theta": list(state.theta),
        "residual_sup": state.residual_sup,
        "constraint_res": list(state.constraint_res),
        "iterations": state.iterations,
        "eta_sup": float(np.abs(state.eta).max()),
        "eta_samples": [list(row) for row in state.eta],
    }
    emit("reduce", report,
         f"reduced at z={state.z}: t={state.t:.3e}, |theta|={np.abs(state.theta).max():.3e}")
    return EXIT_OK


def _blocked_evidence(cfg, expr):
    """Sampled total-curvature bound: sup |k + eps*K| <= 1 admits no loop.

    Returns the nonexistence report of k + eps*K on the sample grid that
    decided, or None when the bound does not hold.
    """
    total = BinOp("+", Const(cfg.k), BinOp("*", Const(cfg.eps), expr))
    samples = max(cfg.grid, 16)
    g1, g2 = cfg.box.grid(samples)
    if not np.all(np.abs(eval_field(total, g1.ravel(), g2.ravel())) <= 1.0):  # NaN: no bound
        return None
    return check_nonexistence(total, cfg.box, samples)


def _cmd_solve(cfg, euclid: bool = False) -> int:
    if cfg.box is None:
        raise ConfigError("--box is required for solve")
    expr = _parsed_field(cfg)
    out = _output(cfg.out or "loop.csv")
    command = "euclid solve" if euclid else "solve"
    evidence = None if euclid else _blocked_evidence(cfg, expr)
    if evidence is not None:
        report = {
            "k": cfg.k,
            "eps": cfg.eps,
            "field": cfg.field,
            "blocked": "total curvature k + eps*K has |.| <= 1 on the sampled box; "
                       "no such loop exists",
            "nonexistence": asdict(evidence),
        }
        emit(command, report, "blocked: bounded total curvature (sampled)")
        return EXIT_BLOCKED
    solve = euclidean.solve_full_euclid if euclid else solve_full
    try:
        result = solve(cfg.eps, cfg.k, expr, cfg.box, cfg.grid, cfg.n_samples)
    except NoCritical as exc:
        emit(command, {"note": str(exc)}, f"no critical point: {exc}")
        return EXIT_BLOCKED
    _save_loop(out, cfg, result, euclid)
    report = {
        "k": cfg.k,
        "eps": result.eps,
        "field": cfg.field,
        "z_critical": list(result.z_critical),
        "melnikov_seed": list(result.melnikov_seed) if result.melnikov_seed else None,
        "mu": result.mu,
        "embedded": result.embedded,
        "defects": asdict(result.defects),
        "c0_dist": result.c0_dist,
        "c2_dist": result.c2_dist,
        "t": result.state.t,
        "out": str(out),
    }
    emit(command, report, f"solved: {result.defects.summary()}; loop in {out}")
    return EXIT_OK


def _save_loop(path, cfg, result, euclid: bool = False):
    """The loop of a SolveReport, with the sidecar that ``verify`` reads; a flat one says so."""
    save_loop(path, result.loop, {
        "k": cfg.k, "eps": result.eps, "field": cfg.field, "N": cfg.n_samples,
        "z_critical": list(result.z_critical), "schema": SCHEMA,
        **({"plane": "flat"} if euclid else {}),
    })


def _cmd_continue(cfg) -> int:
    if cfg.box is None or not cfg.eps_list:
        raise ConfigError("--box and --eps-list are required for continue")
    expr = _parsed_field(cfg)
    out_prefix = cfg.out or "continued"
    _output(f"{out_prefix}_0.csv")
    result = continue_eps(cfg.k, expr, cfg.box, cfg.eps_list, cfg.grid, cfg.n_samples)
    solved = []
    for i, rep in enumerate(result.reports):
        path = f"{out_prefix}_{i}.csv"
        _save_loop(path, cfg, rep)
        solved.append({
            "eps": rep.eps,
            "z_critical": list(rep.z_critical),
            "defects": asdict(rep.defects),
            "out": path,
        })
    report = {
        "k": cfg.k,
        "field": cfg.field,
        "eps_bar": result.eps_bar,
        "solved": solved,
        "failure": (
            {"eps": result.failure[0], "reason": result.failure[1]}
            if result.failure else None
        ),
    }
    if not result.reports:
        emit("continue", report, f"continuation failed at the first target: {result.failure}")
        return EXIT_NUMERICAL
    emit("continue", report,
         f"continuation solved {len(solved)} target(s), eps_bar={result.eps_bar:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


# subcommand: (handler, help, setting keys in --help order); the flat-plane
# variants under "euclid" take the settings of their half-plane namesakes
COMMANDS = {
    "solve": (_cmd_solve, "solve for a prescribed-curvature loop",
              ("k", "eps", "field", "box", "grid", "n_samples", "out")),
    "reduce": (_cmd_reduce, "one correction solve at fixed (eps, z)",
               ("k", "eps", "field", "n_samples", "z")),
    "continue": (_cmd_continue, "warm-started continuation in eps",
                 ("k", "field", "box", "grid", "n_samples", "out", "eps_list")),
    "melnikov": (_cmd_melnikov, "disk-average landscape and critical points",
                 ("k", "field", "box", "grid", "out")),
    "kernel": (_cmd_kernel, "frequency-block kernel survey", ("k", "n_samples")),
    "verify": (_cmd_verify, "re-verify a stored loop", ("k", "eps", "field", "infile")),
}


def _add_settings(p, keys):
    p.add_argument("--config", help="JSON file with setting keys; flags override it")
    rows = {row[0]: row for row in SETTINGS}
    for key in keys:
        _, flag, options, *_ = rows[key]
        p.add_argument(flag, dest=key, **options)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later ``main`` call."""
    parser = _Parser(prog="hyploop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in COMMANDS.items():
        _add_settings(sub.add_parser(name, help=help_text), keys)
    eu = sub.add_parser("euclid", help="flat-plane variants").add_subparsers(
        dest="euclid_command", required=True
    )
    for name in ("solve", "melnikov"):
        _add_settings(eu.add_parser(name), COMMANDS[name][2])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    euclid = args.command == "euclid"
    try:
        cfg = _build_config(args, euclid=euclid)
        handler = COMMANDS[args.euclid_command if euclid else args.command][0]
        # overflow and NaN reach the user as one error line, not as numpy warnings:
        # the NaN checks of the correction solve and the quadratures still fire
        with np.errstate(all="ignore"):
            return handler(cfg, euclid=True) if euclid else handler(cfg)
    except (ConfigError, FieldSyntaxError) as exc:
        print(f"hyploop: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoCritical as exc:
        print(f"hyploop: {exc}", file=sys.stderr)
        return EXIT_BLOCKED
    except HyploopError as exc:
        print(f"hyploop: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # reading an input raises ConfigError: this is an output
        print(f"hyploop: config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"hyploop: numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
