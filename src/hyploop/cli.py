"""Command-line front end: config parsing, dispatch, machine-readable reports.

Exit codes, all decided in ``main``: 0 success; 2 a nonexistence condition
fired or no critical point was found; 3 configuration or parse error, or an
output that cannot be written; 4 numerical failure, or an array too large to
allocate.  Every run prints at most one JSON report and exactly one stderr line.
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


def emit(command: str, report: dict):
    """The JSON report, headed by the schema and the command, on stdout."""
    print(to_json({"schema": SCHEMA, "command": command, **report}))


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
    try:
        # the bounds on k of each plane, stated once in the library
        (euclidean.check_curvature if euclid else curvature_radius)(k)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}")
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
SETTINGS_BY_KEY = {row[0]: row for row in SETTINGS}


def _build_config(args, euclid: bool = False) -> argparse.Namespace:
    """The settings of a run: one attribute per SETTINGS key, ``eps_given`` and ``euclid``."""
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
    return argparse.Namespace(**{**unset, **values}, eps_given="eps" in values, euclid=euclid)


def _parsed_field(text):
    if text is None:
        raise ConfigError("--field is required for this command")
    try:
        return parse_field(text)
    except FieldSyntaxError as exc:
        raise ConfigError(f"bad field text: {exc}")


# ---------------------------------------------------------------------------
# Subcommands: each computes from ``cfg``, whose ``expr`` is the field ``main`` parsed,
# and returns (report, summary, exit code); ``main`` prints and exits
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


def _cmd_melnikov(cfg):
    out = _output(cfg.out or "melnikov.csv")
    search = melnikov.find_critical(cfg.k, cfg.expr, cfg.box, cfg.grid,
                                    euclidean.FLAT if cfg.euclid else HALFPLANE)
    with Path(out).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z1", "z2", "F", "dF1", "dF2"])
        writer.writerows([fmt(v) for v in row] for row in zip(*search.grid))
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
        return report, f"no critical point: {search.note}", EXIT_BLOCKED
    return report, f"{len(search.points)} critical point(s); CSV in {out}", EXIT_OK


def _cmd_kernel(cfg):
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
    return (report, f"kernel dimension {rep.dimension}, sigma_min_nonzero "
                    f"{rep.sigma_min_nonzero:.6g}", EXIT_OK)


def _cmd_verify(cfg):
    try:
        loop, meta = load_loop(cfg.infile)
        meta = meta or {}
        # the sidecar's field and eps, by the rules of their flags; a flag or config wins
        field = meta.get("field") if cfg.field is None else cfg.field
        field_text = None if field is None else _text(field, "field", "--field", False)
        eps = cfg.eps if cfg.eps_given else _number(meta.get("eps", 0.0), "eps", "sidecar eps",
                                                    False)
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"cannot read loop {cfg.infile!r}: {exc}")
    flat = meta.get("plane") == "flat"  # written by euclid solve
    _curvature(cfg.k, "k", "--k", flat)
    if not (flat or loop.is_upper):
        raise ConfigError(f"loop {cfg.infile!r} leaves the half-plane (a sample has u2 <= 0)")
    expr = _parsed_field(field_text) if field_text else None
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
        return report, ("hyploop: numerical failure: degenerate loop (numerically constant or "
                        "its speed collapses); defects are null"), EXIT_NUMERICAL
    if not np.isfinite(rep.residual_sup):
        return report, ("hyploop: numerical failure: K is not finite on the loop; "
                        "the residual and curvature defects are null"), EXIT_NUMERICAL
    return report, rep.summary(), EXIT_OK


def _cmd_reduce(cfg):
    state = reduce_at(cfg.eps, cfg.z, cfg.k, cfg.expr, cfg.n_samples)
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
    return (report, f"reduced at z={state.z}: t={state.t:.3e}, "
                    f"|theta|={np.abs(state.theta).max():.3e}", EXIT_OK)


def _blocked_evidence(cfg):
    """Sampled total-curvature bound: sup |k + eps*K| <= 1 admits no loop.

    Returns the nonexistence report of k + eps*K on the sample grid that
    decided, or None when the bound does not hold.
    """
    total = BinOp("+", Const(cfg.k), BinOp("*", Const(cfg.eps), cfg.expr))
    samples = max(cfg.grid, 16)
    g1, g2 = cfg.box.grid(samples)
    if not np.all(np.abs(eval_field(total, g1.ravel(), g2.ravel())) <= 1.0):  # NaN: no bound
        return None
    return check_nonexistence(total, cfg.box, samples)


def _cmd_solve(cfg):
    out = _output(cfg.out or "loop.csv")
    evidence = None if cfg.euclid else _blocked_evidence(cfg)
    if evidence is not None:
        report = {
            "k": cfg.k,
            "eps": cfg.eps,
            "field": cfg.field,
            "blocked": "total curvature k + eps*K has |.| <= 1 on the sampled box; "
                       "no such loop exists",
            "nonexistence": asdict(evidence),
        }
        return report, "blocked: bounded total curvature (sampled)", EXIT_BLOCKED
    solve = euclidean.solve_full_euclid if cfg.euclid else solve_full
    try:
        result = solve(cfg.eps, cfg.k, cfg.expr, cfg.box, cfg.grid, cfg.n_samples)
    except NoCritical as exc:
        return {"note": str(exc)}, f"no critical point: {exc}", EXIT_BLOCKED
    _save_loop(out, cfg, result)
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
    return report, f"solved: {result.defects.summary()}; loop in {out}", EXIT_OK


def _save_loop(path, cfg, result):
    """The loop of a SolveReport, with the sidecar that ``verify`` reads; a flat one says so."""
    save_loop(path, result.loop, {
        "k": cfg.k, "eps": result.eps, "field": cfg.field, "N": cfg.n_samples,
        "z_critical": list(result.z_critical), "schema": SCHEMA,
        **({"plane": "flat"} if cfg.euclid else {}),
    })


def _cmd_continue(cfg):
    out_prefix = cfg.out or "continued"
    _output(f"{out_prefix}_0.csv")
    result = continue_eps(cfg.k, cfg.expr, cfg.box, cfg.eps_list, cfg.grid, cfg.n_samples)
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
        return report, f"continuation failed at the first target: {result.failure}", EXIT_NUMERICAL
    return (report, f"continuation solved {len(solved)} target(s), "
                    f"eps_bar={result.eps_bar:g}", EXIT_OK)


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


# subcommand: (handler, help, setting keys in --help order, required setting keys); the
# flat-plane variants under "euclid" take the settings of their half-plane namesakes
COMMANDS = {
    "solve": (_cmd_solve, "solve for a prescribed-curvature loop",
              ("k", "eps", "field", "box", "grid", "n_samples", "out"), ("box", "field")),
    "reduce": (_cmd_reduce, "one correction solve at fixed (eps, z)",
               ("k", "eps", "field", "n_samples", "z"), ("z", "field")),
    "continue": (_cmd_continue, "warm-started continuation in eps",
                 ("k", "field", "box", "grid", "n_samples", "out", "eps_list"),
                 ("box", "eps_list", "field")),
    "melnikov": (_cmd_melnikov, "disk-average landscape and critical points",
                 ("k", "field", "box", "grid", "out"), ("box", "field")),
    "kernel": (_cmd_kernel, "frequency-block kernel survey", ("k", "n_samples"), ()),
    "verify": (_cmd_verify, "re-verify a stored loop", ("k", "eps", "field", "infile"),
               ("infile",)),
}


def _add_settings(p, keys):
    p.add_argument("--config", help="JSON file with setting keys; flags override it")
    for key in keys:
        _, flag, options, *_ = SETTINGS_BY_KEY[key]
        p.add_argument(flag, dest=key, **options)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later ``main`` call."""
    parser = _Parser(prog="hyploop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys, _) in COMMANDS.items():
        _add_settings(sub.add_parser(name, help=help_text), keys)
    eu = sub.add_parser("euclid", help="flat-plane variants").add_subparsers(
        dest="euclid_command", required=True
    )
    for name in ("solve", "melnikov"):
        _add_settings(eu.add_parser(name), COMMANDS[name][2])
    return parser


def main(argv=None) -> int:
    """Run a command: check its required settings and field, print what it returns, exit once."""
    args = build_parser().parse_args(argv)
    euclid = args.command == "euclid"
    name = args.euclid_command if euclid else args.command
    handler, _, _, required = COMMANDS[name]
    try:
        cfg = _build_config(args, euclid=euclid)
        needed = [key for key in required if key != "field"]
        if any(getattr(cfg, key) in (None, ()) for key in needed):  # () is an empty --eps-list
            raise ConfigError(f"{' and '.join(SETTINGS_BY_KEY[key][1] for key in needed)} "
                              f"{'are' if len(needed) > 1 else 'is'} required for {name}")
        # overflow and NaN reach the user as one error line, not as numpy warnings:
        # the NaN checks of the correction solve and the quadratures still fire
        with np.errstate(all="ignore"):
            cfg.expr = _parsed_field(cfg.field) if "field" in required else None
            report, summary, code = handler(cfg)
        emit(f"euclid {name}" if euclid else name, report)  # stdout may fail: exit 3 below
    except (ConfigError, FieldSyntaxError) as exc:
        summary, code = f"hyploop: config error: {exc}", EXIT_CONFIG
    except NoCritical as exc:
        summary, code = f"hyploop: {exc}", EXIT_BLOCKED
    except HyploopError as exc:
        summary, code = f"hyploop: numerical failure: {type(exc).__name__}: {exc}", EXIT_NUMERICAL
    except OSError as exc:  # reading an input raises ConfigError: this is an output or stdout
        summary, code = f"hyploop: config error: cannot write output: {exc}", EXIT_CONFIG
    except MemoryError as exc:
        summary, code = f"hyploop: numerical failure: out of memory: {exc}", EXIT_NUMERICAL
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
