"""Command-line front end: config parsing, dispatch, machine-readable reports.

Exit codes: 0 success; 2 a nonexistence condition fired or no critical
point was found; 3 configuration or parse error; 4 numerical failure.
All floating-point output is printed with 17 significant digits, so
identical configurations produce bit-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import euclidean, melnikov
from .errors import (
    EvalDomainError,
    FieldSyntaxError,
    HyploopError,
    NewtonDiverged,
    NoCritical,
    NonDifferentiable,
    NotEmbedded,
    QuadratureFailure,
    StepTooLarge,
)
from .fields import PlaneBox, RegionBox, check_nonexistence, eval_field, parse_field
from .linearized import kernel_report
from .loops import load_loop, save_loop, verify_solution
from .reduction import continue_eps, reduce_at, solve_full

SCHEMA = "hyploop/1"

EXIT_OK = 0
EXIT_BLOCKED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

NUMERICAL_ERRORS = (NewtonDiverged, StepTooLarge, QuadratureFailure, NotEmbedded,
                    EvalDomainError, NonDifferentiable)


# ---------------------------------------------------------------------------
# 17-significant-digit JSON / CSV helpers
# ---------------------------------------------------------------------------


def fmt(x) -> str:
    return format(float(x), ".17g")


def to_json(value, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits (json.dumps would not)."""
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
        return fmt(value)
    return json.dumps(value)


def emit(report: dict, summary: str):
    print(to_json(report))
    print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    k: float
    eps: float = 0.0
    eps_given: bool = False
    eps_list: list | None = None
    field: str | None = None
    box: RegionBox | None = None
    grid: int = 32
    n_samples: int = 256
    out: str | None = None
    threads: int = 1
    z: tuple | None = None
    infile: str | None = None
    tolerances: dict | None = None

    def tol(self, name: str, default: float) -> float:
        if self.tolerances and name in self.tolerances:
            return float(self.tolerances[name])
        return default

    def parsed_field(self):
        if self.field is None:
            raise ConfigError("--field is required for this command")
        try:
            return parse_field(self.field)
        except FieldSyntaxError as exc:
            raise ConfigError(f"bad field text: {exc}")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # treat "-1,1,1,3" and friends as values, not flags (flags are words)
        import re

        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):  # exit 3, not argparse's default 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}")
    if count and len(values) != count:
        raise ConfigError(f"{what} needs {count} comma-separated numbers, got {len(values)}")
    return values


def _build_config(args, euclid: bool = False) -> RunConfig:
    merged = {}
    if getattr(args, "config", None):
        try:
            merged.update(json.loads(Path(args.config).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    for key in ("k", "eps", "eps_list", "field", "box", "grid",
                "n_samples", "out", "threads", "z"):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if getattr(args, "infile", None) is not None:
        merged["infile"] = args.infile

    if "k" not in merged:
        raise ConfigError("--k is required")
    k = float(merged["k"])
    if euclid:
        if not k > 0:
            raise ConfigError(f"euclid commands need k > 0, got {k}")
    elif not k > 1:
        raise ConfigError(f"half-plane commands need k > 1, got {k}")

    box = merged.get("box")
    if isinstance(box, str):
        box = _parse_floats(box, 4, "--box")
    if box is not None:
        try:
            box_cls = PlaneBox if euclid else RegionBox
            box = box_cls(float(box[0]), float(box[1]), float(box[2]), float(box[3]))
        except ValueError as exc:
            raise ConfigError(str(exc))

    z = merged.get("z")
    if isinstance(z, str):
        z = tuple(_parse_floats(z, 2, "--z"))
    elif z is not None:
        z = tuple(float(v) for v in z)

    eps_list = merged.get("eps_list")
    if isinstance(eps_list, str):
        eps_list = _parse_floats(eps_list, 0, "--eps-list")

    n_samples = int(merged.get("n_samples", 256))
    if n_samples < 4 or n_samples & (n_samples - 1):
        raise ConfigError(f"--n-samples must be a power of two >= 4, got {n_samples}")
    grid = int(merged.get("grid", 32))
    if grid < 2:
        raise ConfigError(f"--grid must be >= 2, got {grid}")

    tolerances = merged.get("tolerances")
    if tolerances is not None and not isinstance(tolerances, dict):
        raise ConfigError("config key 'tolerances' must be an object")

    return RunConfig(
        k=k,
        eps=float(merged.get("eps", 0.0)),
        eps_given="eps" in merged,
        eps_list=eps_list,
        field=merged.get("field"),
        box=box,
        grid=grid,
        n_samples=n_samples,
        out=merged.get("out"),
        threads=int(merged.get("threads", 1)),
        z=z,
        infile=merged.get("infile"),
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------


def _defects_dict(rep) -> dict:
    return {
        "residual_sup": rep.residual_sup,
        "speed_defect": rep.speed_defect,
        "curvature_defect": rep.curvature_defect,
        "killing": list(rep.killing),
        "mu": rep.mu,
        "embedded": rep.embedded,
        "length": rep.length,
    }


def _point_dict(p) -> dict:
    return {
        "z1": p.z[0],
        "z2": p.z[1],
        "F": p.value,
        "grad": list(p.grad),
        "hess": [list(row) for row in p.hess],
        "classification": p.classification,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_melnikov(cfg: RunConfig, euclid: bool = False) -> int:
    if cfg.box is None:
        raise ConfigError("--box is required for melnikov")
    expr = cfg.parsed_field()
    find = euclidean.find_critical_euclid if euclid else melnikov.find_critical
    search = find(cfg.k, expr, cfg.box, cfg.grid)
    out = cfg.out or "melnikov.csv"
    with Path(out).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z1", "z2", "F", "dF1", "dF2"])
        writer.writerows([fmt(v) for v in row] for row in zip(*search.grid))
    report = {
        "schema": SCHEMA,
        "command": "euclid melnikov" if euclid else "melnikov",
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
        emit(report, f"no critical point: {search.note}")
        return EXIT_BLOCKED
    emit(report, f"{len(search.points)} critical point(s); CSV in {out}")
    return EXIT_OK


def _cmd_kernel(cfg: RunConfig) -> int:
    rep = kernel_report(cfg.k, cfg.n_samples)
    report = {
        "schema": SCHEMA,
        "command": "kernel",
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
    emit(report, f"kernel dimension {rep.dimension}, sigma_min_nonzero {rep.sigma_min_nonzero:.6g}")
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.infile is None:
        raise ConfigError("--in is required for verify")
    loop, meta = load_loop(cfg.infile)
    field_text = cfg.field if cfg.field is not None else (meta or {}).get("field")
    expr = parse_field(field_text) if field_text else None
    eps = cfg.eps if cfg.eps_given else float((meta or {}).get("eps", 0.0))
    if expr is None:
        eps = 0.0
    rep = verify_solution(loop, cfg.k, eps, expr)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "k": cfg.k,
        "eps": eps,
        "field": field_text,
        "in": str(cfg.infile),
        "defects": _defects_dict(rep),
    }
    emit(report, rep.summary())
    return EXIT_OK


def _cmd_reduce(cfg: RunConfig) -> int:
    if cfg.z is None:
        raise ConfigError("--z is required for reduce")
    expr = cfg.parsed_field()
    state = reduce_at(cfg.eps, cfg.z, cfg.k, expr, cfg.n_samples,
                      tol=cfg.tol("reduce_tol", 1e-11))
    report = {
        "schema": SCHEMA,
        "command": "reduce",
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
    emit(report, f"reduced at z={state.z}: t={state.t:.3e}, |theta|={np.abs(state.theta).max():.3e}")
    return EXIT_OK


def _curvature_blocked(cfg: RunConfig, expr) -> bool:
    """Sampled total-curvature bound: sup |k + eps*K| <= 1 admits no loop."""
    g1, g2 = cfg.box.grid(max(cfg.grid, 16))
    total = cfg.k + cfg.eps * eval_field(expr, g1.ravel(), g2.ravel())
    return bool(np.abs(total).max() <= 1.0)


def _cmd_solve(cfg: RunConfig, euclid: bool = False) -> int:
    if cfg.box is None:
        raise ConfigError("--box is required for solve")
    expr = cfg.parsed_field()
    command = "euclid solve" if euclid else "solve"
    if not euclid and _curvature_blocked(cfg, expr):
        report = {
            "schema": SCHEMA,
            "command": command,
            "k": cfg.k,
            "eps": cfg.eps,
            "field": cfg.field,
            "blocked": "total curvature k + eps*K has |.| <= 1 on the sampled box; "
                       "no such loop exists",
            "nonexistence": _nonexistence_dict(check_nonexistence(expr, cfg.box, cfg.grid)),
        }
        emit(report, "blocked: bounded total curvature (sampled)")
        return EXIT_BLOCKED
    try:
        if euclid:
            result = euclidean.solve_full_euclid(
                cfg.eps, cfg.k, expr, cfg.box, cfg.grid, cfg.n_samples
            )
        else:
            result = solve_full(cfg.eps, cfg.k, expr, cfg.box, cfg.grid, cfg.n_samples)
    except NoCritical as exc:
        emit({"schema": SCHEMA, "command": command, "note": str(exc)},
             f"no critical point: {exc}")
        return EXIT_BLOCKED
    out = cfg.out or "loop.csv"
    save_loop(out, result.loop, {
        "k": cfg.k, "eps": cfg.eps, "field": cfg.field, "N": cfg.n_samples,
        "z_critical": list(result.z_critical), "schema": SCHEMA,
    })
    report = _solve_report_dict(command, cfg, result, out)
    emit(report, f"solved: {result.defects.summary()}; loop in {out}")
    return EXIT_OK


def _solve_report_dict(command, cfg, result, out) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "k": cfg.k,
        "eps": result.eps,
        "field": cfg.field,
        "z_critical": list(result.z_critical),
        "melnikov_seed": list(result.melnikov_seed) if result.melnikov_seed else None,
        "mu": result.mu,
        "embedded": result.embedded,
        "defects": _defects_dict(result.defects),
        "c0_dist": result.c0_dist,
        "c2_dist": result.c2_dist,
        "t": result.state.t if result.state else 0.0,
        "out": str(out),
    }


def _nonexistence_dict(rep) -> dict:
    return {
        "sup_abs": rep.sup_abs,
        "supnorm_le_one": rep.supnorm_le_one,
        "monotone_e1": rep.monotone_e1,
        "monotone_radial": rep.monotone_radial,
        "monotone_squared": rep.monotone_squared,
        "samples": rep.samples,
        "note": rep.note,
    }


def _cmd_continue(cfg: RunConfig) -> int:
    if cfg.box is None or not cfg.eps_list:
        raise ConfigError("--box and --eps-list are required for continue")
    expr = cfg.parsed_field()
    result = continue_eps(cfg.k, expr, cfg.box, cfg.eps_list, cfg.grid, cfg.n_samples)
    out_prefix = cfg.out or "continued"
    solved = []
    for i, rep in enumerate(result.reports):
        path = f"{out_prefix}_{i}.csv"
        save_loop(path, rep.loop, {
            "k": cfg.k, "eps": rep.eps, "field": cfg.field, "N": cfg.n_samples,
            "z_critical": list(rep.z_critical), "schema": SCHEMA,
        })
        solved.append({
            "eps": rep.eps,
            "z_critical": list(rep.z_critical),
            "defects": _defects_dict(rep.defects),
            "out": path,
        })
    report = {
        "schema": SCHEMA,
        "command": "continue",
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
        emit(report, f"continuation failed at the first target: {result.failure}")
        return EXIT_NUMERICAL
    emit(report, f"continuation solved {len(solved)} target(s), eps_bar={result.eps_bar:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_common(p, *names):
    p.add_argument("--config", help="JSON file with RunConfig keys; flags override it")
    if "k" in names:
        p.add_argument("--k", type=float)
    if "eps" in names:
        p.add_argument("--eps", type=float)
    if "field" in names:
        p.add_argument("--field")
    if "box" in names:
        p.add_argument("--box", help="z1min,z1max,z2min,z2max")
    if "grid" in names:
        p.add_argument("--grid", type=int)
    if "n_samples" in names:
        p.add_argument("--n-samples", dest="n_samples", type=int)
    if "out" in names:
        p.add_argument("--out")
    if "threads" in names:
        p.add_argument("--threads", type=int)
    if "z" in names:
        p.add_argument("--z", help="z1,z2")
    if "eps_list" in names:
        p.add_argument("--eps-list", dest="eps_list", help="comma-separated eps targets")
    if "infile" in names:
        p.add_argument("--in", dest="infile", help="loop CSV to verify")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyploop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("solve", help="solve for a prescribed-curvature loop"),
                "k", "eps", "field", "box", "grid", "n_samples", "out", "threads")
    _add_common(sub.add_parser("reduce", help="one correction solve at fixed (eps, z)"),
                "k", "eps", "field", "z", "n_samples")
    _add_common(sub.add_parser("continue", help="warm-started continuation in eps"),
                "k", "field", "box", "grid", "n_samples", "out", "eps_list")
    _add_common(sub.add_parser("melnikov", help="disk-average landscape and critical points"),
                "k", "field", "box", "grid", "out", "threads")
    _add_common(sub.add_parser("kernel", help="frequency-block kernel survey"),
                "k", "n_samples")
    _add_common(sub.add_parser("verify", help="re-verify a stored loop"),
                "k", "eps", "field", "infile")

    eu = sub.add_parser("euclid", help="flat-plane variants").add_subparsers(
        dest="euclid_command", required=True
    )
    _add_common(eu.add_parser("solve"), "k", "eps", "field", "box", "grid", "n_samples", "out")
    _add_common(eu.add_parser("melnikov"), "k", "field", "box", "grid", "out", "threads")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    euclid = args.command == "euclid"
    try:
        cfg = _build_config(args, euclid=euclid)
        command = args.euclid_command if euclid else args.command
        if command == "melnikov":
            return _cmd_melnikov(cfg, euclid=euclid)
        if command == "kernel":
            return _cmd_kernel(cfg)
        if command == "verify":
            return _cmd_verify(cfg)
        if command == "reduce":
            return _cmd_reduce(cfg)
        if command == "solve":
            return _cmd_solve(cfg, euclid=euclid)
        if command == "continue":
            return _cmd_continue(cfg)
        raise ConfigError(f"unknown command {command!r}")
    except (ConfigError, FieldSyntaxError) as exc:
        print(f"hyploop: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoCritical as exc:
        print(f"hyploop: {exc}", file=sys.stderr)
        return EXIT_BLOCKED
    except NUMERICAL_ERRORS as exc:
        print(f"hyploop: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HyploopError as exc:
        print(f"hyploop: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
