"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see the lines live).
"""

import json
import time

import numpy as np

from hyploop.cli import main as cli_main
from hyploop.errors import NoCritical
from hyploop.euclidean import (
    FLAT,
    apply_linearization_euclid,
    kernel_basis_euclid,
    reference_circle,
    solve_full_euclid,
)
from hyploop.fields import PlaneBox, RegionBox, check_nonexistence, parse_field
from hyploop.halfplane import translate
from hyploop.linearized import (
    apply_frame_operator,
    apply_linearization,
    from_frame,
    kernel_basis,
    mode_blocks,
)
from hyploop.loops import (
    curvature_radius,
    dot_mean,
    energy,
    loop_length,
    reference_loop,
    residual,
    signed_area,
)
from hyploop.melnikov import asymptotic_check, melnikov_gradient_grid, melnikov_value
from hyploop.reduction import reduce_at, reduced_energy_offset, solve_full

from conftest import band_limited_field, band_limited_loop, linearization_fd

QUAD_TEXT = "z1^2 + (z2-2)^2"
QUADRATIC = parse_field(QUAD_TEXT)
BOX = RegionBox(-0.6, 0.6, 1.2, 2.8)


class Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.checks = []

    def check(self, label, ok, detail=""):
        self.checks.append((label, bool(ok), detail))

    def conclude(self):
        ok = all(c[1] for c in self.checks)
        print(f"criterion {self.number} ({self.title}): {'PASS' if ok else 'FAIL'}")
        for label, good, detail in self.checks:
            if not good:
                print(f"  FAILED {label}: {detail}")
        assert ok, f"criterion {self.number} failed: " + "; ".join(
            f"{label} ({detail})" for label, good, detail in self.checks if not good
        )


def test_criterion_1_reference_solution_exactness():
    crit = Criterion(1, "reference-solution exactness")
    start = time.perf_counter()
    for k in (1.5, 2.0, 5.0):
        u = reference_loop(k, 256)
        res = np.abs(residual(u, k)).max()
        crit.check(f"sup residual k={k}", res < 1e-10, f"{res:.3e}")
        length_gap = abs(loop_length(u) - curvature_radius(k))
        crit.check(f"length k={k}", length_gap < 1e-12, f"{length_gap:.3e}")
        energy_gap = abs(energy(u, k).total - (k - np.sqrt(k * k - 1)))
        crit.check(f"energy k={k}", energy_gap < 1e-10, f"{energy_gap:.3e}")
    elapsed = time.perf_counter() - start
    crit.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s")
    crit.conclude()


def test_criterion_2_invariance_identities():
    crit = Criterion(2, "invariance identities")
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        u = band_limited_loop(rng)
        j0 = residual(u, 2.0)
        up = u.deriv(1)
        worst = max(
            worst,
            abs(dot_mean(j0, up)),
            abs(j0[:, 0].mean()),
            abs(dot_mean(j0, u.samples)),
            abs(dot_mean(residual(u, 2.0, 0.37, QUADRATIC), up)),
        )
    elapsed = time.perf_counter() - start
    crit.check("all pairings < 1e-11 over 50 loops", worst < 1e-11, f"worst {worst:.3e}")
    crit.check("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f} s")
    crit.conclude()


def test_criterion_3_kernel_structure():
    crit = Criterion(3, "kernel structure of the frame operator")
    n = 256
    for k in (1.1, 2.0, 5.0, 50.0):
        zeros = {b.n: b.zero_count for b in mode_blocks(k, n) if b.zero_count}
        crit.check(f"zero layout k={k}", zeros == {0: 1, 1: 2}, str(zeros))
        _, g, gp = kernel_basis(k, n)
        bg = np.abs(apply_frame_operator(g, k)).max()
        bgp = np.abs(apply_frame_operator(gp, k)).max()
        crit.check(f"B annihilates mode-1 kernel k={k}", max(bg, bgp) < 1e-12,
                   f"{max(bg, bgp):.3e}")
        gap = np.abs(from_frame(g, k) - reference_loop(k, n).samples).max()
        crit.check(f"frame image of kernel is the loop k={k}", gap < 1e-12, f"{gap:.3e}")
    crit.conclude()


def test_criterion_4_conjugation_identity():
    crit = Criterion(4, "conjugated linearization vs finite differences")
    rng = np.random.default_rng(7)
    phi = band_limited_field(rng, n=256, modes=6)
    for z in ((0.0, 1.0), (3.0, 0.5), (-2.0, 4.0)):
        lin = apply_linearization(z, phi, 2.0)
        fd = linearization_fd(z, phi, 2.0, h=1e-5)
        rel = np.abs(fd - lin).max() / np.abs(lin).max()
        crit.check(f"rel err at z={z}", rel < 1e-5, f"{rel:.3e}")
    crit.conclude()


def test_criterion_5_melnikov_correctness():
    crit = Criterion(5, "disk-average correctness")
    k = 2.0
    rk = curvature_radius(k)
    gap = abs(melnikov_value((0.3, 1.4), k, "1") - 2 * np.pi * (k * rk - 1))
    crit.check("constant field closed form", gap < 1e-8, f"{gap:.3e}")

    rng = np.random.default_rng(11)
    fields = ["z2", QUAD_TEXT, "tanh(z1)", "exp(-z2)", "sin(z1) * cos(z2)"]
    for text in fields:
        z = (float(rng.normal(0, 1)), float(rng.uniform(0.8, 2.5)))
        lhs = melnikov_value(z, k, text)
        rhs = -2 * np.pi * signed_area(translate(z, reference_loop(k, 256)), text)
        crit.check(f"area identity for {text!r}", abs(lhs - rhs) < 1e-8,
                   f"{abs(lhs - rhs):.3e}")

    z = np.array([0.2, 1.7])
    g = np.ravel(melnikov_gradient_grid(z[:1], z[1:], k, QUADRATIC))
    h = 1e-5
    fd = np.array(
        [
            (melnikov_value(z + [h, 0], k, QUADRATIC) - melnikov_value(z - [h, 0], k, QUADRATIC)) / (2 * h),
            (melnikov_value(z + [0, h], k, QUADRATIC) - melnikov_value(z - [0, h], k, QUADRATIC)) / (2 * h),
        ]
    )
    rel = np.abs(g - fd).max() / np.abs(fd).max()
    crit.check("gradient vs finite differences", rel < 1e-6, f"{rel:.3e}")
    crit.conclude()


def test_criterion_6_large_k_asymptotics():
    crit = Criterion(6, "large-k asymptotics of the disk average")
    errs = [asymptotic_check((0.0, 2.0), k, "z2").relerr for k in (10.0, 50.0, 250.0)]
    crit.check("monotone decrease", errs[0] > errs[1] > errs[2], str(errs))
    crit.check("relerr < 1e-2 at k=250", errs[2] < 1e-2, f"{errs[2]:.3e}")
    crit.conclude()


def test_criterion_7_full_solve():
    crit = Criterion(7, "full perturbed solve")
    start = time.perf_counter()
    report = solve_full(0.01, 2.0, QUADRATIC, BOX, grid=12, n=256)
    elapsed = time.perf_counter() - start
    d = report.defects
    crit.check("embedded", report.embedded)
    crit.check("single cover", report.mu == 1, str(report.mu))
    crit.check("curvature defect < 1e-8", d.curvature_defect < 1e-8,
               f"{d.curvature_defect:.3e}")
    crit.check("speed defect < 1e-9", d.speed_defect < 1e-9, f"{d.speed_defect:.3e}")
    killing = np.abs(d.killing).max()
    crit.check("Killing pairings < 1e-8", killing < 1e-8, f"{killing:.3e}")
    crit.check("rotation multiplier < 1e-10", abs(report.state.t) < 1e-10,
               f"{report.state.t:.3e}")
    crit.check("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f} s")
    crit.conclude()


def test_criterion_8_convergence_orders():
    crit = Criterion(8, "convergence orders in eps")
    k = 2.0
    base_report = solve_full(0.0, k, QUADRATIC, BOX, grid=12)
    z0 = base_report.z_critical
    base = translate(z0, reference_loop(k, 256))

    eps_values = (1e-2, 5e-3, 2.5e-3)
    dists = []
    for eps in eps_values:
        rep = solve_full(eps, k, QUADRATIC, BOX, grid=12, seed=z0)
        dists.append(float(np.abs(rep.loop.samples - base.samples).max()))
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    crit.check("C0 distance halves with eps (2 +/- 0.3)",
               all(abs(r - 2.0) <= 0.3 for r in ratios), str(ratios))

    gaps = []
    for eps in eps_values:
        state = reduce_at(eps, (0.0, 2.0), k, QUADRATIC)
        gaps.append(
            abs(
                energy(state.loop, k, eps, QUADRATIC).total
                - energy(translate((0.0, 2.0), reference_loop(k, 256)), k, eps, QUADRATIC).total
            )
        )
    slope = float(np.polyfit(np.log(eps_values), np.log(gaps), 1)[0])
    crit.check("energy-gap log-log slope >= 1.5", slope >= 1.5, f"{slope:.2f}")

    zs = [(a, b) for a in np.linspace(-0.4, 0.4, 5) for b in np.linspace(1.6, 2.4, 5)]
    sups = []
    for eps in (1e-2, 1e-3, 1e-4):
        sup = max(
            abs(reduced_energy_offset(eps, z, k, QUADRATIC) + melnikov_value(z, k, QUADRATIC))
            for z in zs
        )
        sups.append(sup)
    crit.check("sup-grid reduced-energy gap decreases", sups[0] > sups[1] > sups[2],
               str(sups))
    crit.conclude()


def test_criterion_9_euclidean_oracle():
    crit = Criterion(9, "flat-plane oracle")
    k = 2.0
    res = np.abs(residual(reference_circle(k, 64), k, geometry=FLAT)).max()
    crit.check("circle residual < 1e-12", res < 1e-12, f"{res:.3e}")

    worst = max(
        np.abs(apply_linearization_euclid(f, k)).max() for f in kernel_basis_euclid(k, 256)
    )
    crit.check("kernel basis annihilated < 1e-12", worst < 1e-12, f"{worst:.3e}")

    gap = abs(melnikov_value((0.4, -1.0), k, "1", geometry=FLAT) - np.pi / k**2)
    crit.check("constant-field disk area < 1e-10", gap < 1e-10, f"{gap:.3e}")

    report = solve_full_euclid(0.01, k, QUADRATIC, PlaneBox(-0.6, 0.6, 1.4, 2.6), grid=12)
    d = report.defects
    crit.check("solve embedded, mu=1", report.embedded and report.mu == 1)
    crit.check("curvature defect < 1e-8", d.curvature_defect < 1e-8,
               f"{d.curvature_defect:.3e}")
    crit.check("speed defect < 1e-9", d.speed_defect < 1e-9, f"{d.speed_defect:.3e}")
    killing = np.abs(d.killing).max()
    crit.check("Killing pairings < 1e-8", killing < 1e-8, f"{killing:.3e}")
    crit.check("rotation multiplier < 1e-10", abs(report.state.t) < 1e-10,
               f"{report.state.t:.3e}")
    crit.conclude()


def test_criterion_10_nonexistence_reporting(tmp_path, capsys):
    crit = Criterion(10, "nonexistence reporting and blocked exits")
    rep = check_nonexistence("tanh(z1)", RegionBox(-2, 2, 0.5, 3.0), samples=16)
    crit.check("supnorm condition flagged", rep.supnorm_le_one)
    crit.check("monotonicity condition flagged", rep.monotone_e1)

    code = cli_main(
        ["solve", "--k", "2", "--eps", "-2", "--field", "tanh(z1)",
         "--box", "2,3,1,2", "--grid", "8", "--out", str(tmp_path / "x.csv")]
    )
    blocked_report = json.loads(capsys.readouterr().out)
    crit.check("solve exits 2 on bounded total curvature", code == 2, f"exit {code}")
    crit.check("blocked report carries the sampled evidence",
               blocked_report.get("nonexistence", {}).get("supnorm_le_one", False))

    code = cli_main(
        ["melnikov", "--k", "2", "--field", "1", "--box", "-1,1,1,3",
         "--grid", "8", "--out", str(tmp_path / "m.csv")]
    )
    capsys.readouterr()
    crit.check("melnikov exits 2 when no critical point exists", code == 2, f"exit {code}")

    try:
        solve_full(0.01, 2.0, "tanh(z1)", RegionBox(-1, 1, 1, 2), grid=6)
        crit.check("monotone field raises NoCritical", False, "no exception")
    except NoCritical:
        crit.check("monotone field raises NoCritical", True)
    crit.conclude()
