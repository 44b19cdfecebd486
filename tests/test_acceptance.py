"""Acceptance criteria, one test per criterion, each printing a pass line.

The canonical configuration throughout: parabolic height a=1, u0 = 0,
T = 0.05, dt = 1e-4, 32 modes, 401 nodes. Criteria 1, 2, 3, 5, 7 (its
spectral half) and 8 run the named checks of `svfree.checks`, which
`svfree verify` runs too; their bounds are written there, once. The extra
assertions here and criteria 4, 6 and 9 pin their own tolerances. None is
calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from svfree import checks, eulerian, jet
from svfree.errors import SvfreeError
from svfree.fd_oracle import fd_oracle_solve
from svfree.galerkin import energy_identity_residual, solve_linearized
from svfree.jet import LOW_SUMMAND_WEIGHTS
from svfree.picard import PicardSettings, solve_nonlinear
from svfree.profile import (
    build_grid,
    quadrature,
    sample_height_profile,
    sample_velocity,
)

CANONICAL = dict(t_final=0.05, dt=1e-4, n_modes=32)


def _ok(criterion: str, detail: str):
    print(f"ACCEPT {criterion}: PASS  {detail}")


def test_criterion_1_flow_map_bound_and_runtime(para401, u0zero401):
    t0 = time.perf_counter()
    sol = solve_nonlinear(para401, u0zero401, PicardSettings(**CANONICAL))
    wall = time.perf_counter() - t0
    bound = checks.eta_bound(sol)
    assert sol.converged
    assert bound.passed, bound.detail
    assert wall < 60.0
    _ok("1 flow-map bound", f"{bound.detail}, wall {wall:.1f}s")


@pytest.mark.parametrize("t_final", [0.0125, 0.025])
def test_criterion_2_picard_contraction(para401, u0zero401, t_final):
    sol = solve_nonlinear(
        para401, u0zero401, PicardSettings(t_final=t_final, dt=1e-4, n_modes=32)
    )
    ratios = [r.ratio for r in sol.history if math.isfinite(r.ratio)]
    monotone = checks.contraction_monotonicity(sol.history)
    assert ratios, "need at least two contraction updates"
    assert monotone.passed, monotone.detail
    if t_final == 0.0125:
        assert min(ratios) <= 0.6
    _ok(
        f"2 contraction T={t_final}",
        f"ratios {['%.2e' % r for r in ratios]}",
    )


def test_criterion_3_interpolation_identities():
    gap, rate = checks.interpolation_identities()
    assert gap.passed, gap.detail
    assert rate.passed, rate.detail
    _ok("3 interpolation identities", f"{gap.detail}, {rate.detail}")


def test_criterion_4_energy_identity_residual(para401, u0zero401):
    ones = np.ones(401)
    residuals = {}
    for dt in (1e-4, 5e-5):
        traj = solve_linearized(para401, u0zero401, ones, 0.05, dt, 32)
        residuals[dt] = energy_identity_residual(traj, para401, ones)
    scale = 1.0
    assert residuals[1e-4] <= 5.0 * 1e-4 * scale
    assert residuals[5e-5] <= 0.6 * residuals[1e-4]
    _ok(
        "4 energy identity",
        f"residual {residuals[1e-4]:.2e} -> {residuals[5e-5]:.2e} under dt halving",
    )


def test_criterion_5_closed_form_assembly():
    rows = checks.closed_form_assembly()  # 401 nodes
    for row in rows:  # M00 and S11 to 1e-8, and F0 = 0 exactly
        assert row.passed, row.detail
    _ok("5 closed-form assembly", ", ".join(row.detail for row in rows))


def test_criterion_6_oracle_equivalence():
    def run_pair(n, dt, n_modes):
        grid = build_grid(n)
        para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
        u0 = sample_velocity("zero", {}, grid)
        sol = solve_nonlinear(
            para, u0,
            PicardSettings(t_final=0.02, dt=dt, n_modes=n_modes, picard_tol=1e-12),
        )
        fd = fd_oracle_solve(para, u0, 0.02, dt)
        d = sol.velocity(0.02) - fd.velocity(0.02)
        return math.sqrt(quadrature(d * d, 1, para))

    diff_canonical = run_pair(401, 1e-4, 32)
    diff_refined = run_pair(801, 5e-5, 64)
    tol = 5.0 * (1e-4 + (1.0 / 400.0) ** 2 + 1.0 / 32.0**2)
    assert diff_canonical <= tol
    assert diff_refined <= diff_canonical / 2.0
    _ok(
        "6 oracle equivalence",
        f"diff {diff_canonical:.2e} <= {tol:.2e}, refined x{diff_canonical/diff_refined:.1f} smaller",
    )


def test_criterion_7_conservation_and_boundary(canonical_solution, para401):
    sol = canonical_solution
    mass = checks.mass_conservation(para401, sol, list(sol.times[::25]) + [sol.times[-1]])
    assert mass.passed, mass.detail
    for t in (0.0, 0.025, 0.05):
        neumann = checks.boundary_neumann_spectral(para401, sol, t)
        assert neumann.passed, neumann.detail

    fd_defects = []
    for n in (101, 201):
        grid = build_grid(n)
        para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
        u0 = sample_velocity("zero", {}, grid)
        fd = fd_oracle_solve(para, u0, 0.02, 1e-4)
        rep = eulerian.boundary_diagnostics(para, fd, 0.02)
        fd_defects.append(max(abs(v) for v in rep.vx_at_boundary))
    assert fd_defects[0] <= 5.0 * (1.0 / 100.0) ** 2
    assert fd_defects[1] < fd_defects[0] / 2.0
    _ok(
        "7 conservation+boundary",
        f"{mass.detail}, spectral vx exactly 0, fd defect {fd_defects[0]:.1e}->{fd_defects[1]:.1e}",
    )


def test_criterion_8_apriori_energy_ceiling(canonical_solution):
    sol = canonical_solution
    reports = jet.energy_reports(sol, sol.times)
    ceiling = checks.apriori_ceiling(reports)
    assert ceiling.passed, [r.t for r in reports if not r.within_apriori]
    worst = max(r.E_total for r in reports) / (2.0 * reports[0].M0)
    _ok("8 a-priori ceiling", f"{ceiling.detail}, max E/(2 M0) = {worst:.3f}")


def test_criterion_9_numerical_uniqueness_probe():
    # Probed deep inside the contraction regime (T = 0.001), where the final
    # fixed-point update overshoots the default tolerance by orders of
    # magnitude: both guesses land on the same discrete trajectory at the
    # arithmetic floor. The compatible sine profile keeps the reconstruction
    # of the time-derivative summands faithful.
    grid = build_grid(201)
    sine = sample_height_profile("sine", {"amplitude": 1.0}, grid)
    u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 1}, grid)
    tol = 1e-10  # the default
    runs = {}
    for guess in ("u0", "identity"):
        runs[guess] = solve_nonlinear(
            sine, u0,
            PicardSettings(t_final=0.001, dt=2e-5, n_modes=8,
                           picard_tol=tol, initial_guess=guess),
        )
    a, b = runs["u0"], runs["identity"]

    def low_energy_norm_of_difference(t):
        ja = jet.time_derivatives_along(a, t)
        jb = jet.time_derivatives_along(b, t)
        basis = a.basis
        ia, ib = a.index_of(t), b.index_of(t)
        total = 0.0
        fields = {
            "low_t0_v": (basis.evaluate(a.coeffs[ia], grid.nodes, 0)
                         - basis.evaluate(b.coeffs[ib], grid.nodes, 0), 1),
            "low_t1_v": (ja.dt_v - jb.dt_v, 1),
            "low_t2_v": (ja.dt2_v - jb.dt2_v, 1),
            "low_t0_vx": (basis.evaluate(a.coeffs[ia], grid.nodes, 1)
                          - basis.evaluate(b.coeffs[ib], grid.nodes, 1), 1),
            "low_t1_vx": (ja.dt_vx - jb.dt_vx, 1),
            "low_t1_x2": (ja.dt_vxx - jb.dt_vxx, 2),
            "low_x2": (basis.evaluate(a.coeffs[ia], grid.nodes, 2)
                       - basis.evaluate(b.coeffs[ib], grid.nodes, 2), 2),
            "low_x3": (basis.evaluate(a.coeffs[ia], grid.nodes, 3)
                       - basis.evaluate(b.coeffs[ib], grid.nodes, 3), 3),
            "low_x4": (basis.evaluate(a.coeffs[ia], grid.nodes, 4)
                       - basis.evaluate(b.coeffs[ib], grid.nodes, 4), 4),
        }
        assert set(fields) == set(LOW_SUMMAND_WEIGHTS)
        for delta, k in fields.values():
            total += quadrature(delta * delta, k, sine)
        return math.sqrt(total)

    worst = max(low_energy_norm_of_difference(float(t)) for t in a.times)
    assert worst < 10.0 * tol
    _ok("9 uniqueness probe", f"max lower-energy-norm difference {worst:.2e} < {10*tol:.0e}")
