"""The named checks of `svfree verify`, each with its bound written here.

Two bounds live with the code they judge: weighted_calculus.RATIO_CEILING,
the largest empirical constant a weighted inequality accepts, and the
E <= 2*M0 flag that jet.energy_reports sets on each energy report.

A check takes the data it judges and returns its CheckResult(s); the verify
suite and the acceptance criteria call the same functions. Calls into
weighted_calculus and eulerian are looked up on the module when a check runs,
so wrappers installed there apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eulerian, picard, weighted_calculus as wc
from .errors import SvfreeError
from .galerkin import (GalerkinBasis, assemble_forcing, assemble_mass, assemble_stiffness,
                       energy_identity_residual, solve_linearized)
from .profile import (_validate_vacuum_profile, build_grid, quadrature, sample_height_profile,
                      sample_velocity)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _row(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)  # numpy comparisons give np.bool_


def grid_uniformity(grid) -> CheckResult:
    defect = float(np.max(np.abs(np.diff(grid.nodes) - grid.spacing)))
    return _row("grid-uniformity", defect <= 1e-14, f"max spacing defect {defect:.2e}")


def physical_vacuum(profile) -> CheckResult:
    try:
        _validate_vacuum_profile(profile)
    except SvfreeError as exc:
        return _row("physical-vacuum", False, str(exc))
    return _row("physical-vacuum", True, f"c1={profile.c1:.4g}, c2={profile.c2:.4g}")


def quadrature_cubic_exactness(profile) -> CheckResult:
    x = profile.grid.nodes
    err = abs(quadrature(1.0 - 2.0 * x + 3.0 * x**2 - 4.0 * x**3, 0, profile))  # exact integral 0
    return _row("quadrature-cubic-exactness", err <= 1e-13, f"cubic error {err:.2e}")


def spectral_derivative_consistency(basis) -> CheckResult:
    """The nodal tables and the endpoint derivatives agree mode by mode at both ends, orders 0..6."""
    err = 0.0
    for node, x0 in ((0, 0.0), (-1, 1.0)):
        ends = basis.endpoint_derivatives(np.eye(basis.n_modes), x0, 7)
        nodal = np.stack([basis.table(k)[:, node] for k in range(7)], axis=1)
        scale = np.maximum(np.max(np.abs(ends), axis=0), 1.0)
        err = max(err, float(np.max(np.abs(nodal - ends) / scale)))
    return _row("spectral-derivative-consistency", err <= 1e-12, f"table vs endpoint relative defect {err:.2e}")


def basis_orthonormality(basis) -> CheckResult:
    defect = basis.orthonormality_defect()
    return _row("basis-orthonormality", defect <= 1e-10, f"gram defect {defect:.2e}")


def closed_form_assembly() -> list[CheckResult]:
    """M00 = 1/6, S11 = pi^2/6 + 1/2 and F0 = 0 for the parabolic a=1 height at unit Jacobian.

    On a fixed 401-node grid with 2 modes: Simpson's error in S11 alone is
    1.3e-7 at 101 nodes, past the bound, so the config's grid would judge
    the quadrature and not the assembly.
    """
    grid = build_grid(401)
    para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
    basis, ones = GalerkinBasis(2, grid), np.ones(grid.n_nodes)
    mass, stiff = assemble_mass(para, basis), assemble_stiffness(para, basis, ones)
    force = assemble_forcing(para, basis, ones)
    m_err = abs(mass[0, 0] - 1.0 / 6.0)
    s_err = abs(stiff[1, 1] - (np.pi**2 / 6.0 + 0.5))
    return [
        _row("assembly-mass-closed-form", m_err <= 1e-8, f"|M00 - 1/6| = {m_err:.2e}"),
        _row("assembly-stiffness-closed-form", s_err <= 1e-8, f"|S11 - (pi^2/6 + 1/2)| = {s_err:.2e}"),
        _row("forcing-zero-mode", force[0] == 0.0, f"F0 = {force[0]:.2e}"),
    ]


def weighted_families(grid) -> list[CheckResult]:
    """Four weighted inequalities on the distance weight over the identity family."""
    dist, family = sample_height_profile("distance", {}, grid), wc.identity_family(grid)
    rows = []
    for name, check in (
        ("weighted-sobolev-family", lambda f, fx: wc.check_weighted_sobolev(f, 0, dist, field_x=fx)),
        ("h-half-weighted-family", lambda f, fx: wc.check_h_half_weighted(f, dist, field_x=fx)),
        ("interpolation-inequality-family",
         lambda f, fx: wc.check_interpolation_inequality(f, dist, field_x=fx)),
        ("sobolev-embedding-quarter", lambda f, fx: wc.check_sobolev_embedding(f, dist, s=0.25)),
    ):
        reports = [check(f, fx) for _, f, fx in family]
        worst = max(r.empirical_constant for r in reports)
        rows.append(_row(name, all(r.satisfied() for r in reports), f"max empirical constant {worst:.3f}"))
    return rows


def interpolation_identities() -> list[CheckResult]:
    """The half-interval identity gaps: at most 1e-8 at n=401, at least 16x smaller than at n=101.

    The rate needs a nontrivial gap (above 1e-14) at n=101; with none it
    would measure nothing, and fails.
    """
    g401, g101 = wc.interpolation_identity_gaps(401), wc.interpolation_identity_gaps(101)
    nontrivial = g101 > 1e-14
    shrink = g101[nontrivial] / np.maximum(g401[nontrivial], 1e-300)
    return [
        _row("interpolation-identity-gap", np.max(g401) <= 1e-8, f"max |lhs-rhs| at n=401: {np.max(g401):.2e}"),
        _row("identity-refinement-rate", np.any(nontrivial) and np.all(shrink >= 16.0),
             "residual shrink n=101 -> n=401 >= 16x on the nontrivial family"),
    ]


def norm_homogeneity(profile) -> CheckResult:
    """||alpha f|| = |alpha| ||f|| in the rho0-weighted L2 norm, f a seeded random smooth field."""
    # np.random.default_rng(2718).standard_normal(8), written out so verify loads no numpy.random
    modes = (0.32043402959201306, -0.05200788094214986, -2.2046693613680954, 0.4775391683906853,
             0.20907176133393773, 0.441516097605168, -0.060252575121272064, -0.5235335625135844)
    f = sum(c * np.cos(k * np.pi * profile.grid.nodes) for k, c in enumerate(modes))
    alpha, norm = 3.7, wc.weighted_l2_norm(f, 1, profile)
    h_err = abs(wc.weighted_l2_norm(alpha * f, 1, profile) - abs(alpha) * norm) / max(norm, 1e-30)
    return _row("norm-homogeneity", h_err <= 1e-12, f"relative defect {h_err:.2e}")


def energy_identity() -> CheckResult:
    """The linearized energy identity's residual is O(dt), halves with dt, and is the jump dissipation.

    Under backward Euler the residual is exactly sum 1/2 (lam_n - lam_n-1)^T M (lam_n - lam_n-1).
    On this problem (201 nodes, 16 modes) the two agree to 1.7e-12 relative
    at both steps, the rounding of the march's constant-flow affine step;
    stepping with a mass 1e-6 too large opens a gap of 1e-4.
    """
    grid = build_grid(201)
    para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
    u0, identity = sample_velocity("zero", {}, grid), np.zeros(16)  # the flow eta = x, 16 modes
    residuals, gaps = [], []
    for dt in (2e-4, 1e-4):
        traj = solve_linearized(para, u0, identity, 0.01, dt, 16)
        jumps = np.diff(traj.coeffs, axis=0)
        dissipation = 0.5 * np.einsum("ti,ij,tj->", jumps, assemble_mass(para, traj.basis), jumps)
        residuals.append(energy_identity_residual(traj, para, identity))
        gaps.append(abs(residuals[-1] - dissipation) / residuals[-1])
    (r1, r2), gap = residuals, max(gaps)
    return _row("energy-identity-residual", r1 <= 5.0 * 2e-4 and r2 <= 0.75 * r1 and gap <= 1e-10,
                f"residuals {r1:.2e} (dt=2e-4) -> {r2:.2e} (dt=1e-4), "
                f"relative gap to the jump dissipation {gap:.1e}")


def contraction_monotonicity(history) -> CheckResult:
    """Every finite Picard ratio below 0.9 and the update sizes strictly decreasing."""
    ratios = [r.ratio for r in history if math.isfinite(r.ratio)]
    totals = [r.total for r in history]
    return _row(
        "contraction-monotonicity",
        all(r < 0.9 for r in ratios) and all(b < a for a, b in zip(totals, totals[1:])),
        f"{len(totals)} iterations, max ratio {max(ratios) if ratios else float('nan'):.3f}",
    )


def eta_bound(sol) -> CheckResult:
    lo, hi = picard.ETA_BOUND
    return _row("eta-bound", lo <= sol.eta_x_min and sol.eta_x_max <= hi,
                f"eta_x in [{sol.eta_x_min:.4f}, {sol.eta_x_max:.4f}]")


def mass_conservation(sol, times) -> CheckResult:
    """The Eulerian mass at each given stored time stays within 1e-6 of int rho0."""
    mass0 = quadrature(np.ones(sol.profile.grid.n_nodes), 1, sol.profile)
    drift = max(abs(eulerian.eulerian_mass(eulerian.eulerian_fields(sol, float(t), 401)) - mass0)
                for t in times)
    return _row("mass-conservation", drift <= 1e-6, f"max Eulerian mass drift {drift:.2e}")


def roundtrip_inverse_map(sol, t) -> CheckResult:
    """inverse(flow(x)) = x at both ends and the grid midpoints, to 1e-10.

    Between the nodes the piecewise-linear start of the inverse is O(h^2)
    off; at the nodes it is exact and the check would test nothing.
    """
    flow = eulerian.flow_map(sol, sol.index_of(t))
    xs = np.concatenate(([0.0], 0.5 * (flow.nodes[:-1] + flow.nodes[1:]), [1.0]))
    rt = float(np.max(np.abs(flow.inverse(flow.eta(xs)) - xs)))
    return _row("roundtrip-inverse-map", rt <= 1e-10, f"max |inverse(flow(x)) - x| at the midpoints = {rt:.2e}")


def boundary_neumann_spectral(sol, t) -> CheckResult:
    """v_x is exactly zero at both ends of a spectral solution."""
    rep = eulerian.boundary_diagnostics(sol, t)
    return _row("boundary-neumann-spectral", rep.vx_at_boundary == (0.0, 0.0),
                f"vx at boundary {rep.vx_at_boundary}")


def apriori_ceiling(reports) -> CheckResult:
    return _row("apriori-ceiling", all(r.within_apriori for r in reports),
                f"E <= 2*M0 at {len(reports)} sampled steps")


def embedding_constants(sol, reports) -> CheckResult:
    """Empirical embedding constants and the time window they imply; informational, it always passes.

    The last energy report gives E(T) and M0, and its time the velocity v(T),
    whose H^3 norm comes from the exact derivatives of its modal sum.
    """
    profile, c1 = sol.profile, 0.0
    for _, f, fx in wc.identity_family(profile.grid):
        h1 = math.sqrt(quadrature(f * f + fx * fx, 0, profile))
        if h1 > 0:
            c1 = max(c1, float(np.max(np.abs(f))) / h1)
    eT = reports[-1]
    lam = sol.coeffs[sol.index_of(eT.t)]
    h3 = math.sqrt(sum(quadrature((lam @ sol.basis.table(k)) ** 2, 0, profile) for k in range(4)))
    c2 = h3 / math.sqrt(eT.E_total) if eT.E_total > 0 else float("nan")
    m1 = 2.0 * eT.M0
    t_admissible = 1.0 / (2.0 * c1 * c2 * math.sqrt(m1)) if c1 * c2 > 0 and m1 > 0 else float("nan")
    return _row("embedding-constants", True,
                f"c1~{c1:.3f}, c2~{c2:.3g}, implied admissible T ~ {t_admissible:.3g} (empirical, informational)")
