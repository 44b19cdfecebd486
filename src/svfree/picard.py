"""Nonlinear solve: fixed-point iteration over the frozen-Jacobian problem.

Starting from the guess flow eta(x, t) = x + t u0(x), each pass solves the
linearized modal system against the previous flow map and integrates a new
flow from the result (trapezoid over the stored steps). Successive velocity
differences are measured in the contraction norm

    sup_t ||sqrt(rho0) sigma||_L2  +  ||sqrt(rho0) sigma_x||_{L2(time; L2)},

which the small-time theory shrinks by a factor 1/2 per pass; the empirical
ratios are recorded per iteration. Accepted trajectories must keep the
flow-map Jacobian inside [1/2, 3/2] at every node and stored time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    NonConvergenceError,
    TimeWindowError,
)
from .galerkin import (
    GalerkinBasis,
    ModalTrajectory,
    assemble_mass,
    assemble_stiffness,
    n_steps_for,
    project_initial,
    solve_linearized,
)
from .profile import AnalyticField, HeightProfile

__all__ = [
    "ContractionReport",
    "SolutionTrajectory",
    "PicardSettings",
    "contraction_metrics",
    "solve_nonlinear",
]

log = logging.getLogger(__name__)

ETA_BOUND = (0.5, 1.5)


@dataclass(frozen=True)
class ContractionReport:
    iteration: int
    sup_diff: float
    grad_diff: float
    ratio: float  # nan for the first measurable iteration

    @property
    def total(self) -> float:
        return self.sup_diff + self.grad_diff


@dataclass(frozen=True)
class SolutionTrajectory(ModalTrajectory):
    """Converged modal velocity lam(t) with the modal displacement mu(t) = eta - x.

    The nodal flow map and its Jacobian are derived from mu on demand; only
    the Jacobian's extremes over every node and stored time are kept.
    """

    flow_coeffs: np.ndarray
    profile: HeightProfile
    history: list
    eta_x_min: float
    eta_x_max: float

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def converged(self) -> bool:
        """Always true: a solve that does not converge raises instead."""
        return True

    @property
    def eta(self) -> np.ndarray:
        """(steps+1, n_nodes) nodal flow map."""
        return self.basis.grid.nodes + self.flow_coeffs @ self.basis.table(0)

    @property
    def eta_x(self) -> np.ndarray:
        """(steps+1, n_nodes) nodal flow-map Jacobian."""
        return 1.0 + self.flow_coeffs @ self.basis.table(1)


@dataclass(frozen=True)
class PicardSettings:
    t_final: float = 0.05
    dt: float = 1e-4
    n_modes: int = 32
    picard_tol: float = 1e-10
    max_iter: int = 50
    scheme: str = "implicit-euler"
    initial_guess: str = "u0"  # or "identity"


def _integrate_flow_coeffs(traj: ModalTrajectory) -> np.ndarray:
    """Trapezoid-in-time modal coefficients of the displacement eta - x."""
    lam = traj.coeffs
    mu = np.zeros_like(lam)
    increments = 0.5 * traj.dt * (lam[:-1] + lam[1:])
    mu[1:] = mu[0] + np.cumsum(increments, axis=0)
    return mu


def contraction_metrics(
    v_n: ModalTrajectory,
    v_n1: ModalTrajectory,
    profile: HeightProfile,
    iteration: int = 1,
    prev_total: float | None = None,
) -> ContractionReport:
    """Difference norms of two iterates on the same time grid."""
    if v_n.coeffs.shape != v_n1.coeffs.shape or not np.array_equal(v_n.times, v_n1.times):
        raise ConfigurationError("iterates live on different time grids")
    basis = v_n.basis
    mass = assemble_mass(profile, basis)
    grad = assemble_stiffness(profile, basis, np.ones(profile.grid.n_nodes))
    diff = v_n1.coeffs - v_n.coeffs
    sup_sq = np.einsum("ti,ij,tj->t", diff, mass, diff)
    grad_sq = np.einsum("ti,ij,tj->t", diff, grad, diff)
    sup_diff = float(np.sqrt(np.max(np.maximum(sup_sq, 0.0))))
    grad_diff = float(np.sqrt(max(np.trapezoid(grad_sq, dx=v_n.dt), 0.0)))
    total = sup_diff + grad_diff
    ratio = float("nan") if prev_total is None or prev_total <= 0 else total / prev_total
    return ContractionReport(iteration, sup_diff, grad_diff, ratio)


def solve_nonlinear(
    profile: HeightProfile, u0: AnalyticField, settings: PicardSettings
) -> SolutionTrajectory:
    """Iterate to the nonlinear trajectory and enforce the flow-map bound.

    Raises NonConvergenceError (carrying the contraction history) when the
    iteration budget runs out, and TimeWindowError when the converged flow
    leaves [1/2, 3/2]; both signal that t_final exceeds the contraction regime.
    """
    basis = GalerkinBasis(settings.n_modes, profile.grid)
    if settings.initial_guess == "identity":
        eta_x = np.ones(profile.grid.n_nodes)
    elif settings.initial_guess == "u0":
        times = np.linspace(0.0, settings.t_final, n_steps_for(settings.t_final, settings.dt) + 1)
        lam_init = project_initial(u0.values, basis, profile.grid)
        eta_x = 1.0 + (times[:, None] * lam_init[None, :]) @ basis.table(1)
    else:
        raise ConfigurationError(f"unknown initial_guess {settings.initial_guess!r}")

    history: list[ContractionReport] = []
    prev = None
    prev_total = None
    for it in range(1, settings.max_iter + 1):
        traj = solve_linearized(
            profile, u0, eta_x, settings.t_final, settings.dt,
            settings.n_modes, settings.scheme, basis=basis,
        )
        mu = _integrate_flow_coeffs(traj)
        eta_x = 1.0 + mu @ basis.table(1)
        if prev is not None:
            report = contraction_metrics(prev, traj, profile, it - 1, prev_total)
            history.append(report)
            if report.total < settings.picard_tol:
                break
            prev_total = report.total
        prev = traj
    else:
        raise NonConvergenceError(
            f"no contraction below tol={settings.picard_tol} within "
            f"{settings.max_iter} iterations (last diff "
            f"{history[-1].total if history else float('nan'):.3e})",
            history,
        )

    sol = SolutionTrajectory(
        times=traj.times,
        dt=settings.dt,
        coeffs=traj.coeffs,
        flow_coeffs=mu,
        basis=basis,
        profile=profile,
        history=history,
        eta_x_min=float(np.min(eta_x)),
        eta_x_max=float(np.max(eta_x)),
    )
    lo, hi = ETA_BOUND
    slack = 1e-12
    if sol.eta_x_min < lo - slack or sol.eta_x_max > hi + slack:
        raise TimeWindowError(
            f"flow-map Jacobian [{sol.eta_x_min:.4f}, {sol.eta_x_max:.4f}] left "
            f"the admissible band {ETA_BOUND}; rerun with a smaller t_final"
        )
    return sol
