"""Nonlinear solve: fixed-point iteration over the frozen-Jacobian problem.

Starting from the guess flow eta(x, t) = x + t u0(x), each pass solves the
linearized modal system against the previous flow map and integrates a new
flow from the result (trapezoid over the stored steps). Successive velocity
differences are measured in the contraction norm

    sup_t ||sqrt(rho0) sigma||_L2  +  ||sqrt(rho0) sigma_x||_{L2(time; L2)},

which the small-time theory shrinks by a factor 1/2 per pass; the empirical
ratios are recorded per iteration. Accepted trajectories must keep the
flow-map Jacobian inside [1/2, 3/2] at every node and stored time.

One loop, solve_horizons, serves several final times at once: every pass
marches to the longest one still open, and each shorter one reads its
iterate as a prefix of that march. solve_nonlinear is its one-horizon call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    NonConvergenceError,
    SvfreeError,
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
    "solve_horizons",
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
    def v(self) -> np.ndarray:
        """(steps+1, n_nodes) nodal velocity."""
        return self.coeffs @ self.basis.table(0)

    @property
    def eta(self) -> np.ndarray:
        """(steps+1, n_nodes) nodal flow map."""
        return self.basis.grid.nodes + self.flow_coeffs @ self.basis.table(0)

    @property
    def eta_x(self) -> np.ndarray:
        """(steps+1, n_nodes) nodal flow-map Jacobian."""
        return 1.0 + self.flow_coeffs @ self.basis.table(1)

    def flow_at(self, idx: int):
        """The nodes, the flow row at stored step idx, and eta, eta_x and v at any points (modal sums)."""
        basis, mu, lam = self.basis, self.flow_coeffs[idx], self.coeffs[idx]
        nodes = basis.grid.nodes
        return (nodes, nodes + mu @ basis.table(0), lambda x: x + basis.evaluate(mu, x, 0),
                lambda x: 1.0 + basis.evaluate(mu, x, 1), lambda x: basis.evaluate(lam, x, 0))

    def end_slopes(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """v_x and eta_x at x = 0 and x = 1 on the stored rows idx, each of shape (rows, 2):
        one endpoint product per end and field, exactly 0 and 1 as every mode's end slope vanishes."""
        vx, mu_x = (np.stack([self.basis.endpoint_derivatives(c[idx], s, 2)[:, 1] for s in (0.0, 1.0)], axis=1)
                    for c in (self.coeffs, self.flow_coeffs))
        return vx, 1.0 + mu_x


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


def _difference_squares(a: np.ndarray, b: np.ndarray, mass: np.ndarray, grad: np.ndarray):
    """Per-time squares of the two contraction-norm parts of the coefficient difference b - a."""
    diff = b - a
    return (np.einsum("ti,ij,tj->t", diff, mass, diff),
            np.einsum("ti,ij,tj->t", diff, grad, diff))


def _report(sup_sq, grad_sq, dt: float, iteration: int, prev_total: float | None) -> ContractionReport:
    sup_diff = float(np.sqrt(np.max(np.maximum(sup_sq, 0.0))))
    grad_diff = float(np.sqrt(max(np.trapezoid(grad_sq, dx=dt), 0.0)))
    total = sup_diff + grad_diff
    ratio = float("nan") if prev_total is None or prev_total <= 0 else total / prev_total
    return ContractionReport(iteration, sup_diff, grad_diff, ratio)


def _norm_matrices(profile: HeightProfile, basis: GalerkinBasis):
    """The weighted mass and unit-Jacobian stiffness matrices of the contraction norm."""
    return assemble_mass(profile, basis), assemble_stiffness(profile, basis, np.ones(profile.grid.n_nodes))


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
    squares = _difference_squares(v_n.coeffs, v_n1.coeffs, *_norm_matrices(profile, v_n.basis))
    return _report(*squares, v_n.dt, iteration, prev_total)


@dataclass
class _Horizon:
    """Bookkeeping of one final time while the shared loop has not settled it."""

    t_final: float
    steps: int
    history: list = field(default_factory=list)
    prev_total: float | None = None


def solve_horizons(profile: HeightProfile, u0: AnalyticField, settings: PicardSettings, t_finals):
    """One fixed-point loop for several final times; yields (t_final, outcome) as each settles.

    The outcome is the SolutionTrajectory that solve_nonlinear would return
    for that t_final, or the SvfreeError it would raise. settings.t_final is
    not read. The march, the trapezoid flow map and the u0 guess are causal,
    so Picard iterate k on [0, T] is the first n + 1 rows of iterate k on any
    longer horizon (up to rounding: a shorter last assembly block, and guess
    times i*(T/n) against i*(T'/n')). Each pass therefore marches only to the
    longest horizon not yet settled, forms the per-time contraction squares
    once, and reads every open horizon's differences, ratio, convergence test
    and eta_x extremes from its own prefix; a solution holds views of those
    prefixes. A march that fails settles its own horizon with that error and
    is retried to the next shorter one, so each horizon fails, or not, as its
    own solve would, with its own message.
    """
    dt = settings.dt
    basis = GalerkinBasis(settings.n_modes, profile.grid)
    open_: list[_Horizon] = []
    for t_final in sorted(set(t_finals)):
        try:
            open_.append(_Horizon(t_final, n_steps_for(t_final, dt)))
        except ConfigurationError as exc:
            yield t_final, exc
    if not open_:
        return
    if settings.initial_guess == "identity":
        eta_x = np.ones((1, profile.grid.n_nodes))  # one row serves every step
    elif settings.initial_guess == "u0":
        longest = open_[-1]
        times = np.linspace(0.0, longest.t_final, longest.steps + 1)
        lam_init = project_initial(u0.values, basis, profile.grid)
        eta_x = 1.0 + (times[:, None] * lam_init[None, :]) @ basis.table(1)
    else:
        raise ConfigurationError(f"unknown initial_guess {settings.initial_guess!r}")

    prev = None
    for it in range(1, settings.max_iter + 1):
        while True:
            marched = open_[-1]
            try:
                traj = solve_linearized(
                    profile, u0, eta_x[:marched.steps + 1], marched.t_final, dt,
                    settings.n_modes, settings.scheme, basis=basis,
                )
                break
            except SvfreeError as exc:
                open_.pop()
                yield marched.t_final, exc
                if not open_:
                    return
        mu = _integrate_flow_coeffs(traj)
        del eta_x  # spent: freed before its successor is formed, which lowers the peak
        eta_x = 1.0 + mu @ basis.table(1)
        if prev is None:
            # after a march, so a mass matrix that does not factor has failed its horizons already
            norms = _norm_matrices(profile, basis)
        else:
            squares = _difference_squares(prev.coeffs[:len(traj.coeffs)], traj.coeffs, *norms)
            row_lo = row_hi = None
            for h in list(open_):
                rows = h.steps + 1
                report = _report(squares[0][:rows], squares[1][:rows], dt, it - 1, h.prev_total)
                h.history.append(report)
                h.prev_total = report.total
                if report.total < settings.picard_tol:
                    if row_lo is None:
                        row_lo, row_hi = np.min(eta_x, axis=1), np.max(eta_x, axis=1)
                    open_.remove(h)
                    yield h.t_final, _settle(
                        profile, basis, h, dt, traj.coeffs[:rows], mu[:rows],
                        float(np.min(row_lo[:rows])), float(np.max(row_hi[:rows])),
                    )
            if not open_:
                return
        prev = traj
    for h in open_:
        yield h.t_final, NonConvergenceError(
            f"no contraction below tol={settings.picard_tol} within "
            f"{settings.max_iter} iterations (last diff "
            f"{h.history[-1].total if h.history else float('nan'):.3e})",
            h.history,
        )


def _settle(profile, basis, h: _Horizon, dt, coeffs, mu, eta_x_min, eta_x_max):
    """The converged horizon's solution, or the TimeWindowError of a flow that left ETA_BOUND."""
    lo, hi = ETA_BOUND
    slack = 1e-12
    if eta_x_min < lo - slack or eta_x_max > hi + slack:
        return TimeWindowError(
            f"flow-map Jacobian [{eta_x_min:.4f}, {eta_x_max:.4f}] left "
            f"the admissible band {ETA_BOUND}; rerun with a smaller t_final"
        )
    return SolutionTrajectory(
        times=np.linspace(0.0, h.t_final, h.steps + 1),
        dt=dt,
        coeffs=coeffs,
        flow_coeffs=mu,
        basis=basis,
        profile=profile,
        history=h.history,
        eta_x_min=eta_x_min,
        eta_x_max=eta_x_max,
    )


def solve_nonlinear(
    profile: HeightProfile, u0: AnalyticField, settings: PicardSettings
) -> SolutionTrajectory:
    """Iterate to the nonlinear trajectory on [0, settings.t_final] and enforce the flow-map bound.

    The one-horizon call of solve_horizons. Raises NonConvergenceError
    (carrying the contraction history) when the iteration budget runs out,
    and TimeWindowError when the converged flow leaves [1/2, 3/2]; both
    signal that t_final exceeds the contraction regime.
    """
    ((_, outcome),) = solve_horizons(profile, u0, settings, (settings.t_final,))
    if isinstance(outcome, SvfreeError):
        raise outcome
    return outcome
