"""Independent nodal finite-difference solver for cross-validation.

Marches the nonlinear degenerate momentum equation directly on the grid:
backward Euler in time with the Jacobian lagged one step, conservative
second-order fluxes rho0 v_x / eta_x^2 - rho0^2 / eta_x^2 evaluated at cell
midpoints, and a second-order one-sided Neumann closure at the two vacuum
endpoints (the equation itself degenerates there). No spectral machinery is
shared with the Galerkin path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .galerkin import check_jacobian, n_steps_for, stored_index
from .profile import AnalyticField, HeightProfile

__all__ = ["FDTrajectory", "fd_oracle_solve"]


@dataclass(frozen=True)
class FDTrajectory:
    """Nodal velocity/flow-map history from the finite-difference solver."""

    times: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    dt: float
    profile: HeightProfile
    eta_x_min: float
    eta_x_max: float

    @property
    def grid(self):
        return self.profile.grid

    def index_of(self, t: float) -> int:
        return stored_index(self.times, self.dt, t)

    def velocity(self, t: float) -> np.ndarray:
        """Nodal velocity at the stored time t (a copy)."""
        return self.v[self.index_of(t)].copy()

    def _end_slopes(self, row: np.ndarray, stencil) -> tuple[float, float]:
        """Slopes of a nodal row at x = 0 and x = 1: a one-sided stencil (in units
        of 1/h) at the left end, its negated reverse at the right end.

        The products are summed left to right, as np.gradient sums its edge rows.
        """
        w = np.array(stencil) / self.grid.spacing
        return float(sum(w * row[: len(w)])), float(sum(-w[::-1] * row[-len(w):]))

    def boundary_vx(self, t: float) -> tuple[float, float]:
        """One-sided endpoint slopes of v from the four-point stencil (-11/6, 3, -3/2, 1/3)/h.

        Deliberately a wider stencil than the solver's three-point Neumann
        closure, so the reported value measures the genuine O(h^2) defect
        instead of reproducing the constraint identically.
        """
        return self._end_slopes(self.v[self.index_of(t)], (-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0))

    def boundary_eta_x(self, t: float) -> tuple[float, float]:
        """Endpoint Jacobians from the second-order three-point stencil (-3/2, 2, -1/2)/h."""
        return self._end_slopes(self.eta[self.index_of(t)], (-1.5, 2.0, -0.5))


def fd_oracle_solve(
    profile: HeightProfile,
    u0: AnalyticField,
    t_final: float,
    dt: float,
) -> FDTrajectory:
    """March the nonlinear equation, pressure flux included, over [0, t_final]."""
    from scipy.linalg import solve_banded  # only FD runs load scipy

    if profile.kind == "distance":
        raise ConfigurationError("the distance weight is not a solver profile")
    grid = profile.grid
    n = grid.n_nodes
    h = grid.spacing
    steps = n_steps_for(t_final, dt)
    times = np.linspace(0.0, t_final, steps + 1)
    x = grid.nodes
    xm = 0.5 * (x[:-1] + x[1:])
    rho = profile.values
    rho_mid = profile.sample(xm)
    rho2_mid = rho_mid**2

    v = np.zeros((steps + 1, n))
    eta = np.zeros((steps + 1, n))
    v[0] = u0.values
    eta[0] = x

    jac_min, jac_max = np.inf, -np.inf
    for m in range(steps):
        jac = check_jacobian((eta[m, 1:] - eta[m, :-1]) / h)
        jac_min = min(jac_min, float(np.min(jac)))
        jac_max = max(jac_max, float(np.max(jac)))

        alpha = rho_mid / (h**2 * jac**2)
        # banded system rows: interior = backward-Euler conservative stencil,
        # boundary = one-sided second-order v_x = 0
        ab = np.zeros((5, n))
        rhs = np.zeros(n)
        inv_dt = rho[1:-1] / dt
        ab[1, 2:] = -alpha[1:]          # superdiagonal, interior rows
        ab[3, :-2] = -alpha[:-1]        # subdiagonal, interior rows
        ab[2, 1:-1] = inv_dt + alpha[1:] + alpha[:-1]
        rhs[1:-1] = inv_dt * v[m, 1:-1]
        g_mid = rho2_mid / jac**2
        rhs[1:-1] -= (g_mid[1:] - g_mid[:-1]) / h
        # left boundary row: -3 v0 + 4 v1 - v2 = 0
        ab[2, 0] = -3.0
        ab[1, 1] = 4.0
        ab[0, 2] = -1.0
        # right boundary row: 3 v_{n-1} - 4 v_{n-2} + v_{n-3} = 0
        ab[2, -1] = 3.0
        ab[3, -2] = -4.0
        ab[4, -3] = 1.0
        v[m + 1] = solve_banded((2, 2), ab, rhs)
        eta[m + 1] = eta[m] + 0.5 * dt * (v[m] + v[m + 1])

    return FDTrajectory(times, v, eta, dt, profile, jac_min, jac_max)
