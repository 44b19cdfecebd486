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

    def flow_at(self, idx: int):
        """The nodes, the flow row at stored step idx, and eta (its PCHIP interpolant,
        monotone as the row increases), eta_x and v (linear in the row) at any points."""
        from scipy.interpolate import PchipInterpolator  # only FD runs load scipy

        nodes, v = self.grid.nodes, self.v[idx]
        eta = PchipInterpolator(nodes, self.eta[idx])
        return nodes, self.eta[idx], eta, eta.derivative(), lambda x: np.interp(x, nodes, v)

    def end_slopes(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """v_x and eta_x at x = 0 and x = 1 on the stored rows idx, each of shape (rows, 2).

        A one-sided stencil (in units of 1/h) at the left end and its negated
        reverse at the right, the products summed left to right from 0 as
        np.gradient sums its edge rows. v_x's (-11/6, 3, -3/2, 1/3) is wider
        than the solver's Neumann closure, so it measures the genuine O(h^2)
        defect instead of reproducing the constraint; eta_x's is (-3/2, 2, -1/2).
        """
        def ends(stack, w):
            w = np.array(w) / self.grid.spacing
            products = (w * stack[idx, :len(w)], -w[::-1] * stack[idx, -len(w):])
            return np.stack([sum(p.T) for p in products], axis=1)

        return ends(self.v, (-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0)), ends(self.eta, (-1.5, 2.0, -0.5))


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
