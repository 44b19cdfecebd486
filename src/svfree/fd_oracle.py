"""Independent nodal finite-difference solver for cross-validation.

Marches the nonlinear degenerate momentum equation directly on the grid:
backward Euler in time with the Jacobian lagged one step, conservative
second-order fluxes rho0 v_x / eta_x^2 - rho0^2 / eta_x^2 evaluated at cell
midpoints, and a second-order one-sided Neumann closure at the two vacuum
endpoints (the equation itself degenerates there), solved by a Thomas
sweep. No spectral machinery is shared with the Galerkin path, and nothing
here needs more than numpy.
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
        nodes, v = self.grid.nodes, self.v[idx]
        return nodes, self.eta[idx], *_pchip(nodes, self.eta[idx]), lambda x: np.interp(x, nodes, v)

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


def _pchip(x: np.ndarray, y: np.ndarray):
    """eta and eta_x of the PCHIP interpolant of (x, y) (Fritsch & Carlson), at any points.

    scipy's PchipInterpolator in the same arithmetic: at an interior node
    the weighted harmonic mean of the two side slopes, or 0 where they
    differ in sign or either is 0; at an end the one-sided three-point
    estimate, set to 0 if its sign is not the first slope's and limited to
    3 times that slope where the first two slopes differ in sign. Each
    piece is a cubic Hermite in s = x - x_i, summed in rising powers of s,
    and the end pieces extend past the ends.
    """
    def end_slope(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    d = np.zeros_like(y)
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    w1, w2 = (2 * h[1:] + h[:-1])[inner], (h[1:] + 2 * h[:-1])[inner]
    d[1:-1][inner] = 1.0 / ((w1 / m[:-1][inner] + w2 / m[1:][inner]) / (w1 + w2))
    d[0], d[-1] = end_slope(h[0], h[1], m[0], m[1]), end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    def piece(points):
        i = np.clip(np.searchsorted(x, points, side="right") - 1, 0, len(x) - 2)
        s = points - x[i]
        return i, s, s * s

    def eta(points):
        i, s, s2 = piece(points)
        return c[3][i] + c[2][i] * s + c[1][i] * s2 + c[0][i] * (s2 * s)

    def eta_x(points):
        i, s, s2 = piece(points)
        return c[2][i] + (2.0 * c[1][i]) * s + (3.0 * c[0][i]) * s2

    return eta, eta_x


def _thomas(inv_dt: np.ndarray, alpha: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The nodal velocity after one backward-Euler step, from its interior rows.

    Interior row i (1 <= i <= n-2) reads
    -alpha[i-1] v[i-1] + (inv_dt[i-1] + alpha[i] + alpha[i-1]) v[i] - alpha[i] v[i+1] = rhs[i-1].
    The Neumann closure rows (-3, 4, -1), v[0] = (4 v[1] - v[2]) / 3 and its
    mirror for v[n-1], are folded into rows 1 and n-2, which leaves a
    tridiagonal system on the interior nodes; a Thomas sweep (LU without
    pivoting) solves it, and the closure gives the two end values (n >= 4).

    No pivoting is needed while the folded system is strictly diagonally
    dominant by rows, as elimination keeps that. Rows 2..n-3 are dominant by
    inv_dt = rho_i/dt > 0. Folded row 1 has diagonal inv_dt + alpha[1] -
    alpha[0]/3 and off-diagonal alpha[0]/3 - alpha[1], so it is dominant when
    3 alpha[1] >= alpha[0], or else when rho_1/dt > 2 (alpha[0]/3 - alpha[1]);
    row n-2 likewise with alpha[n-2] for alpha[0] and alpha[n-3] for alpha[1].
    With alpha = rho0/(h eta_x)^2 at the midpoints and rho0 vanishing
    linearly at the vacuum ends, the first condition holds while eta_x at
    the second midpoint is at most about 3 times eta_x at the first.
    """
    a, r = alpha.tolist(), rhs.tolist()
    diag = (inv_dt + alpha[1:] + alpha[:-1]).tolist()
    upper = [-w for w in a[1:-1]]  # row k's coefficient on interior node k+1
    lower = upper.copy()           # row k+1's coefficient on interior node k
    diag[0] -= 4.0 * a[0] / 3.0
    upper[0] += a[0] / 3.0
    diag[-1] -= 4.0 * a[-1] / 3.0
    lower[-1] += a[-1] / 3.0
    for k in range(1, len(diag)):
        w = lower[k - 1] / diag[k - 1]
        diag[k] -= w * upper[k - 1]
        r[k] -= w * r[k - 1]
    r[-1] /= diag[-1]  # back substitution turns r into the interior velocity
    for k in range(len(diag) - 2, -1, -1):
        r[k] = (r[k] - upper[k] * r[k + 1]) / diag[k]
    return np.array([(4.0 * r[0] - r[1]) / 3.0, *r, (4.0 * r[-1] - r[-2]) / 3.0])


def fd_oracle_solve(
    profile: HeightProfile,
    u0: AnalyticField,
    t_final: float,
    dt: float,
) -> FDTrajectory:
    """March the nonlinear equation, pressure flux included, over [0, t_final].

    Every stored row's Jacobian, the last included, is checked against
    ETA_X_RANGE and counts toward eta_x_min and eta_x_max.
    """
    if profile.kind == "distance":
        raise ConfigurationError("the distance weight is not a solver profile")
    grid = profile.grid
    n = grid.n_nodes
    h = grid.spacing
    steps = n_steps_for(t_final, dt)
    times = np.linspace(0.0, t_final, steps + 1)
    x = grid.nodes
    xm = 0.5 * (x[:-1] + x[1:])
    inv_dt = profile.values[1:-1] / dt
    rho_mid = profile.sample(xm)
    rho2_mid = rho_mid**2

    v = np.zeros((steps + 1, n))
    eta = np.zeros((steps + 1, n))
    v[0] = u0.values
    eta[0] = x

    jac_min, jac_max = np.inf, -np.inf
    for m in range(steps + 1):
        jac = check_jacobian((eta[m, 1:] - eta[m, :-1]) / h)
        jac_min = min(jac_min, float(np.min(jac)))
        jac_max = max(jac_max, float(np.max(jac)))
        if m == steps:
            break
        # backward-Euler conservative stencil on the interior nodes, flux
        # weights at the midpoints; one-sided second-order v_x = 0 at the ends
        g_mid = rho2_mid / jac**2
        rhs = inv_dt * v[m, 1:-1] - (g_mid[1:] - g_mid[:-1]) / h
        v[m + 1] = _thomas(inv_dt, rho_mid / (h**2 * jac**2), rhs)
        eta[m + 1] = eta[m] + 0.5 * dt * (v[m] + v[m + 1])

    return FDTrajectory(times, v, eta, dt, profile, jac_min, jac_max)
