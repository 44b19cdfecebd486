"""Eulerian free-boundary reconstruction and vacuum-boundary diagnostics.

The moving domain is the image of [0, 1] under the flow map; the Eulerian
height and velocity are pullbacks through its inverse,

    rho(y, t) = rho0(x) / eta_x(x, t),   u(y, t) = v(x, t),   x = inverse(y).

The inverse starts from the piecewise-linear inverse of the nodal flow row and
takes three Newton steps on the solution's own smooth map, which the solution
gives (flow_at): the modal sum for the spectral solution, a PCHIP interpolant
for the finite-difference oracle. Boundary diagnostics report the endpoint
Neumann defect, the stress with its factors, and the one-sided
sound-speed-squared slope, all as one-sided limits, from the end slopes the
solution gives (end_slopes). Any solution with those two reads and a profile
serves; nothing here asks which solver made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, FlowMapDegeneracyError
from .profile import simpson_weights

__all__ = ["EulerianSnapshot", "BoundaryReport", "eulerian_fields", "flow_map", "boundary_reports",
           "boundary_diagnostics", "eulerian_mass"]


@dataclass(frozen=True)
class EulerianSnapshot:
    t: float
    boundary: tuple[float, float]
    boundary_velocity: tuple[float, float]
    y: np.ndarray
    rho: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class BoundaryReport:
    t: float
    vx_at_boundary: tuple[float, float]
    ux_at_boundary: tuple[float, float]
    stress_at_boundary: tuple[float, float]
    soundspeed_slope: tuple[float, float]


class _FlowMap(NamedTuple):
    """The flow at one stored step: its nodal row, and eta(x), eta_x(x) and v(x)."""

    nodes: np.ndarray
    row: np.ndarray
    eta: Callable
    eta_x: Callable
    v: Callable

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Newton on eta(x) = y from the piecewise-linear inverse of the row.

        The start is O(h^2) off. On flows with eta_x in [1/2, 3/2] and 8 to 32
        cosine modes, two steps leave up to 2e-13 and the third reaches rounding.
        """
        x = np.interp(y, self.row, self.nodes)
        for _ in range(3):
            x = np.clip(x - (self.eta(x) - y) / self.eta_x(x), 0.0, 1.0)
        x[0], x[-1] = 0.0, 1.0
        return x


def _with_flow(traj):
    """traj, if it carries a flow map; a bare modal velocity record has none to pull back through."""
    if not hasattr(traj, "flow_at"):
        raise ConfigurationError(f"unsupported trajectory type {type(traj).__name__}")
    return traj


def flow_map(traj, idx: int) -> _FlowMap:
    """The flow of a solution (spectral or finite-difference) at stored step idx."""
    return _FlowMap(*_with_flow(traj).flow_at(idx))


def eulerian_fields(traj, t: float, n_samples: int = 401) -> EulerianSnapshot:
    """Sample the Eulerian height and velocity on a uniform grid of the domain."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ConfigurationError("n_samples must be odd and >= 3 (Simpson sampling)")
    flow = flow_map(traj, traj.index_of(t))
    ends = np.array([0.0, 1.0])
    left, right = flow.eta(ends).tolist()
    if not left < right:
        raise FlowMapDegeneracyError("flow map is not orientation preserving")
    y = np.linspace(left, right, n_samples)
    x = flow.inverse(y)
    eta_x = flow.eta_x(x)
    if np.any(eta_x <= 0.0):
        raise FlowMapDegeneracyError("flow map is not monotone at the samples")
    rho = traj.profile.sample(x) / eta_x
    rho[[0, -1]] = 0.0
    return EulerianSnapshot(t, (left, right), tuple(flow.v(ends).tolist()), y, rho, flow.v(x))


def eulerian_mass(snapshot: EulerianSnapshot) -> float:
    """Simpson mass of the sampled Eulerian height over the moving domain."""
    n = len(snapshot.y)
    h = (snapshot.y[-1] - snapshot.y[0]) / (n - 1)
    return float(np.dot(simpson_weights(n, h), snapshot.rho))


def boundary_reports(traj, times) -> list[BoundaryReport]:
    """Endpoint Neumann defect, stress factors, and sound-speed slope at stored times.

    The solution gives v_x and eta_x at both ends: a spectral one exactly
    zero and one (the endpoint slope of every mode vanishes), the
    finite-difference oracle its genuine O(h^2) defect. The stress
    rho^2 - rho*u_x is identically zero because rho vanishes there; the u_x
    factor is reported alongside.
    """
    traj = _with_flow(traj)
    vx, eta_xb = traj.end_slopes([traj.index_of(t) for t in times])
    slopes = np.abs([traj.profile.endpoint_derivatives(s, 2)[1] for s in (0.0, 1.0)]) / eta_xb**2
    ux = vx / eta_xb
    stress = (0.0, 0.0)  # rho^2 - rho*u_x with rho = 0 on the moving boundary
    return [
        BoundaryReport(t, tuple(v.tolist()), tuple(u.tolist()), stress, tuple(c.tolist()))
        for t, v, u, c in zip(times, vx, ux, slopes)
    ]


def boundary_diagnostics(traj, t: float) -> BoundaryReport:
    """The boundary report at one stored time."""
    return boundary_reports(traj, [t])[0]
