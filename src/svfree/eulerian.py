"""Eulerian free-boundary reconstruction and vacuum-boundary diagnostics.

The moving domain is the image of [0, 1] under the flow map; the Eulerian
height and velocity are pullbacks through its inverse,

    rho(y, t) = rho0(x) / eta_x(x, t),   u(y, t) = v(x, t),   x = inverse(y).

The inverse is found per sample by monotone bisection plus one Newton polish
(the Jacobian bound keeps eta strictly increasing). Boundary diagnostics
report the endpoint Neumann defect, the stress with its factors, and the
one-sided sound-speed-squared slope, all as one-sided limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FlowMapDegeneracyError
from .fd_oracle import FDTrajectory
from .picard import SolutionTrajectory
from .profile import HeightProfile, simpson_weights

__all__ = [
    "EulerianSnapshot",
    "BoundaryReport",
    "eulerian_fields",
    "boundary_reports",
    "boundary_diagnostics",
    "eulerian_mass",
]


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


def _invert_flow_modal(traj: SolutionTrajectory, idx: int, y: np.ndarray) -> np.ndarray:
    basis = traj.basis
    mu = traj.flow_coeffs[idx]

    def eta_of(x):
        return x + basis.evaluate(mu, x, 0)

    def eta_x_of(x):
        return 1.0 + basis.evaluate(mu, x, 1)

    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        less = eta_of(mid) < y
        lo = np.where(less, mid, lo)
        hi = np.where(less, hi, mid)
    x = 0.5 * (lo + hi)
    x = np.clip(x - (eta_of(x) - y) / eta_x_of(x), 0.0, 1.0)
    return x


def eulerian_fields(
    profile: HeightProfile, traj, t: float, n_samples: int = 401
) -> EulerianSnapshot:
    """Sample the Eulerian height and velocity on a uniform grid of the domain."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ConfigurationError("n_samples must be odd and >= 3 (Simpson sampling)")
    if isinstance(traj, SolutionTrajectory):
        idx = traj.index_of(t)
        basis = traj.basis
        mu = traj.flow_coeffs[idx]
        lam = traj.coeffs[idx]
        ends = np.array([0.0, 1.0])
        left, right = (ends + basis.evaluate(mu, ends, 0)).tolist()
        v_ends = basis.evaluate(lam, ends, 0)

        def pull_back(y):
            x = _invert_flow_modal(traj, idx, y)
            x[0], x[-1] = 0.0, 1.0
            return x, 1.0 + basis.evaluate(mu, x, 1), basis.evaluate(lam, x, 0)
    elif isinstance(traj, FDTrajectory):
        idx = traj.index_of(t)
        eta = traj.eta[idx]
        v = traj.v[idx]
        nodes = traj.grid.nodes
        left, right = float(eta[0]), float(eta[-1])
        v_ends = (v[0], v[-1])

        def pull_back(y):
            from scipy.interpolate import PchipInterpolator  # only FD runs load scipy

            eta_interp = PchipInterpolator(nodes, eta)
            deta = eta_interp.derivative()
            # one PCHIP-Newton polish on the piecewise-linear inverse
            x = np.interp(y, eta, nodes)
            x = np.clip(x - (eta_interp(x) - y) / deta(x), 0.0, 1.0)
            x[0], x[-1] = 0.0, 1.0
            return x, deta(x), np.interp(x, nodes, v)
    else:
        raise ConfigurationError(f"unsupported trajectory type {type(traj).__name__}")
    if not left < right:
        raise FlowMapDegeneracyError("flow map is not orientation preserving")
    y = np.linspace(left, right, n_samples)
    x, eta_x, u = pull_back(y)
    if np.any(eta_x <= 0.0):
        raise FlowMapDegeneracyError("flow map is not monotone at the samples")
    rho = profile.sample(x) / eta_x
    rho[0] = 0.0
    rho[-1] = 0.0
    return EulerianSnapshot(t, (left, right), (float(v_ends[0]), float(v_ends[1])), y, rho, u)


def eulerian_mass(snapshot: EulerianSnapshot) -> float:
    """Simpson mass of the sampled Eulerian height over the moving domain."""
    n = len(snapshot.y)
    h = (snapshot.y[-1] - snapshot.y[0]) / (n - 1)
    return float(np.dot(simpson_weights(n, h), snapshot.rho))


def boundary_reports(profile: HeightProfile, traj, times) -> list[BoundaryReport]:
    """Endpoint Neumann defect, stress factors, and sound-speed slope at stored times.

    For spectral trajectories the endpoint slope of every mode vanishes
    identically, so vx is exactly zero; the finite-difference oracle reports
    its genuine O(h^2) defect. The stress rho^2 - rho*u_x is identically zero
    because rho vanishes there; the u_x factor is reported alongside.
    """
    if isinstance(traj, SolutionTrajectory):
        idx = [traj.index_of(t) for t in times]
        basis = traj.basis
        # (rows, 2) first derivatives at x = 0 and x = 1: one product per end and field
        vx, eta_xb = (
            np.stack([basis.endpoint_derivatives(c[idx], s, 2)[:, 1] for s in (0.0, 1.0)], axis=1)
            for c in (traj.coeffs, traj.flow_coeffs)
        )
        eta_xb += 1.0
    elif isinstance(traj, FDTrajectory):
        idx = [traj.index_of(t) for t in times]
        vx = np.array([traj.boundary_vx(t) for t in times])
        eta_xb = np.gradient(traj.eta[idx], traj.grid.spacing, axis=1, edge_order=2)[:, [0, -1]]
    else:
        raise ConfigurationError(f"unsupported trajectory type {type(traj).__name__}")
    slopes = np.abs([profile.endpoint_derivatives(s, 2)[1] for s in (0.0, 1.0)]) / eta_xb**2
    ux = vx / eta_xb
    stress = (0.0, 0.0)  # rho^2 - rho*u_x with rho = 0 on the moving boundary
    return [
        BoundaryReport(t, tuple(v.tolist()), tuple(u.tolist()), stress, tuple(c.tolist()))
        for t, v, u, c in zip(times, vx, ux, slopes)
    ]


def boundary_diagnostics(profile: HeightProfile, traj, t: float) -> BoundaryReport:
    """The boundary report at one stored time."""
    return boundary_reports(profile, traj, [t])[0]
