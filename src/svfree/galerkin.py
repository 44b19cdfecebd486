"""Spectral Galerkin machinery for the linearized vacuum momentum equation.

The linearization freezes the flow-map Jacobian at a guess eta_bar_x and solves

    rho0 v_t + (rho0^2 / eta_bar_x^2)_x = (rho0 v_x / eta_bar_x^2)_x

by projection onto the Neumann eigenbasis of the Laplacian on [0, 1]:
e_0 = 1, e_n = sqrt(2) cos(n pi x). Every mode has vanishing endpoint slope,
so truncated velocities satisfy the vacuum-boundary Neumann condition exactly.
The modal system is

    M dlam/dt + S(t) lam = F(t),
    M_ij = int rho0 e_i e_j,  S_ij = int rho0 (e_i)_x (e_j)_x / eta_bar_x^2,
    F_j = int rho0^2 (e_j)_x / eta_bar_x^2,

stepped implicitly (backward Euler by default, Crank-Nicolson optional).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateMassError,
    FlowMapDegeneracyError,
)
from .profile import Grid, HeightProfile

__all__ = [
    "GalerkinBasis",
    "ModalTrajectory",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_forcing",
    "project_initial",
    "step_linearized",
    "solve_linearized",
    "n_steps_for",
    "stored_index",
    "energy_identity_residual",
]

ETA_X_RANGE = (0.1, 10.0)

# steps whose operators the march assembles at once: one GEMM per block,
# with the stack of stiffness matrices kept small
_BLOCK_STEPS = 128


class GalerkinBasis:
    """Neumann cosine eigenbasis sampled on a grid, with exact derivatives."""

    def __init__(self, n_modes: int, grid: Grid):
        if n_modes < 1:
            raise ConfigurationError(f"n_modes must be >= 1, got {n_modes}")
        self.n_modes = n_modes
        self.grid = grid
        self._tables: dict[int, np.ndarray] = {}
        self._gradient_products: tuple[np.ndarray, np.ndarray] | None = None
        self._endpoint_tables: dict[tuple[float, int], np.ndarray] = {}

    def table(self, order: int = 0) -> np.ndarray:
        """(n_modes, n_nodes) array of order-th mode derivatives at the nodes."""
        tab = self._tables.get(order)
        if tab is None:
            tab = self.evaluate_modes(self.grid.nodes, order)
            self._tables[order] = tab
        return tab

    def gradient_products(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_nodes, m(m+1)/2) products (e_i)_x (e_j)_x, i <= j, and an (m*m,) column index.

        (w @ table)[..., index] are row-major weighted Gram matrices, exactly symmetric.
        """
        if self._gradient_products is None:
            d = self.table(1).T
            i, j = np.triu_indices(self.n_modes)
            index = np.empty((self.n_modes, self.n_modes), dtype=np.intp)
            index[i, j] = index[j, i] = np.arange(len(i))
            self._gradient_products = (d[:, i] * d[:, j], index.ravel())
        return self._gradient_products

    def evaluate_modes(self, x, order: int = 0) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((self.n_modes, x.size))
        if order == 0:
            out[0] = 1.0
        # d^k/dx^k cos(w x) = sign * w^k * trig(w x), by k mod 4
        trig, sign = ((np.cos, 1.0), (np.sin, -1.0), (np.cos, -1.0), (np.sin, 1.0))[order % 4]
        for n in range(1, self.n_modes):
            w = n * np.pi
            out[n] = sign * np.sqrt(2.0) * w**order * trig(w * x)
        if order % 2 == 1:
            # sin(n pi x) vanishes identically on the boundary; keep it exact
            edge = (x == 0.0) | (x == 1.0)
            out[:, edge] = 0.0
        return out

    def evaluate(self, coeffs: np.ndarray, x, order: int = 0) -> np.ndarray:
        return np.asarray(coeffs) @ self.evaluate_modes(x, order)

    def endpoint_derivatives(self, coeffs: np.ndarray, x0: float, n_orders: int) -> np.ndarray:
        """Exact one-sided derivatives of orders 0..n_orders-1 of the modal sum at an endpoint.

        ``coeffs`` is one coefficient vector or a stack ``(..., n_modes)``;
        the result has shape ``(..., n_orders)``. All odd-order derivatives
        vanish there (the sine factor), a structural identity the
        boundary-limit series arithmetic relies on.
        """
        key = (float(x0), n_orders)
        table = self._endpoint_tables.get(key)
        if table is None:
            # row n, column k: d^k/dx^k e_n at x0
            modes = np.arange(1, self.n_modes)
            sign_n = np.ones(len(modes)) if x0 == 0.0 else (-1.0) ** modes
            table = np.zeros((self.n_modes, n_orders))
            for k in range(0, n_orders, 2):
                table[1:, k] = np.sqrt(2.0) * (modes * np.pi) ** k * (-1.0) ** (k // 2) * sign_n
            if n_orders > 0:
                table[0, 0] = 1.0
            self._endpoint_tables[key] = table
        return np.asarray(coeffs) @ table

    def orthonormality_defect(self) -> float:
        """max |(e_i, e_j) - delta_ij| under the trapezoid rule.

        Trapezoid, not Simpson: on a uniform grid it integrates every pure
        cosine below the aliasing limit exactly, so the defect is rounding-level.
        """
        w = np.full(self.grid.n_nodes, self.grid.spacing)
        w[[0, -1]] *= 0.5
        e = self.table(0)
        gram = (e * w) @ e.T
        return float(np.max(np.abs(gram - np.eye(self.n_modes))))


@dataclass(frozen=True)
class ModalTrajectory:
    """Time-indexed modal coefficients lam(t) of the velocity."""

    times: np.ndarray
    coeffs: np.ndarray
    dt: float
    basis: GalerkinBasis

    def index_of(self, t: float) -> int:
        return stored_index(self.times, self.dt, t)

    def velocity(self, t: float) -> np.ndarray:
        """Nodal velocity at the stored time t."""
        return self.coeffs[self.index_of(t)] @ self.basis.table(0)


def stored_index(times: np.ndarray, dt: float, t: float) -> int:
    """Index of the stored time t on a uniform time grid with step dt.

    t may miss its stored time by the 1e-9 relative slack that n_steps_for
    gives t_final, so that i*dt finds step i of any grid it accepted.
    """
    idx = int(round(t / dt)) if dt > 0 else 0
    if idx < 0 or idx >= len(times) or abs(times[idx] - t) > 1e-9 * max(dt, abs(t), abs(times[idx])):
        raise ConfigurationError(f"t={t} is not a stored time of this trajectory")
    return idx


def check_jacobian(eta_x) -> np.ndarray:
    """Nodal flow-map Jacobians as a float array, finite and inside ETA_X_RANGE."""
    eta_x = np.asarray(eta_x, dtype=float)
    lo, hi = ETA_X_RANGE
    if np.any(~np.isfinite(eta_x)) or np.any(eta_x <= lo) or np.any(eta_x >= hi):
        raise FlowMapDegeneracyError(
            f"flow-map Jacobian left the admissible range {ETA_X_RANGE}: "
            f"min={np.min(eta_x):.3g}, max={np.max(eta_x):.3g}"
        )
    return eta_x


def _jacobian_weights(profile: HeightProfile, eta_x, rho_power: int) -> np.ndarray:
    """Quadrature weights rho0^rho_power / eta_x^2 for rows of nodal Jacobians."""
    eta_x = check_jacobian(eta_x)
    return profile.grid.simpson_weights * profile.values**rho_power / eta_x**2


def assemble_mass(profile: HeightProfile, basis: GalerkinBasis) -> np.ndarray:
    w = profile.grid.simpson_weights * profile.values
    e = basis.table(0)
    mass = (e * w) @ e.T
    mass = (mass + mass.T) / 2.0
    try:
        np.linalg.cholesky(mass)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMassError(
            "weighted mass matrix is not positive definite; the height profile "
            "does not separate the basis modes"
        ) from exc
    return mass


def assemble_stiffness(
    profile: HeightProfile, basis: GalerkinBasis, eta_x: np.ndarray
) -> np.ndarray:
    """Stiffness matrices for Jacobian rows of shape (..., n_nodes): (..., m, m)."""
    table, index = basis.gradient_products()
    w = _jacobian_weights(profile, eta_x, 1)
    return np.take(w @ table, index, axis=-1).reshape(w.shape[:-1] + (basis.n_modes,) * 2)


def assemble_forcing(
    profile: HeightProfile, basis: GalerkinBasis, eta_x: np.ndarray
) -> np.ndarray:
    """Forcing vectors for Jacobian rows of shape (..., n_nodes): (..., m)."""
    return _jacobian_weights(profile, eta_x, 2) @ basis.table(1).T


def project_initial(values: np.ndarray, basis: GalerkinBasis, grid: Grid) -> np.ndarray:
    """Plain (unweighted) L2 modal coefficients of nodal initial velocity values."""
    return basis.table(0) @ (grid.simpson_weights * values)


def step_linearized(
    lam: np.ndarray,
    dt: float,
    mass: np.ndarray,
    stiffness_next: np.ndarray,
    forcing_next: np.ndarray,
    scheme: str = "implicit-euler",
    stiffness_cur: np.ndarray | None = None,
    forcing_cur: np.ndarray | None = None,
) -> np.ndarray:
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if scheme == "implicit-euler":
        lhs, rhs = mass + dt * stiffness_next, mass @ lam + dt * forcing_next
    elif scheme == "crank-nicolson":
        if stiffness_cur is None or forcing_cur is None:
            raise ConfigurationError("crank-nicolson needs operators at both step endpoints")
        lhs = mass + 0.5 * dt * stiffness_next
        rhs = (mass - 0.5 * dt * stiffness_cur) @ lam + 0.5 * dt * (forcing_cur + forcing_next)
    else:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMassError("implicit step system failed to solve") from exc


def n_steps_for(t_final: float, dt: float) -> int:
    """Step count of [0, t_final]: t_final/dt must be a whole number to 1e-9 relative."""
    if dt <= 0 or t_final <= 0:
        raise ConfigurationError(f"t_final={t_final} and dt={dt} must be positive")
    ratio = t_final / dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * max(1.0, ratio):
        raise ConfigurationError(
            f"config fields 't_final'/'dt' must divide evenly, got {t_final}/{dt}"
        )
    return steps


def _operator_blocks(profile, basis, eta_x, steps: int, first: int = 0):
    """Yield (row, stiffness, forcing stacks) for Jacobian rows first..steps, in blocks.

    eta_x must broadcast to (steps+1, n_nodes): one nodal row per step time,
    or one row for every step.
    """
    shape = (steps + 1, profile.grid.n_nodes)
    try:
        rows = np.broadcast_to(np.asarray(eta_x, dtype=float), shape)
    except ValueError:
        raise ConfigurationError(
            f"eta_x must broadcast to (steps+1, n_nodes) = {shape}, got shape {np.shape(eta_x)}"
        ) from None
    for start in range(first, steps + 1, _BLOCK_STEPS):
        block = rows[start:start + _BLOCK_STEPS]
        force = assemble_forcing(profile, basis, block)
        yield start, assemble_stiffness(profile, basis, block), force


def solve_linearized(
    profile: HeightProfile,
    u0,
    eta_x,
    t_final: float,
    dt: float,
    n_modes: int,
    scheme: str = "implicit-euler",
    basis: GalerkinBasis | None = None,
) -> ModalTrajectory:
    """March the modal system over [0, t_final] against a frozen flow guess.

    F is the pressure forcing (rho0^2 / eta_bar_x^2)_x, which every run includes.
    eta_x is the nodal Jacobian of the guess flow at the step times: an array
    that broadcasts to (steps+1, n_nodes), so one row serves every step.
    """
    grid = profile.grid
    if basis is None:
        basis = GalerkinBasis(n_modes, grid)
    steps = n_steps_for(t_final, dt)
    times = np.linspace(0.0, t_final, steps + 1)
    mass = assemble_mass(profile, basis)
    coeffs = np.zeros((steps + 1, basis.n_modes))
    coeffs[0] = project_initial(u0.values, basis, grid)

    # operators of row m are the "next" ones of step m and the "current" ones
    # of step m + 1 (Crank-Nicolson), also across block seams
    cur = (None, None)
    for start, stiff, force in _operator_blocks(profile, basis, eta_x, steps):
        for k, ops in enumerate(zip(stiff, force)):
            m = start + k
            if m > 0:
                coeffs[m] = step_linearized(coeffs[m - 1], dt, mass, *ops, scheme, *cur)
            cur = ops
    return ModalTrajectory(times, coeffs, dt, basis)


def energy_identity_residual(
    traj: ModalTrajectory,
    profile: HeightProfile,
    eta_x,
) -> float:
    """Residual of the discrete balance obtained by testing with the solution:

        1/2 ||sqrt(rho0) v(T)||^2 + sum dt int rho0 v_x^2 / eta_bar_x^2
            = 1/2 ||sqrt(rho0) v(0)||^2 + sum dt int rho0^2 v_x / eta_bar_x^2,

    sums over step right-endpoints. eta_x broadcasts to (steps+1, n_nodes) as
    in solve_linearized. For the backward-Euler trajectory the residual
    equals the accumulated jump dissipation, O(dt).
    """
    basis = traj.basis
    mass = assemble_mass(profile, basis)
    lam = traj.coeffs
    dt = traj.dt
    dissip = 0.0
    work = 0.0
    for start, stiff, force in _operator_blocks(profile, basis, eta_x, len(lam) - 1, first=1):
        lam_b = lam[start:start + len(stiff)]
        dissip += dt * np.einsum("ti,tij,tj->", lam_b, stiff, lam_b)
        work += dt * np.einsum("ti,ti->", force, lam_b)
    lhs = 0.5 * lam[-1] @ mass @ lam[-1] + dissip
    rhs = 0.5 * lam[0] @ mass @ lam[0] + work
    return float(abs(lhs - rhs))
