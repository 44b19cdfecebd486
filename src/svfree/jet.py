"""Initial time-derivative jets and the two monitored energy functionals.

The momentum equation solved pointwise for the acceleration,

    v_t = (rho0_x/rho0) v_x / eta_x^2 + v_xx / eta_x^2 - 2 v_x eta_xx / eta_x^3
          - 2 rho0_x / eta_x^2 + 2 rho0 eta_xx / eta_x^3,

is differentiated in time symbolically (eta_t = v closes the recursion), which
expresses d_t^k v and its spatial derivatives as rational functions of the
profile, the velocity and the flow map. Those expressions are generated once
with sympy and evaluated two ways: vectorized on the interior nodes, and in
truncated Laurent arithmetic at the two vacuum endpoints, where the 1/rho0
factors cancel exactly for compatible data. When the data is incompatible
(nonzero endpoint values of d_t^k v_x), a genuine pole survives; the endpoint
value is then the Hadamard finite part and the report is flagged.

The higher-order energy functional sums fifteen weighted squared norms
(time derivatives through order three, mixed and pure spatial derivatives
through order six, with distance-like weights rho0^k); the lower-order
functional used by the uniqueness probe sums nine of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

from ._series import N_TERMS, LaurentSeries
from .errors import (
    FlowMapDegeneracyError,
    UnsupportedOperationError,
    ValidationError,
)
from .galerkin import ETA_X_RANGE
from .profile import AnalyticField, Field, HeightProfile

__all__ = [
    "InitialJet",
    "TimeJet",
    "EnergyReport",
    "initial_jet",
    "time_derivatives_along",
    "energy_high",
    "energy_low",
    "E_SUMMAND_WEIGHTS",
    "LOW_SUMMAND_WEIGHTS",
]

log = logging.getLogger(__name__)

_DEPTH = 7
_R = sp.symbols(f"r0:{_DEPTH}")
_W = sp.symbols(f"w0:{_DEPTH}")
_J = sp.symbols(f"j0:{_DEPTH}")
_A = sp.symbols(f"a0:{_DEPTH}")
_B = sp.symbols(f"b0:{_DEPTH}")
_ALL_SYMBOLS = (*_R, *_W, *_J, *_A, *_B)

_ATOM_ORDERS = 6 + N_TERMS

# evaluation order matters: a* need only (r, w, j) symbols, b* additionally
# consume a-fields, c0 consumes b-fields
_OUTPUTS = ("a0", "a1", "a2", "a3", "a4", "b0", "b1", "b2", "c0")


def _dx(expr):
    shift = {}
    tops = set()
    for fam in (_R, _W, _J, _A, _B):
        for k in range(_DEPTH - 1):
            shift[fam[k]] = fam[k + 1]
        tops.add(fam[_DEPTH - 1])
    if expr.free_symbols & tops:
        raise RuntimeError("derivative depth exhausted; raise the symbol depth")
    total = sp.Integer(0)
    for s in expr.free_symbols:
        if s in shift:
            total += sp.diff(expr, s) * shift[s]
    return total


def _dt(expr):
    rate = {}
    for k in range(_DEPTH):
        rate[_W[k]] = _A[k]
        rate[_A[k]] = _B[k]
        if k >= 1:
            rate[_J[k]] = _W[k]
    total = sp.Integer(0)
    for s in expr.free_symbols:
        if s in rate:
            total += sp.diff(expr, s) * rate[s]
    return total


@lru_cache(maxsize=None)
def _expressions(include_pressure: bool) -> dict:
    r0, r1 = _R[0], _R[1]
    w1, w2 = _W[1], _W[2]
    j1, j2 = _J[1], _J[2]
    accel = (r1 * w1 / r0 + w2) / j1**2 - 2 * w1 * j2 / j1**3
    if include_pressure:
        accel += -2 * r1 / j1**2 + 2 * r0 * j2 / j1**3
    exprs = {"a0": accel}
    for k in range(1, 5):
        exprs[f"a{k}"] = _dx(exprs[f"a{k-1}"])
    exprs["b0"] = _dt(exprs["a0"])
    exprs["b1"] = _dx(exprs["b0"])
    exprs["b2"] = _dx(exprs["b1"])
    exprs["c0"] = _dt(exprs["b0"])
    return exprs


@lru_cache(maxsize=None)
def _lambdified(include_pressure: bool, flavor: str) -> dict:
    # cse hoists the shared Jacobian/profile powers, which matters a lot for
    # the series-arithmetic evaluation at the endpoints
    modules = "numpy" if flavor == "numpy" else "math"
    return {
        name: sp.lambdify(_ALL_SYMBOLS, expr, modules, cse=True)
        for name, expr in _expressions(include_pressure).items()
    }


@dataclass
class _State:
    """Everything the recursion needs at one instant."""

    profile: HeightProfile
    w: np.ndarray  # (depth, n) spatial derivatives of v
    j: np.ndarray  # (depth, n) spatial derivatives of eta (row 0 = eta)
    w_atoms: tuple[np.ndarray, np.ndarray]  # endpoint derivative stacks
    j_atoms: tuple[np.ndarray, np.ndarray]
    include_pressure: bool = True


@dataclass(frozen=True)
class _Output:
    values: np.ndarray
    series: tuple[LaurentSeries, LaurentSeries]
    poles: tuple[bool, bool]

    def as_field(self, meta: str) -> Field:
        return Field(self.values, meta)


def _endpoint_symbol_series(state: _State, side: int) -> dict:
    r_atoms = state.profile.endpoint_derivatives(float(side), _ATOM_ORDERS)
    w_atoms = state.w_atoms[side]
    j_atoms = state.j_atoms[side]
    series = {}
    for k in range(_DEPTH):
        series[_R[k]] = LaurentSeries.from_derivatives(r_atoms[k:])
        series[_W[k]] = LaurentSeries.from_derivatives(w_atoms[k:])
        series[_J[k]] = LaurentSeries.from_derivatives(j_atoms[k:])
    return series


def _evaluate(state: _State) -> dict[str, _Output]:
    n = state.profile.grid.n_nodes
    lo, hi = ETA_X_RANGE
    j1 = state.j[1]
    if np.any(~np.isfinite(j1)) or np.any(j1 <= lo) or np.any(j1 >= hi):
        raise FlowMapDegeneracyError(
            f"flow-map Jacobian outside {ETA_X_RANGE}: "
            f"min={np.min(j1):.3g}, max={np.max(j1):.3g}"
        )

    np_fns = _lambdified(state.include_pressure, "numpy")
    gen_fns = _lambdified(state.include_pressure, "series")

    interior = slice(1, -1)
    zeros = np.zeros(n - 2)
    args_np = (
        [state.profile.derivative_values(k)[interior] for k in range(_DEPTH)]
        + [state.w[k][interior] for k in range(_DEPTH)]
        + [state.j[k][interior] for k in range(_DEPTH)]
        + [zeros] * (2 * _DEPTH)
    )
    side_args = []
    for side in (0, 1):
        sym = _endpoint_symbol_series(state, side)
        args = (
            [sym[_R[k]] for k in range(_DEPTH)]
            + [sym[_W[k]] for k in range(_DEPTH)]
            + [sym[_J[k]] for k in range(_DEPTH)]
            + [LaurentSeries.constant(0.0)] * (2 * _DEPTH)
        )
        side_args.append(args)

    out: dict[str, _Output] = {}
    a_base = 3 * _DEPTH
    b_base = 4 * _DEPTH
    for name in _OUTPUTS:
        vals_int = np.broadcast_to(np.asarray(np_fns[name](*args_np), dtype=float), (n - 2,))
        series_pair = []
        for side in (0, 1):
            series_pair.append(gen_fns[name](*side_args[side]))
        full = np.empty(n)
        full[interior] = vals_int
        full[0] = series_pair[0].finite_part()
        full[-1] = series_pair[1].finite_part()
        poles = (series_pair[0].has_pole(), series_pair[1].has_pole())
        out[name] = _Output(full, (series_pair[0], series_pair[1]), poles)
        # later expressions consume this output as a symbol
        fam, idx = name[0], int(name[1])
        base = a_base if fam == "a" else b_base
        if fam in ("a", "b"):
            for side in (0, 1):
                side_args[side][base + idx] = series_pair[side]
            args_np[base + idx] = vals_int
    return out


def _state_from_initial(profile: HeightProfile, u0: AnalyticField, include_pressure=True) -> _State:
    n = profile.grid.n_nodes
    w = np.stack([u0.derivative_values(k) for k in range(_DEPTH)])
    j = np.zeros((_DEPTH, n))
    j[0] = profile.grid.nodes
    j[1] = 1.0
    w_atoms = tuple(u0.endpoint_derivatives(float(s), _ATOM_ORDERS) for s in (0, 1))
    j_atoms = []
    for s in (0, 1):
        atoms = np.zeros(_ATOM_ORDERS)
        atoms[0] = float(s)
        atoms[1] = 1.0
        j_atoms.append(atoms)
    return _State(profile, w, j, w_atoms, tuple(j_atoms), include_pressure)


def _state_from_trajectory(traj, t: float) -> _State:
    if not hasattr(traj, "flow_coeffs"):
        raise UnsupportedOperationError(
            "time-derivative reconstruction and energy monitoring need a "
            "spectral trajectory with exact spatial derivatives; the "
            "finite-difference oracle stores nodal data only"
        )
    idx = traj.index_of(t)
    basis = traj.basis
    grid = traj.profile.grid
    lam = traj.coeffs[idx]
    mu = traj.flow_coeffs[idx]
    w = np.stack([lam @ basis.table(k) for k in range(_DEPTH)])
    j = np.stack([mu @ basis.table(k) for k in range(_DEPTH)])
    j[0] += grid.nodes
    j[1] += 1.0
    w_atoms = tuple(basis.endpoint_derivatives(lam, float(s), _ATOM_ORDERS) for s in (0, 1))
    j_atoms = []
    for s in (0, 1):
        atoms = basis.endpoint_derivatives(mu, float(s), _ATOM_ORDERS)
        atoms[0] += float(s)
        atoms[1] += 1.0
        j_atoms.append(atoms)
    include_pressure = not getattr(traj, "zero_forcing", False)
    return _State(traj.profile, w, j, w_atoms, tuple(j_atoms), include_pressure)


@dataclass(frozen=True)
class InitialJet:
    """Compatibility jets: g_k = d_t^k v|_{t=0}, h_k = d_t^k v_x|_{t=0}."""

    g0: Field
    g1: Field
    g2: Field
    g3: Field
    h0: Field
    h1: Field
    h2: Field
    boundary_poles: dict


@dataclass(frozen=True)
class TimeJet:
    """Pointwise time derivatives of the velocity along a trajectory."""

    t: float
    dt_v: Field
    dt2_v: Field
    dt3_v: Field
    dt_vx: Field
    dt2_vx: Field
    dt_vxx: Field
    dt_vx3: Field
    dt_vx4: Field
    boundary_poles: dict


def initial_jet(profile: HeightProfile, u0: AnalyticField) -> InitialJet:
    """Jets from the closed-form data; all 1/rho0 factors resolved at the boundary.

    Requires u0_x = 0 at both endpoints (already enforced by sample_velocity);
    re-validated here for velocities built by hand.
    """
    d1 = u0.derivative_values(1)
    scale = max(float(np.max(np.abs(d1))), 1.0)
    if abs(d1[0]) > 1e-10 * scale or abs(d1[-1]) > 1e-10 * scale:
        raise ValidationError("u0 violates the endpoint compatibility u0_x = 0")
    out = _evaluate(_state_from_initial(profile, u0))
    poles = {name: o.poles for name, o in out.items() if any(o.poles)}
    if poles:
        log.warning(
            "initial jets carry vacuum-boundary poles (incompatible data at "
            "order >= 2); endpoint values are Hadamard finite parts: %s",
            sorted(poles),
        )
    return InitialJet(
        g0=Field(u0.values.copy(), "g0"),
        g1=out["a0"].as_field("g1"),
        g2=out["b0"].as_field("g2"),
        g3=out["c0"].as_field("g3"),
        h0=Field(d1.copy(), "h0"),
        h1=out["a1"].as_field("h1"),
        h2=out["b1"].as_field("h2"),
        boundary_poles=poles,
    )


def time_derivatives_along(traj, t: float) -> TimeJet:
    """Time derivatives at a stored time, reconstructed from the equation.

    Spatial derivatives of the spectral velocity and flow map are exact, so
    this shares every formula (and rounding path) with initial_jet.
    """
    out = _evaluate(_state_from_trajectory(traj, t))
    poles = {name: o.poles for name, o in out.items() if any(o.poles)}
    return TimeJet(
        t=t,
        dt_v=out["a0"].as_field("dt_v"),
        dt2_v=out["b0"].as_field("dt2_v"),
        dt3_v=out["c0"].as_field("dt3_v"),
        dt_vx=out["a1"].as_field("dt_vx"),
        dt2_vx=out["b1"].as_field("dt2_vx"),
        dt_vxx=out["a2"].as_field("dt_vxx"),
        dt_vx3=out["a3"].as_field("dt_vx3"),
        dt_vx4=out["a4"].as_field("dt_vx4"),
        boundary_poles=poles,
    )


# summand label -> (source, weight power); sources w0..w6 are spatial
# derivatives of v, a*/b*/c* are the recursion outputs above.
E_SUMMAND_WEIGHTS = {
    "t0_v": ("w0", 1),
    "t1_v": ("a0", 1),
    "t2_v": ("b0", 1),
    "t3_v": ("c0", 1),
    "t0_vx": ("w1", 1),
    "t1_vx": ("a1", 1),
    "t2_vx": ("b1", 1),
    "t1_x2": ("a2", 2),
    "t1_x3": ("a3", 3),
    "t1_x4": ("a4", 4),
    "x2": ("w2", 2),
    "x3": ("w3", 3),
    "x4": ("w4", 4),
    "x5": ("w5", 5),
    "x6": ("w6", 6),
}

LOW_SUMMAND_WEIGHTS = {
    "low_t0_v": ("w0", 1),
    "low_t1_v": ("a0", 1),
    "low_t2_v": ("b0", 1),
    "low_t0_vx": ("w1", 1),
    "low_t1_vx": ("a1", 1),
    "low_t1_x2": ("a2", 2),
    "low_x2": ("w2", 2),
    "low_x3": ("w3", 3),
    "low_x4": ("w4", 4),
}


@dataclass(frozen=True)
class EnergyReport:
    t: float
    summands: dict
    E_total: float
    lowE_total: float
    M0: float
    within_apriori: bool
    boundary_pole: bool


def _weighted_square(profile: HeightProfile, out, weight: int) -> tuple[float, bool]:
    """Simpson value of int rho0^weight * field^2 with series endpoint limits."""
    integrand = profile.weight_values(weight) * out.values**2
    pole = False
    for side, idx in ((0, 0), (1, -1)):
        ws = LaurentSeries.from_derivatives(
            profile.endpoint_derivatives(float(side), _ATOM_ORDERS)
        )
        total = (ws**weight) * out.series[side] * out.series[side]
        integrand[idx] = total.finite_part()
        pole = pole or total.has_pole()
    return float(np.dot(profile.grid.simpson_weights, integrand)), pole


def _all_summands(traj, t: float) -> tuple[dict, bool]:
    state = _state_from_trajectory(traj, t)
    out = _evaluate(state)
    profile = traj.profile
    # pure spatial derivatives enter as outputs with exact endpoint series
    for k in range(_DEPTH):
        atoms0 = state.w_atoms[0][k:]
        atoms1 = state.w_atoms[1][k:]
        out[f"w{k}"] = _Output(
            state.w[k],
            (
                LaurentSeries.from_derivatives(atoms0),
                LaurentSeries.from_derivatives(atoms1),
            ),
            (False, False),
        )
    summands = {}
    any_pole = False
    cache = {}
    for label, (source, weight) in {**E_SUMMAND_WEIGHTS, **LOW_SUMMAND_WEIGHTS}.items():
        key = (source, weight)
        if key not in cache:
            cache[key] = _weighted_square(profile, out[source], weight)
        value, pole = cache[key]
        summands[label] = value
        any_pole = any_pole or pole
    return summands, any_pole


def _report(traj, t: float, m0) -> EnergyReport:
    summands, pole = _all_summands(traj, t)
    e_total = float(sum(summands[k] for k in E_SUMMAND_WEIGHTS))
    low_total = float(sum(summands[k] for k in LOW_SUMMAND_WEIGHTS))
    if m0 is None:
        if t == 0.0 or traj.index_of(t) == 0:
            m0 = e_total
        else:
            zero_summands, _ = _all_summands(traj, float(traj.times[0]))
            m0 = float(sum(zero_summands[k] for k in E_SUMMAND_WEIGHTS))
    within = bool(e_total <= 2.0 * m0 * (1.0 + 1e-12))
    return EnergyReport(t, summands, e_total, low_total, float(m0), within, pole)


def energy_high(traj, t: float, m0: float | None = None) -> EnergyReport:
    """Higher-order energy at a stored time; within_apriori tests E <= 2*M0.

    M0 defaults to the trajectory's own t=0 energy (minimal admissible choice).
    """
    return _report(traj, t, m0)


def energy_low(traj, t: float, m0: float | None = None) -> EnergyReport:
    """Lower-order energy (uniqueness-probe functional) at a stored time."""
    return _report(traj, t, m0)
