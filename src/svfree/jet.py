"""Initial time-derivative jets and the two monitored energy functionals.

The momentum equation solved pointwise for the acceleration,

    v_t = (rho0_x/rho0) v_x / eta_x^2 + v_xx / eta_x^2 - 2 v_x eta_xx / eta_x^3
          - 2 rho0_x / eta_x^2 + 2 rho0 eta_xx / eta_x^3,

is differentiated in time (eta_t = v closes the recursion), which expresses
d_t^k v and its spatial derivatives as rational functions of the profile,
the velocity and the flow map. ``svfree._jet_derive`` derives them with sympy
and prints them once into the committed module ``_jet_generated.py``, so a
run neither derives nor compiles anything. The same function runs vectorized
on the interior nodes and in truncated Laurent arithmetic at the two vacuum
endpoints, where the 1/rho0 factors cancel exactly for compatible data.
When the data is incompatible (nonzero endpoint values of d_t^k v_x), a
genuine pole survives; the endpoint value is then the Hadamard finite part
and the report is flagged.

The higher-order energy functional sums fifteen weighted squared norms
(time derivatives through order three, mixed and pure spatial derivatives
through order six, with distance-like weights rho0^k); the lower-order
functional used by the uniqueness probe sums nine of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._jet_generated import ARGUMENTS, NO_PRESSURE, PRESSURE
from ._jet_generated import DEPTH as _DEPTH
from ._series import N_TERMS, LaurentSeries
from .errors import UnsupportedOperationError, ValidationError
from .galerkin import check_jacobian
from .profile import AnalyticField, HeightProfile

__all__ = [
    "InitialJet",
    "TimeJet",
    "EnergyReport",
    "initial_jet",
    "time_derivatives_along",
    "energy_reports",
    "energy_high",
    "energy_low",
    "E_SUMMAND_WEIGHTS",
    "LOW_SUMMAND_WEIGHTS",
]

log = logging.getLogger(__name__)

_ATOM_ORDERS = 6 + N_TERMS

# the compiled outputs of each pressure flag, in evaluation order
_COMPILED = {True: PRESSURE, False: NO_PRESSURE}
_OUTPUTS = tuple(PRESSURE)
# the argument position of each output that later outputs consume
_FED_BACK = {name: i for i, name in enumerate(ARGUMENTS) if name in _OUTPUTS}


@dataclass
class _State:
    """Everything the recursion needs at a block of instants, one row each."""

    profile: HeightProfile
    w: np.ndarray  # (rows, depth, n) spatial derivatives of v
    j: np.ndarray  # (rows, depth, n) spatial derivatives of eta (index 0 = eta)
    w_atoms: tuple[np.ndarray, np.ndarray]  # (rows, _ATOM_ORDERS) per endpoint
    j_atoms: tuple[np.ndarray, np.ndarray]
    include_pressure: bool = True

    @property
    def rows(self) -> int:
        return self.w.shape[0]

    @cached_property
    def w_series(self) -> tuple[list[LaurentSeries], list[LaurentSeries]]:
        """Endpoint series of the first _DEPTH derivatives of v, per side."""
        return tuple(_atom_series(atoms) for atoms in self.w_atoms)


@dataclass(frozen=True)
class _Output:
    values: np.ndarray  # (rows, n)
    series: tuple[LaurentSeries, LaurentSeries]  # batched endpoint series
    poles: tuple[np.ndarray, np.ndarray]  # (rows,) pole flags per endpoint

    def row_poles(self) -> tuple[bool, bool]:
        """The pole flags of a one-row block."""
        return tuple(bool(np.any(p)) for p in self.poles)


@lru_cache(maxsize=8)
def _profile_series(profile: HeightProfile, side: int) -> tuple[LaurentSeries, ...]:
    """Endpoint series of rho0 and its first _DEPTH - 1 derivatives."""
    atoms = profile.endpoint_derivatives(float(side), _ATOM_ORDERS)
    return tuple(LaurentSeries.from_derivatives(atoms[k:]) for k in range(_DEPTH))


@lru_cache(maxsize=64)
def _weight_series(profile: HeightProfile, side: int, weight: int) -> LaurentSeries:
    """Endpoint series of the quadrature weight rho0**weight."""
    return _profile_series(profile, side)[0] ** weight


def _atom_series(atoms: np.ndarray) -> list[LaurentSeries]:
    """Series of the first _DEPTH derivatives from (rows, _ATOM_ORDERS) endpoint atoms."""
    return [LaurentSeries.from_derivatives(atoms[:, k:]) for k in range(_DEPTH)]


def _evaluate(state: _State) -> dict[str, _Output]:
    """Every recursion output on a block of rows.

    Each compiled output runs once per stored time on the interior nodes,
    which keeps only one row's cse temporaries alive, and once per side on
    the block's batched endpoint series. Raises MixedValuationError when the
    rows of a denominator differ in valuation. The only inverted series are
    r0, one unbatched row, and j1, whose constant term is exactly 1 in every
    row (odd mode derivatives vanish at both ends), so a block of an
    admissible trajectory never raises it.
    """
    n = state.profile.grid.n_nodes
    check_jacobian(state.j[:, 1])
    fns = _COMPILED[state.include_pressure]

    interior = slice(1, -1)
    rho = [state.profile.derivative_values(k)[interior] for k in range(_DEPTH)]
    # one argument list per call: the block's interior rows, then both sides;
    # the a- and b-slots are filled as those outputs are computed
    calls = [
        [*rho, *state.w[i, :, interior], *state.j[i, :, interior], *[None] * (2 * _DEPTH)]
        for i in range(state.rows)
    ] + [
        [
            *_profile_series(state.profile, side),
            *state.w_series[side],
            *_atom_series(state.j_atoms[side]),
            *[None] * (2 * _DEPTH),
        ]
        for side in (0, 1)
    ]

    out: dict[str, _Output] = {}
    for name in _OUTPUTS:
        results = [fns[name](*args) for args in calls]
        *rows, left, right = results
        values = np.empty((state.rows, n))
        values[:, interior] = rows
        values[:, 0] = left.finite_part()
        values[:, -1] = right.finite_part()
        poles = (np.asarray(left.has_pole()), np.asarray(right.has_pole()))
        out[name] = _Output(values, (left, right), poles)
        if name in _FED_BACK:
            for args, result in zip(calls, results):
                args[_FED_BACK[name]] = result
    return out


def _state_from_initial(profile: HeightProfile, u0: AnalyticField, include_pressure=True) -> _State:
    n = profile.grid.n_nodes
    w = np.stack([u0.derivative_values(k) for k in range(_DEPTH)])
    j = np.zeros((_DEPTH, n))
    j[0] = profile.grid.nodes
    j[1] = 1.0
    w_atoms = tuple(u0.endpoint_derivatives(float(s), _ATOM_ORDERS)[None] for s in (0, 1))
    j_atoms = []
    for s in (0, 1):
        atoms = np.zeros((1, _ATOM_ORDERS))
        atoms[0, 0] = float(s)
        atoms[0, 1] = 1.0
        j_atoms.append(atoms)
    return _State(profile, w[None], j[None], w_atoms, tuple(j_atoms), include_pressure)


def _require_spectral(traj) -> None:
    if not hasattr(traj, "flow_coeffs"):
        raise UnsupportedOperationError(
            "time-derivative reconstruction and energy monitoring need a "
            "spectral trajectory with exact spatial derivatives; the "
            "finite-difference oracle stores nodal data only"
        )


def _state_from_trajectory(traj, idx) -> _State:
    """The block of the stored steps with indices idx."""
    basis = traj.basis
    grid = traj.profile.grid
    lam = traj.coeffs[idx]
    mu = traj.flow_coeffs[idx]
    tables = [basis.table(k) for k in range(_DEPTH)]
    # one row per product: a stacked product rounds differently, and the
    # summands with a boundary pole amplify that to about 1e-10 relative
    w = np.array([[row @ tab for tab in tables] for row in lam])
    j = np.array([[row @ tab for tab in tables] for row in mu])
    j[:, 0] += grid.nodes
    j[:, 1] += 1.0
    w_atoms = tuple(basis.endpoint_derivatives(lam, float(s), _ATOM_ORDERS) for s in (0, 1))
    j_atoms = []
    for s in (0, 1):
        atoms = basis.endpoint_derivatives(mu, float(s), _ATOM_ORDERS)
        atoms[:, 0] += float(s)
        atoms[:, 1] += 1.0
        j_atoms.append(atoms)
    include_pressure = not traj.zero_forcing
    return _State(traj.profile, w, j, w_atoms, tuple(j_atoms), include_pressure)


@dataclass(frozen=True)
class InitialJet:
    """Compatibility jets: g_k = d_t^k v|_{t=0}, h_k = d_t^k v_x|_{t=0}."""

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    boundary_poles: dict


@dataclass(frozen=True)
class TimeJet:
    """Pointwise time derivatives of the velocity along a trajectory."""

    t: float
    dt_v: np.ndarray
    dt2_v: np.ndarray
    dt3_v: np.ndarray
    dt_vx: np.ndarray
    dt2_vx: np.ndarray
    dt_vxx: np.ndarray
    dt_vx3: np.ndarray
    dt_vx4: np.ndarray
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
    poles = {name: o.row_poles() for name, o in out.items() if any(o.row_poles())}
    if poles:
        log.warning(
            "initial jets carry vacuum-boundary poles (incompatible data at "
            "order >= 2); endpoint values are Hadamard finite parts: %s",
            sorted(poles),
        )
    return InitialJet(
        g0=u0.values.copy(),
        g1=out["a0"].values[0],
        g2=out["b0"].values[0],
        g3=out["c0"].values[0],
        h0=d1.copy(),
        h1=out["a1"].values[0],
        h2=out["b1"].values[0],
        boundary_poles=poles,
    )


def time_derivatives_along(traj, t: float) -> TimeJet:
    """Time derivatives at a stored time, reconstructed from the equation.

    Spatial derivatives of the spectral velocity and flow map are exact, so
    this shares every formula (and rounding path) with initial_jet.
    """
    _require_spectral(traj)
    out = _evaluate(_state_from_trajectory(traj, [traj.index_of(t)]))
    poles = {name: o.row_poles() for name, o in out.items() if any(o.row_poles())}
    return TimeJet(
        t=t,
        dt_v=out["a0"].values[0],
        dt2_v=out["b0"].values[0],
        dt3_v=out["c0"].values[0],
        dt_vx=out["a1"].values[0],
        dt2_vx=out["b1"].values[0],
        dt_vxx=out["a2"].values[0],
        dt_vx3=out["a3"].values[0],
        dt_vx4=out["a4"].values[0],
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


# the distinct (source, weight) quadratures behind the summands of both
# functionals, and the one each summand label reads
_SQUARES = tuple(dict.fromkeys([*E_SUMMAND_WEIGHTS.values(), *LOW_SUMMAND_WEIGHTS.values()]))
_SUMMAND_COLUMNS = {
    label: _SQUARES.index(key)
    for label, key in {**E_SUMMAND_WEIGHTS, **LOW_SUMMAND_WEIGHTS}.items()
}

# stored times whose endpoint series one pass evaluates together
_BLOCK_ROWS = 64


def _weighted_square(profile: HeightProfile, values, series, weight: int):
    """Per-row Simpson values of int rho0^weight * field^2 with series endpoint limits.

    ``values`` is the (rows, n) nodal field and ``series`` its pair of batched
    endpoint series; returns the (rows,) values and (rows,) pole flags.
    """
    integrand = profile.weight_values(weight) * values**2
    pole = np.zeros(len(integrand), dtype=bool)
    for side, idx in ((0, 0), (1, -1)):
        total = _weight_series(profile, side, weight) * series[side] * series[side]
        integrand[:, idx] = total.finite_part()
        pole |= total.has_pole()
    # one dot per row, which rounds as the quadrature of a single stored time does
    return np.array([np.dot(profile.grid.simpson_weights, row) for row in integrand]), pole


def _squares(state: _State) -> tuple[np.ndarray, np.ndarray]:
    """(rows, len(_SQUARES)) weighted squares of one block and its (rows,) pole flags."""
    fields = {name: (o.values, o.series) for name, o in _evaluate(state).items()}
    # pure spatial derivatives enter with exact endpoint series
    left, right = state.w_series
    for k in range(_DEPTH):
        fields[f"w{k}"] = (state.w[:, k], (left[k], right[k]))
    columns, pole = [], np.zeros(state.rows, dtype=bool)
    for source, weight in _SQUARES:
        value, p = _weighted_square(state.profile, *fields[source], weight)
        columns.append(value)
        pole |= p
    return np.stack(columns, axis=1), pole


def energy_reports(traj, times, m0: float | None = None) -> list[EnergyReport]:
    """Energy reports at stored times, evaluated _BLOCK_ROWS stored times per pass.

    within_apriori tests E <= 2*M0; M0 defaults to the trajectory's own t=0
    energy (the minimal admissible choice), evaluated once for all times.
    """
    _require_spectral(traj)
    rows = [traj.index_of(t) for t in times]
    if m0 is None and 0 not in rows:
        rows.append(0)
    blocks = [
        _squares(_state_from_trajectory(traj, rows[start : start + _BLOCK_ROWS]))
        for start in range(0, len(rows), _BLOCK_ROWS)
    ]
    if not blocks:
        return []
    squares = np.concatenate([b[0] for b in blocks])
    poles = np.concatenate([b[1] for b in blocks])

    def summands(r: int) -> dict:
        return {label: float(squares[r, c]) for label, c in _SUMMAND_COLUMNS.items()}

    def total(values: dict, labels) -> float:
        return float(sum(values[k] for k in labels))

    if m0 is None:
        m0 = total(summands(rows.index(0)), E_SUMMAND_WEIGHTS)
    reports = []
    for r, t in enumerate(times):
        values = summands(r)
        e_total = total(values, E_SUMMAND_WEIGHTS)
        within = bool(e_total <= 2.0 * m0 * (1.0 + 1e-12))
        low_total = total(values, LOW_SUMMAND_WEIGHTS)
        reports.append(EnergyReport(t, values, e_total, low_total, float(m0), within, bool(poles[r])))
    return reports


def energy_high(traj, t: float, m0: float | None = None) -> EnergyReport:
    """Higher-order energy at a stored time; within_apriori tests E <= 2*M0.

    M0 defaults to the trajectory's own t=0 energy (minimal admissible choice).
    """
    return energy_reports(traj, [t], m0)[0]


def energy_low(traj, t: float, m0: float | None = None) -> EnergyReport:
    """Lower-order energy (uniqueness-probe functional) at a stored time."""
    return energy_reports(traj, [t], m0)[0]
