"""Initial time-derivative jets and the two monitored energy functionals.

The momentum equation solved pointwise for the acceleration,

    v_t = ((rho0_x/rho0) v_x + v_xx - 2 rho0_x) / eta_x^2 + 2 eta_xx (rho0 - v_x) / eta_x^3,

is written once, as ``_accel``, and evaluated on truncated series (Taylor
propagation, Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).
On series in x it gives a0 = v_t, and the spatial derivatives a1..a4 are
read off that series instead of being evaluated. On series in t whose
coefficients are the x-series of v and eta at one instant (eta_t = v closes
the recursion) it gives b0 = v_tt and c0 = v_ttt as its t^1 and twice its
t^2 coefficient, and b1, b2 are read off the series of b0. The x-series are
terms-first Taylor series about every interior node, and Laurent series at
the two vacuum endpoints, where the 1/rho0 factors cancel exactly for
compatible data. When the data is incompatible (nonzero endpoint values of
d_t^k v_x), a genuine pole survives; the endpoint value is then the Hadamard
finite part and the report is flagged.

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

from ._series import LaurentSeries, TaylorSeries, TimeSeries
from .errors import UnsupportedOperationError
from .galerkin import check_jacobian
from .profile import _DEPTH, _ENDPOINT_ORDERS, AnalyticField, HeightProfile, _check_neumann

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

# the x-derivatives read off the series of a0 (a0..a4) and of b0 (b0..b2):
# b0 consumes a1 and a2, and c0 consumes a1, a2, b1 and b2
_A_ORDERS, _B_ORDERS = 5, 3
# the names of the recursion outputs, in evaluation order
_OUTPUTS = (*(f"a{k}" for k in range(_A_ORDERS)), *(f"b{k}" for k in range(_B_ORDERS)), "c0")
# the x-series length of each stage of the interior pass (a0, b0, c0): as
# many terms as the derivatives read off its output need
_INTERIOR_TERMS = (_A_ORDERS, _B_ORDERS, 1)


@lru_cache(maxsize=8)
def _profile_series(profile: HeightProfile, side: int) -> tuple[LaurentSeries, ...]:
    """Endpoint series of rho0 and its first _DEPTH - 1 derivatives."""
    atoms = profile.endpoint_derivatives(float(side), _ENDPOINT_ORDERS)
    return tuple(LaurentSeries.from_derivatives(atoms[k:]) for k in range(_DEPTH))


@lru_cache(maxsize=64)
def _weight_series(profile: HeightProfile, side: int, weight: int) -> LaurentSeries:
    """Endpoint series of the quadrature weight rho0**weight."""
    return _profile_series(profile, side)[0] ** weight


def _atom_series(atoms: np.ndarray) -> list[LaurentSeries]:
    """Series of the first _DEPTH derivatives from (rows, _ENDPOINT_ORDERS) endpoint atoms."""
    return [LaurentSeries.from_derivatives(atoms[:, k:]) for k in range(_DEPTH)]


def _accel(r0, r1, w1, w2, j1, j2):
    """v_t from the momentum equation, on floats or on any series of ``svfree._series``.

    The r, w and j arguments are rho0, v and eta; the digit is the order of
    the x-derivative. r0 and r1 stay series in x, so only j1 is inverted as
    a series in t.
    """
    inv = 1.0 / j1
    return (r1 / r0 * w1 + w2 - 2.0 * r1 + 2.0 * j2 * (r0 - w1) * inv) * (inv * inv)


def _outputs(r, w, j, terms=None) -> dict:
    """Every recursion output from the x-series of rho0, v and eta and their x-derivatives.

    Three stages run ``_accel``. On the x-series it gives a0, and a1..a4
    are derivatives of that series. On the t-series [w_k, a_k] and
    [j_k, w_k] (eta_t = v) its t^1 coefficient is b0, and b1, b2 are
    derivatives again. On [w_k, a_k, b_k/2] and [j_k, w_k, a_k/2] twice its
    t^2 coefficient is c0. ``terms`` gives each stage's Taylor input
    length; None keeps Laurent series whole, since the endpoint squares need
    their finite parts.
    """

    def cut(stage, *series):
        return series if terms is None else [s.head(terms[stage]) for s in series]

    r0, r1, w1, w2, j1, j2 = cut(0, r[0], r[1], w[1], w[2], j[1], j[2])
    # release the families, which hold orders no stage reads, and let each
    # cut below release the terms only the stage before needed: the interior
    # pass passes temporaries, and its peak falls from about 3.9 to 3.1 MB
    del r, w, j
    a = _accel(r0, r1, w1, w2, j1, j2)
    a = [a.derivative(k) for k in range(_A_ORDERS)]

    r0, r1, w1, w2, j1, j2, a1, a2 = cut(1, r0, r1, w1, w2, j1, j2, a[1], a[2])
    t = TimeSeries
    b = _accel(r0, r1, t([w1, a1]), t([w2, a2]), t([j1, w1]), t([j2, w2])).terms[1]
    b = [b.derivative(k) for k in range(_B_ORDERS)]

    r0, r1, w1, w2, j1, j2, a1, a2, b1, b2 = cut(2, r0, r1, w1, w2, j1, j2, a1, a2, b[1], b[2])
    c = _accel(r0, r1, t([w1, a1, b1 / 2]), t([w2, a2, b2 / 2]),
               t([j1, w1, a1 / 2]), t([j2, w2, a2 / 2]))
    return {
        **{f"a{k}": s for k, s in enumerate(a)},
        **{f"b{k}": s for k, s in enumerate(b)},
        "c0": 2.0 * c.terms[2],
    }


def _endpoint_pass(profile: HeightProfile, w_atoms, j_atoms) -> dict:
    """Endpoint series of w0..w6 (the spatial derivatives of v) and of every recursion output.

    ``w_atoms`` and ``j_atoms`` hold (rows, _ENDPOINT_ORDERS) Taylor data of v
    and eta per side, one row per stored time; each stage of ``_outputs``
    runs once per side on the row-batched series of every row. Returns
    name -> (left, right). Raises MixedValuationError when the rows of a
    denominator differ in valuation.
    The only inverted series are r0, one unbatched row, and j1, whose
    constant term is exactly 1 in every row (odd mode derivatives vanish at
    both ends), so the rows of an admissible trajectory never raise it.
    """
    sides = []
    for side in (0, 1):
        w = _atom_series(w_atoms[side])
        j = _atom_series(j_atoms[side])
        out = _outputs(_profile_series(profile, side), w, j)
        sides.append({**{f"w{k}": w[k] for k in range(_DEPTH)}, **out})
    left, right = sides
    return {name: (left[name], right[name]) for name in left}


def _taylor_family(derivs) -> list:
    """Series about every node of the derivatives of orders 0..2, which the recursion reads.

    ``derivs`` holds the nodal derivatives of orders 0.._DEPTH - 1, which fill
    the _A_ORDERS terms of each series.
    """
    orders = range(_DEPTH - _A_ORDERS + 1)
    return [TaylorSeries.from_derivatives(derivs[k : k + _A_ORDERS]) for k in orders]


@lru_cache(maxsize=8)
def _profile_taylor(profile: HeightProfile) -> list[TaylorSeries]:
    """Interior Taylor series of rho0 and its derivatives; every chunk shares them and 1/rho0."""
    return _taylor_family([profile.derivative_values(k)[1:-1] for k in range(_DEPTH)])


def _interior_pass(profile: HeightProfile, w, j) -> dict[str, np.ndarray]:
    """(rows, n - 2) values of every recursion output on the interior nodes.

    ``w`` and ``j`` are (rows, _DEPTH, n) nodal stacks of v and eta. Each
    stage of ``_outputs`` runs once on the Taylor series about every node of
    all rows, elementwise, so a row's values do not depend on its batch; callers
    pass a few stored times at once (_CHUNK_VALUES).
    """
    check_jacobian(j[:, 1])
    inner = slice(1, -1)
    out = _outputs(
        _profile_taylor(profile),
        _taylor_family(w[:, :, inner].swapaxes(0, 1)),
        _taylor_family(j[:, :, inner].swapaxes(0, 1)),
        _INTERIOR_TERMS,
    )
    return {name: s.terms[0] for name, s in out.items()}


def _jets(profile: HeightProfile, w, j, w_atoms, j_atoms):
    """One instant's recursion outputs on every node, and the outputs with an endpoint pole.

    The one-row case of both passes: endpoint values are the finite parts of
    the output series, and poles maps each output whose series keeps a pole
    at either end to its (left, right) flags.
    """
    series = _endpoint_pass(profile, w_atoms, j_atoms)
    interior = _interior_pass(profile, w, j)
    values, poles = {}, {}
    for name in _OUTPUTS:
        left, right = series[name]
        values[name] = np.concatenate([left.finite_part(), interior[name][0], right.finite_part()])
        flags = (bool(np.any(left.has_pole())), bool(np.any(right.has_pole())))
        if any(flags):
            poles[name] = flags
    return values, poles


def _require_spectral(traj) -> None:
    if not hasattr(traj, "flow_coeffs"):
        raise UnsupportedOperationError(
            "time-derivative reconstruction and energy monitoring need a "
            "spectral trajectory with exact spatial derivatives; the "
            "finite-difference oracle stores nodal data only"
        )


def _endpoint_atoms(traj, idx) -> tuple[tuple, tuple]:
    """(rows, _ENDPOINT_ORDERS) Taylor data of v and of eta at both ends of the stored steps idx.

    The endpoint series divide by eta_x, so its end values are checked first.
    """
    basis = traj.basis
    w_atoms, j_atoms = [], []
    for s in (0.0, 1.0):
        w_atoms.append(basis.endpoint_derivatives(traj.coeffs[idx], s, _ENDPOINT_ORDERS))
        atoms = basis.endpoint_derivatives(traj.flow_coeffs[idx], s, _ENDPOINT_ORDERS)
        atoms[:, :2] += s, 1.0
        check_jacobian(atoms[:, 1])
        j_atoms.append(atoms)
    return tuple(w_atoms), tuple(j_atoms)


def _nodal_stacks(traj, idx) -> tuple[np.ndarray, np.ndarray]:
    """(rows, _DEPTH, n) spatial derivatives of v and of eta at the stored steps idx."""
    tables = [traj.basis.table(k) for k in range(_DEPTH)]
    # one row per product: a stacked product rounds differently, and the
    # summands with a boundary pole amplify that to about 1e-10 relative
    w = np.array([[row @ tab for tab in tables] for row in traj.coeffs[idx]])
    j = np.array([[row @ tab for tab in tables] for row in traj.flow_coeffs[idx]])
    j[:, 0] += traj.profile.grid.nodes
    j[:, 1] += 1.0
    return w, j


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
    d1 = _check_neumann(u0)
    w = np.stack([u0.derivative_values(k) for k in range(_DEPTH)])[None]
    w_atoms = tuple(u0.endpoint_derivatives(s, _ENDPOINT_ORDERS)[None] for s in (0.0, 1.0))
    # the identity flow map: eta = x, eta_x = 1
    j = np.zeros((1, _DEPTH, profile.grid.n_nodes))
    j[0, 0], j[0, 1] = profile.grid.nodes, 1.0
    j_atoms = tuple(np.pad([[s, 1.0]], ((0, 0), (0, _ENDPOINT_ORDERS - 2))) for s in (0.0, 1.0))
    out, poles = _jets(profile, w, j, w_atoms, j_atoms)
    if poles:
        log.warning(
            "initial jets carry vacuum-boundary poles (incompatible data at "
            "order >= 2); endpoint values are Hadamard finite parts: %s",
            sorted(poles),
        )
    return InitialJet(
        g0=u0.values.copy(),
        g1=out["a0"],
        g2=out["b0"],
        g3=out["c0"],
        h0=d1.copy(),
        h1=out["a1"],
        h2=out["b1"],
        boundary_poles=poles,
    )


def time_derivatives_along(traj, t: float) -> TimeJet:
    """Time derivatives at a stored time, reconstructed from the equation.

    Spatial derivatives of the spectral velocity and flow map are exact, so
    this shares every formula (and rounding path) with initial_jet.
    """
    _require_spectral(traj)
    idx = [traj.index_of(t)]
    stacks, atoms = _nodal_stacks(traj, idx), _endpoint_atoms(traj, idx)
    out, poles = _jets(traj.profile, *stacks, *atoms)
    return TimeJet(
        t=t,
        dt_v=out["a0"],
        dt2_v=out["b0"],
        dt3_v=out["c0"],
        dt_vx=out["a1"],
        dt2_vx=out["b1"],
        dt_vxx=out["a2"],
        dt_vx3=out["a3"],
        dt_vx4=out["a4"],
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

# nodal values per interior pass: 16 stored times at 401 nodes, 32 at 201.
# Such a pass peaks at about 3.2 MB (tracemalloc, canonical and sine
# configs), about 500 bytes per nodal value, and that chunk sets the peak RSS
# of the sine simulate run; at 3,500 values a canonical simulate ran about
# 0.1 s slower, and doubling the chunk saved little more time
_CHUNK_VALUES = 6500


def _squares(traj, rows) -> tuple[np.ndarray, np.ndarray]:
    """(len(rows), len(_SQUARES)) weighted squares at the stored steps rows, and (rows,) pole flags.

    Each square is the Simpson value of int rho0^weight * field^2. Its two
    endpoint values are the finite parts of rho0^weight * s * s on the
    endpoint series s of every row at once; its interior nodes take one
    interior pass per chunk of _CHUNK_VALUES nodal values.
    """
    profile = traj.profile
    grid = profile.grid
    series = _endpoint_pass(profile, *_endpoint_atoms(traj, rows))
    ends = np.empty((len(_SQUARES), 2, len(rows)))
    pole = np.zeros(len(rows), dtype=bool)
    for c, (source, weight) in enumerate(_SQUARES):
        for side in (0, 1):
            s = series[source][side]
            total = _weight_series(profile, side, weight) * s * s
            ends[c, side] = total.finite_part()
            pole |= total.has_pole()

    squares = np.empty((len(rows), len(_SQUARES)))
    step = max(1, _CHUNK_VALUES // grid.n_nodes)
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        w, j = _nodal_stacks(traj, rows[chunk])
        fields = _interior_pass(profile, w, j)
        fields.update((f"w{k}", w[:, k, 1:-1]) for k in range(_DEPTH))
        integrand = np.empty((len(w), grid.n_nodes))
        for c, (source, weight) in enumerate(_SQUARES):
            integrand[:, 1:-1] = profile.weight_values(weight)[1:-1] * fields[source] ** 2
            integrand[:, [0, -1]] = ends[c, :, chunk].T
            # one dot per row, which rounds as the quadrature of a single stored time does
            squares[chunk, c] = [np.dot(grid.simpson_weights, row) for row in integrand]
        del w, j, fields  # before the next chunk allocates its own
    return squares, pole


def energy_reports(traj, times, m0: float | None = None) -> list[EnergyReport]:
    """Energy reports at stored times: one endpoint pass over all, interior passes by chunk.

    within_apriori tests E <= 2*M0; M0 defaults to the trajectory's own t=0
    energy (the minimal admissible choice), evaluated once for all times.
    """
    _require_spectral(traj)
    rows = [traj.index_of(t) for t in times]
    if m0 is None and 0 not in rows:
        rows.append(0)
    if not rows:
        return []
    squares, poles = _squares(traj, rows)

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
