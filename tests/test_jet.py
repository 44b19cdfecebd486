import dataclasses
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from svfree import eulerian, jet
from svfree._series import LaurentSeries, MixedValuationError
from svfree.errors import ConfigurationError, FlowMapDegeneracyError, ValidationError
from svfree.galerkin import GalerkinBasis
from svfree.jet import (
    E_SUMMAND_WEIGHTS,
    LOW_SUMMAND_WEIGHTS,
    energy_high,
    energy_low,
    energy_reports,
    initial_jet,
    time_derivatives_along,
)
from svfree.picard import PicardSettings, solve_nonlinear
from svfree.profile import AnalyticField, build_grid, sample_height_profile, sample_velocity
from svfree.weighted_calculus import weighted_l2_norm


@pytest.fixture(scope="module")
def sine_jets(sine201, u0zero201):
    return initial_jet(sine201, u0zero201)


@pytest.fixture(scope="module")
def para_jets(para201, u0zero201):
    return initial_jet(para201, u0zero201)


@pytest.fixture(scope="module")
def sine_velocity_jets(sine201, grid201):
    u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 1}, grid201)
    return initial_jet(sine201, u0)


class TestInitialJetSine:
    """Fully compatible profile: every jet has a closed form.

    With u0 = 0 and rho0 = sin(pi x) (so rho0'' = -pi^2 rho0), repeated time
    differentiation of the momentum equation collapses to
        g1 = -2 pi cos(pi x),        g2 = 4 pi^3 cos(pi x),
        g3 = -8 pi^5 cos(pi x) + 6 pi^3 sin(2 pi x),
    derived by hand from g2 = (rho0 h1)_x / rho0 and
    g3 = [(rho0 h2)_x + 2 (rho0^2 h1)_x] / rho0.
    """

    @pytest.fixture()
    def jets(self, sine_jets):
        return sine_jets

    def test_g1(self, jets, grid201):
        x = grid201.nodes
        assert np.max(np.abs(jets.g1 + 2 * np.pi * np.cos(np.pi * x))) < 1e-12

    def test_g2(self, jets, grid201):
        x = grid201.nodes
        assert np.max(np.abs(jets.g2 - 4 * np.pi**3 * np.cos(np.pi * x))) < 1e-10

    def test_g3(self, jets, grid201):
        x = grid201.nodes
        exact = -8 * np.pi**5 * np.cos(np.pi * x) + 6 * np.pi**3 * np.sin(2 * np.pi * x)
        assert np.max(np.abs(jets.g3 - exact)) < 1e-7

    def test_h1_h2_are_gradients(self, jets, grid201):
        x = grid201.nodes
        assert np.max(np.abs(jets.h1 - 2 * np.pi**2 * np.sin(np.pi * x))) < 1e-11
        assert np.max(np.abs(jets.h2 + 4 * np.pi**4 * np.sin(np.pi * x))) < 1e-9

    def test_no_boundary_poles(self, jets):
        assert jets.boundary_poles == {}

    def test_h_fields_vanish_on_boundary(self, jets):
        for h in (jets.h0, jets.h1, jets.h2):
            assert abs(h[0]) < 1e-9
            assert abs(h[-1]) < 1e-9


class TestInitialJetParabolic:
    @pytest.fixture()
    def jets(self, para_jets):
        return para_jets

    def test_g1_closed_form(self, jets, grid201):
        x = grid201.nodes
        assert np.array_equal(jets.g1, -2.0 * (1.0 - 2.0 * x))

    def test_h0_zero(self, jets):
        assert np.all(jets.h0 == 0.0)

    def test_h1_constant_four(self, jets):
        assert np.max(np.abs(jets.h1 - 4.0)) < 1e-12

    def test_g2_interior_closed_form(self, jets, grid201):
        x = grid201.nodes[1:-1]
        exact = 4.0 * (1.0 - 2.0 * x) / (x * (1.0 - x))
        assert np.max(np.abs(jets.g2[1:-1] - exact)) < 1e-9

    def test_incompatibility_flagged(self, jets):
        # h1 != 0 on the boundary: order-2 jets carry genuine poles there
        assert "b0" in jets.boundary_poles
        assert "c0" in jets.boundary_poles
        assert np.isfinite(jets.g2[0])  # Hadamard finite part

    def test_incompatible_u0_rejected(self, grid201, para201):
        bad = AnalyticField("x*x", grid201, "custom")
        with pytest.raises(ValidationError):
            initial_jet(para201, bad)


class TestTimeDerivativesAlong:
    def test_matches_jet_at_t_zero(self, canonical_solution, para401, u0zero401):
        jets = initial_jet(para401, u0zero401)
        tj = time_derivatives_along(canonical_solution, 0.0)
        for a, b in (
            (tj.dt_v, jets.g1),
            (tj.dt2_v, jets.g2),
            (tj.dt3_v, jets.g3),
            (tj.dt_vx, jets.h1),
            (tj.dt2_vx, jets.h2),
        ):
            scale = max(1.0, np.max(np.abs(b[1:-1])))
            assert np.max(np.abs(a[1:-1] - b[1:-1])) < 1e-10 * scale

    def test_small_time_continuity(self, canonical_solution, grid401, para401):
        # dt_v(dt) = g1 + O(t) in the weighted norm; the pointwise defect is
        # boundary-localized spectral truncation, so weighted L2 is the
        # faithful metric (measured ~1e-3 at dt=1e-4, N=32)
        tj = time_derivatives_along(canonical_solution, canonical_solution.dt)
        g1 = -2.0 * (1.0 - 2.0 * grid401.nodes)
        defect = weighted_l2_norm(tj.dt_v - g1, 1, para401)
        assert defect < 5e-3

    def test_unstored_time_rejected(self, canonical_solution):
        with pytest.raises(ConfigurationError):
            time_derivatives_along(canonical_solution, canonical_solution.dt / 3.0)

    def test_backward_difference_consistency(self, canonical_solution, para401):
        # (v(dt) - v(0))/dt estimates dt_v at t=dt to O(dt)
        sol = canonical_solution
        fd = (sol.coeffs[1] - sol.coeffs[0]) / sol.dt
        fd_vals = sol.basis.evaluate(fd, sol.basis.grid.nodes, 0)
        tj = time_derivatives_along(sol, sol.dt)
        diff = weighted_l2_norm(fd_vals - tj.dt_v, 1, para401)
        assert diff < 100.0 * sol.dt


class TestEnergy:
    def test_initial_summand_closed_form(self, canonical_solution):
        # || sqrt(rho0) g1 ||^2 = int x(1-x) 4(1-2x)^2 dx = 2/15
        rep = energy_high(canonical_solution, 0.0)
        assert rep.summands["t1_v"] == pytest.approx(2.0 / 15.0, abs=1e-8)

    def test_totals_are_sums(self, canonical_solution):
        rep = energy_high(canonical_solution, 0.01)
        assert rep.E_total == sum(rep.summands[k] for k in E_SUMMAND_WEIGHTS)
        assert rep.lowE_total == sum(rep.summands[k] for k in LOW_SUMMAND_WEIGHTS)

    def test_m0_defaults_to_start_energy(self, canonical_solution):
        rep0 = energy_high(canonical_solution, 0.0)
        assert rep0.M0 == rep0.E_total
        assert rep0.within_apriori

    def test_low_energy_is_dominated(self, canonical_solution):
        # every low summand also appears in E, so low <= E + the shared term
        for t in (0.0, 0.02):
            rep = energy_low(canonical_solution, t)
            assert rep.lowE_total <= rep.E_total + rep.summands["low_t1_x2"] + 1e-12

    def test_shared_summands_same_quadratures(self, canonical_solution):
        rep = energy_high(canonical_solution, 0.01)
        assert rep.summands["low_t0_v"] == rep.summands["t0_v"]
        assert rep.summands["low_t1_vx"] == rep.summands["t1_vx"]
        assert rep.summands["low_x4"] == rep.summands["x4"]

    def test_sine_profile_energy_clean_at_start(self, sine201, u0zero201):
        sol = solve_nonlinear(
            sine201, u0zero201, PicardSettings(t_final=0.005, dt=1e-4, n_modes=16)
        )
        rep0 = energy_high(sol, 0.0)
        assert not rep0.boundary_pole  # jets are compatible through order 3
        assert np.isfinite(rep0.E_total)
        # the lower-order functional stops at second time derivatives, which
        # this data reconstructs faithfully; its ceiling holds along the run
        repT = energy_low(sol, 0.005, rep0.M0)
        assert repT.lowE_total <= 2.0 * rep0.lowE_total


def test_all_summands_nonnegative(canonical_solution):
    for t in (0.0, 0.025, 0.05):
        rep = energy_high(canonical_solution, t)
        assert all(v >= 0.0 for v in rep.summands.values())


def test_energy_unsupported_for_fd_trajectories(para201, u0zero201):
    from svfree.errors import UnsupportedOperationError
    from svfree.fd_oracle import fd_oracle_solve

    fd = fd_oracle_solve(para201, u0zero201, 0.005, 1e-3)
    with pytest.raises(UnsupportedOperationError):
        energy_high(fd, 0.005)


class TestInitialJetWithVelocity:
    """Nonzero u0 exercises the velocity-coupling terms of the recursion.

    On rho0 = sin(pi x) with u0 = cos(pi x), the gradient identity
    u0_x = -pi rho0 collapses the second jet to closed form:
        g1 = -2 (pi + 1) rho0',
        g2 = (pi + 1) pi [4 pi^2 cos(pi x) - 3 pi sin(2 pi x)],
    from g2 = [(rho0 h1)_x - 2 (rho0 u0_x^2)_x + 2 (rho0^2 u0_x)_x] / rho0.
    """

    @pytest.fixture()
    def velocity_jets(self, sine_velocity_jets):
        return sine_velocity_jets

    def test_g1_closed_form(self, velocity_jets, grid201):
        x = grid201.nodes
        exact = -2.0 * (np.pi + 1.0) * np.pi * np.cos(np.pi * x)
        assert np.max(np.abs(velocity_jets.g1 - exact)) < 1e-11

    def test_g2_closed_form(self, velocity_jets, grid201):
        x = grid201.nodes
        exact = (np.pi + 1.0) * np.pi * (
            4.0 * np.pi**2 * np.cos(np.pi * x) - 3.0 * np.pi * np.sin(2 * np.pi * x)
        )
        assert np.max(np.abs(velocity_jets.g2 - exact)) < 1e-8

    def test_compatible_through_order_two(self, velocity_jets):
        assert "b0" not in velocity_jets.boundary_poles
        for h in (velocity_jets.h0, velocity_jets.h1):
            assert abs(h[0]) < 1e-9
            assert abs(h[-1]) < 1e-9


class TestEnergyReports:
    def test_energy_reports_match_energy_high(self, canonical_solution):
        times = [0.0, 0.01, 0.025, 0.05]
        reports = energy_reports(canonical_solution, times)
        m0 = reports[0].M0
        for t, rep in zip(times, reports):
            ref = energy_high(canonical_solution, t, m0)
            assert rep.t == ref.t == t
            assert rep.M0 == ref.M0 == m0
            assert rep.within_apriori == ref.within_apriori
            assert rep.boundary_pole == ref.boundary_pole
            assert rep.summands.keys() == ref.summands.keys()
            for label, value in ref.summands.items():
                assert rep.summands[label] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_m0_is_the_start_energy_when_omitted(self, canonical_solution):
        later = energy_reports(canonical_solution, [0.02, 0.03])
        start = energy_high(canonical_solution, 0.0)
        assert [r.M0 for r in later] == [start.E_total] * 2

    def test_mixed_valuation_block_matches_one_row_evaluation(self, canonical_solution):
        # the flow Jacobian's left-endpoint series loses its constant term in
        # one row, so the rows of that denominator differ in valuation
        w_atoms, j_atoms = jet._endpoint_atoms(canonical_solution, [100, 200, 300])
        j_atoms[0][1, 1] = 0.0
        assert j_atoms[0][1, 2] != 0.0
        with pytest.raises(MixedValuationError):
            jet._endpoint_pass(canonical_solution.profile, w_atoms, j_atoms)
        # an admissible trajectory never gets there: every stored row's endpoint
        # j1 atom, the constant term of the one batched denominator, is exactly 1
        rows = list(range(len(canonical_solution.times)))
        for atoms in jet._endpoint_atoms(canonical_solution, rows)[1]:
            assert np.all(atoms[:, 1] == 1.0)


def test_energy_reports_free_the_endpoint_series(canonical_solution):
    # the endpoint series of all 501 stored times (about 1.5 MiB) are dropped
    # once their finite parts and pole flags are read, before the interior
    # chunks run: the monitor peaks about 4.1 MiB above its entry, 5.6 MiB if
    # the series stay alive
    sol = canonical_solution
    energy_reports(sol, [sol.times[1]])  # fill the profile's series caches
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        energy_reports(sol, list(sol.times))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 4.75 * 2**20


@settings(max_examples=40)
@given(rows=st.integers(1, 40), n_modes=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_nodal_stacks_match_per_row_products(grid201, rows, n_modes, seed):
    # the stacked product makes one (1, m) @ (m, n) call per row and order,
    # so it equals the per-row form bit for bit
    basis = GalerkinBasis(n_modes, grid201)
    coeffs, flow = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, rows + 2, n_modes))
    traj = SimpleNamespace(basis=basis, coeffs=coeffs, flow_coeffs=flow, profile=SimpleNamespace(grid=grid201))
    idx = list(range(rows + 1, 1, -1))
    w, j = jet._nodal_stacks(traj, idx)
    tables = [basis.table(k) for k in range(w.shape[1])]
    ref_w = np.array([[row @ tab for tab in tables] for row in coeffs[idx]])
    ref_j = np.array([[row @ tab for tab in tables] for row in flow[idx]])
    ref_j[:, 0] += grid201.nodes
    ref_j[:, 1] += 1.0
    for got, ref in ((w, ref_w), (j, ref_j)):
        assert got.shape == (rows, 7, 201)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@settings(max_examples=15)
@given(data=st.data())
def test_two_passes_match_one_row_evaluation(small_solution, canonical_solution, data):
    # energy_reports runs one endpoint pass over every requested stored time
    # and one interior pass per chunk; neither may change what a row reads
    sol = data.draw(st.sampled_from([small_solution, canonical_solution]), label="solution")
    n = sol.basis.grid.n_nodes
    chunk = data.draw(st.integers(1, 3), label="rows per chunk")
    counts = sorted({1, max(1, chunk - 1), chunk, chunk + 1})
    count = data.draw(st.sampled_from(counts), label="count")
    # unsorted, and with repeats
    picks = data.draw(st.lists(st.integers(0, len(sol.times) - 1), min_size=count, max_size=count))
    times = [float(sol.times[i]) for i in picks]
    rows = [sol.index_of(t) for t in times] + ([] if 0 in picks else [0])

    chunks = []
    one_row = jet._interior_pass

    def record(profile, w, j):
        out = one_row(profile, w, j)
        chunks.append(out)
        return out

    with mock.patch.object(jet, "_CHUNK_VALUES", chunk * n), \
            mock.patch.object(jet, "_interior_pass", record):
        reports = energy_reports(sol, times)
    assert [len(out["a0"]) for out in chunks[:-1]] == [chunk] * (len(chunks) - 1)
    for name in jet._OUTPUTS:
        values = np.concatenate([out[name] for out in chunks])
        assert len(values) == len(rows)
        for r, row in zip(rows, values):
            alone = one_row(sol.profile, *jet._nodal_stacks(sol, [r]))
            assert np.array_equal(row, alone[name][0]), name

    m0 = reports[0].M0
    for t, rep in zip(times, reports):
        ref = energy_high(sol, t, m0)
        assert rep.boundary_pole == ref.boundary_pole
        assert rep.within_apriori == ref.within_apriori
        for label, value in ref.summands.items():
            assert rep.summands[label] == pytest.approx(value, rel=1e-12, abs=0.0), label

    batched = eulerian.boundary_reports(sol, times)
    single = [eulerian.boundary_diagnostics(sol, t) for t in times]
    # repr tells -0.0 from 0.0
    assert repr(batched) == repr(single)


def test_high_mode_velocity_keeps_its_endpoint_taylor_data(sine201, grid201):
    # u0 = cos(3 pi x) on rho0 = sin(pi x): at x = 0, r1 w1 / r0 -> -9 pi^2,
    # w2 = -9 pi^2 and -2 r1 = -2 pi, so g1(0) = -18 pi^2 - 2 pi
    u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 3}, grid201)
    g1 = initial_jet(sine201, u0).g1
    assert g1[0] == pytest.approx(-18.0 * np.pi**2 - 2.0 * np.pi, rel=1e-10)


def test_many_mode_jacobian_series_have_valuation_zero(para401, u0zero401):
    # the endpoint Taylor coefficients of a 96-mode flow map grow like
    # (96 pi)^k / k!; every row of eta_x and of its powers still starts at order 0
    sol = solve_nonlinear(
        para401, u0zero401, PicardSettings(t_final=0.0125, dt=1e-4, n_modes=96)
    )
    for atoms in jet._endpoint_atoms(sol, list(range(len(sol.times))))[1]:
        eta_x = LaurentSeries.from_derivatives(atoms[:, 1:])
        for power in range(1, 8):
            assert np.all((eta_x**power)._valuations() == 0), power


def test_energy_reports_reject_a_degenerate_flow_map(small_solution):
    # mode 1 adds -sqrt(2) pi sin(pi x) to eta_x, which leaves (0.1, 10) inside
    flow = small_solution.flow_coeffs.copy()
    flow[:, 1] += 1.0
    bad = dataclasses.replace(small_solution, flow_coeffs=flow)
    with pytest.raises(FlowMapDegeneracyError):
        energy_reports(bad, [float(small_solution.times[-1])])


@settings(max_examples=25)
@given(data=st.data())
def test_compiled_outputs_agree_on_rows_and_constant_series(small_solution, data):
    # the three stages of _outputs serve the interior Taylor series and the
    # endpoint Laurent series: fed one interior node's derivative data as
    # Laurent series, every output's finite part must be that node's interior
    # value. The two differ by rounding, which the 1/rho0^k cancellation
    # amplifies near the vacuum; nodes are drawn from ten cells in on, and the
    # tolerance is relative to the row's size because outputs cross zero
    sol = small_solution
    n = sol.basis.grid.n_nodes
    row = data.draw(st.integers(0, len(sol.times) - 1), label="row")
    node = data.draw(st.integers(10, n - 11), label="node")
    w, j = jet._nodal_stacks(sol, [row])
    # interior values: column i is node i + 1
    out = jet._interior_pass(sol.profile, w, j)

    def family(derivs):
        return [LaurentSeries.from_derivatives(derivs[k:]) for k in range(jet._DEPTH)]

    profile = np.array([sol.profile.derivative_values(k)[node] for k in range(jet._DEPTH)])
    series = jet._outputs(family(profile), family(w[0, :, node]), family(j[0, :, node]))
    for name in jet._OUTPUTS:
        scale = np.max(np.abs(out[name][0, 9 : n - 11]))
        if scale == 0.0:  # a row of zeros: the bound would be 0
            continue
        assert not series[name].has_pole(), name
        assert abs(series[name].finite_part() - out[name][0, node - 1]) <= 1e-12 * scale, name


# -- the recursion outputs as closed forms, derived with sympy here --------------

_SYMBOL_DEPTH = 7
_R = sp.symbols(f"r0:{_SYMBOL_DEPTH}")
_W = sp.symbols(f"w0:{_SYMBOL_DEPTH}")
_J = sp.symbols(f"j0:{_SYMBOL_DEPTH}")
_A = sp.symbols(f"a0:{_SYMBOL_DEPTH}")
_B = sp.symbols(f"b0:{_SYMBOL_DEPTH}")
_FAMILIES = (_R, _W, _J, _A, _B)
# the arguments of every lambdified closed form, in this order
_ALL_SYMBOLS = tuple(s for fam in _FAMILIES for s in fam)


def _dt(expr):
    """The total t-derivative: w_k -> a_k -> b_k, and eta_t = v gives j_k -> w_k."""
    rate = {}
    for k in range(_SYMBOL_DEPTH):
        rate[_W[k]] = _A[k]
        rate[_A[k]] = _B[k]
        if k >= 1:
            rate[_J[k]] = _W[k]
    return sum((sp.diff(expr, s) * rate[s] for s in expr.free_symbols if s in rate), sp.Integer(0))


def _dx(expr):
    """The total x-derivative of a recursion expression: every symbol steps one order up."""
    if expr.free_symbols & {fam[_SYMBOL_DEPTH - 1] for fam in _FAMILIES}:
        raise RuntimeError("derivative depth exhausted; raise the symbol depth")
    shift = {fam[k]: fam[k + 1] for fam in _FAMILIES for k in range(_SYMBOL_DEPTH - 1)}
    return sum((sp.diff(expr, s) * shift[s] for s in expr.free_symbols if s in shift), sp.Integer(0))


def _expressions() -> dict:
    """a0 = v_t from the momentum equation, and b0 = v_tt, c0 = v_ttt by _dt."""
    r0, r1 = _R[0], _R[1]
    w1, w2 = _W[1], _W[2]
    j1, j2 = _J[1], _J[2]
    accel = ((r1 * w1 / r0 + w2) / j1**2 - 2 * w1 * j2 / j1**3
             - 2 * r1 / j1**2 + 2 * r0 * j2 / j1**3)
    exprs = {"a0": accel}
    exprs["b0"] = _dt(exprs["a0"])
    exprs["c0"] = _dt(exprs["b0"])
    return exprs


@pytest.fixture(scope="module")
def closed_forms():
    """All nine recursion outputs as sympy expressions, a1..a4, b1 and b2 by _dx."""
    exprs = _expressions()
    for k in range(1, 5):
        exprs[f"a{k}"] = _dx(exprs[f"a{k - 1}"])
    exprs["b1"] = _dx(exprs["b0"])
    exprs["b2"] = _dx(exprs["b1"])
    return {name: exprs[name] for name in jet._OUTPUTS}


@pytest.fixture(scope="module")
def closed_form_functions(closed_forms):
    # the plain-operator printer, so one function runs on numpy rows and on
    # Laurent series
    return {
        name: sp.lambdify(_ALL_SYMBOLS, expr, "math", cse=True)
        for name, expr in closed_forms.items()
    }


def _closed_form_outputs(functions, r, w, j) -> dict:
    """Every output from its closed form, each fed to the later ones in evaluation order."""
    args = [*r, *w, *j, *[None] * (2 * _SYMBOL_DEPTH)]
    positions = {s.name: i for i, s in enumerate(_ALL_SYMBOLS)}
    out = {}
    for name, fn in functions.items():
        out[name] = fn(*args)
        if name in positions:
            args[positions[name]] = out[name]
    return out


@settings(max_examples=12)
@given(data=st.data())
def test_series_derivatives_match_the_closed_forms(
    small_solution, canonical_solution, closed_form_functions, data
):
    # b0 and c0 are read off series in t, and a1..a4, b1 and b2 off the
    # series of a0 and b0; every output must be the value of its own closed
    # form, inside and at both ends
    sol = data.draw(st.sampled_from([small_solution, canonical_solution]), label="solution")
    profile = sol.profile
    n = sol.basis.grid.n_nodes
    row = data.draw(st.integers(0, len(sol.times) - 1), label="row")
    w, j = jet._nodal_stacks(sol, [row])
    inner = slice(1, -1)
    ref = _closed_form_outputs(
        closed_form_functions,
        [profile.derivative_values(k)[inner] for k in range(jet._DEPTH)],
        w[0, :, inner],
        j[0, :, inner],
    )
    got = jet._interior_pass(profile, w, j)
    # interior column i is node i + 1: nodes 10 .. n - 11, as above
    away = slice(9, n - 11)
    scale = {name: np.max(np.abs(ref[name][away])) for name in jet._OUTPUTS}
    for name in jet._OUTPUTS:
        gap = np.max(np.abs(got[name][0, away] - ref[name][away]))
        assert gap <= 1e-12 * scale[name], name

    w_atoms, j_atoms = jet._endpoint_atoms(sol, [row])
    series = jet._endpoint_pass(profile, w_atoms, j_atoms)
    for side in (0, 1):
        ends = _closed_form_outputs(
            closed_form_functions,
            jet._profile_series(profile, side),
            jet._atom_series(w_atoms[side]),
            jet._atom_series(j_atoms[side]),
        )
        for name in jet._OUTPUTS:
            s = series[name][side]
            assert bool(s.has_pole()[0]) == bool(ends[name].has_pole()[0]), (name, side)
            gap = abs(s.finite_part()[0] - ends[name].finite_part()[0])
            assert gap <= 1e-12 * scale[name], (name, side)


def test_a3_a4_next_to_the_vacuum_match_a_60_digit_evaluation(canonical_solution, closed_forms):
    # at the first interior nodes a3 and a4 cancel 1/rho0^k factors; read off
    # the a0 series they keep nine digits of the exact value of their closed
    # forms on the same inputs
    sol = canonical_solution
    profile = sol.profile
    row = len(sol.times) - 1
    w, j = jet._nodal_stacks(sol, [row])
    got = jet._interior_pass(profile, w, j)
    exact = {
        name: sp.lambdify(_ALL_SYMBOLS, closed_forms[name], "mpmath")
        for name in ("a3", "a4")
    }
    with mpmath.workdps(60):
        for node in (1, 2, 3):
            inputs = [
                *(profile.derivative_values(k)[node] for k in range(jet._DEPTH)),
                *w[0, :, node],
                *j[0, :, node],
            ]
            args = [mpmath.mpf(float(v)) for v in inputs] + [None] * (2 * _SYMBOL_DEPTH)
            for name, fn in exact.items():
                ref = fn(*args)
                assert abs((got[name][0, node - 1] - ref) / ref) <= 1e-9, (name, node)
