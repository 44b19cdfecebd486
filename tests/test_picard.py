import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import trapezoid

from svfree.errors import ConfigurationError, FlowMapDegeneracyError, NonConvergenceError, SvfreeError
from svfree.fd_oracle import fd_oracle_solve
from svfree.galerkin import (
    assemble_forcing,
    assemble_mass,
    assemble_stiffness,
    solve_linearized,
)
from svfree.picard import PicardSettings, contraction_metrics, solve_horizons, solve_nonlinear
from svfree.profile import build_grid, quadrature, sample_height_profile, sample_velocity

S11 = np.pi**2 / 6.0 + 0.5
M11 = 1.0 / 6.0 - 1.0 / (2.0 * np.pi**2)


def guess_flow(u0, times, grid) -> tuple[np.ndarray, np.ndarray]:
    """The u0 guess flow eta(x, t) = x + t*u0(x) and its Jacobian, exactly, at every stored time."""
    times = np.asarray(times, dtype=float)
    eta = grid.nodes[None, :] + times[:, None] * u0.values[None, :]
    eta_x = 1.0 + times[:, None] * u0.derivative_values(1)[None, :]
    return eta, eta_x


class TestInitialFlowGuess:
    def test_zero_velocity_identity_map(self, grid201, u0zero201):
        times = np.linspace(0, 0.01, 11)
        eta, eta_x = guess_flow(u0zero201, times, grid201)
        assert np.array_equal(eta[0], grid201.nodes)
        assert np.array_equal(eta[-1], grid201.nodes)
        assert np.all(eta_x == 1.0)

    def test_unit_velocity_translates(self, grid201):
        u0 = sample_velocity("custom", {"expr": "1"}, grid201)
        times = np.linspace(0, 0.5, 6)
        eta, eta_x = guess_flow(u0, times, grid201)
        assert np.allclose(eta[-1], grid201.nodes + 0.5, atol=1e-15)
        assert np.all(eta_x == 1.0)

    def test_cosine_jacobian_formula(self, grid201):
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 1}, grid201)
        times = np.array([0.0, 0.01])
        _, eta_x = guess_flow(u0, times, grid201)
        exact = 1.0 - 0.01 * np.pi * np.sin(np.pi * grid201.nodes)
        assert np.max(np.abs(eta_x[1] - exact)) < 1e-15
        assert eta_x[1].min() > 0.5 and eta_x[1].max() < 1.5


class TestPicardStep:
    def test_first_step_with_identity_guess_is_unit_jacobian_solve(
        self, grid201, para201, u0zero201
    ):
        times = np.linspace(0.0, 0.01, 101)
        _, eta_x0 = guess_flow(u0zero201, times, grid201)  # u0=0: eta = x
        v1 = solve_linearized(para201, u0zero201, eta_x0, 0.01, 1e-4, 8)
        ref = solve_linearized(
            para201, u0zero201, np.ones(201), 0.01, 1e-4, 8
        )
        assert np.array_equal(v1.coeffs, ref.coeffs)

    def test_converged_flow_is_a_fixed_point(self, small_solution, para201, u0zero201):
        sol = small_solution
        v_next = solve_linearized(
            para201, u0zero201, sol.eta_x, float(sol.times[-1]), sol.dt,
            sol.basis.n_modes, basis=sol.basis,
        )
        rep = contraction_metrics(sol, v_next, para201)
        assert rep.total < 10.0 * 1e-10


class TestContractionMetrics:
    def test_identical_trajectories_zero(self, para201, u0zero201):
        traj = solve_linearized(
            para201, u0zero201, np.ones(201), 0.01, 1e-3, 8
        )
        rep = contraction_metrics(traj, traj, para201)
        assert rep.sup_diff == 0.0 and rep.grad_diff == 0.0

    def test_single_mode_perturbation_closed_form(self, para201, u0zero201):
        t_final, dt, eps = 0.02, 1e-3, 1e-3
        base = solve_linearized(para201, u0zero201, np.ones(201), t_final, dt, 4)
        pert = type(base)(base.times, base.coeffs.copy(), base.dt, base.basis)
        pert.coeffs[:, 1] += eps
        rep = contraction_metrics(base, pert, para201)
        assert rep.sup_diff == pytest.approx(eps * math.sqrt(M11), rel=1e-8)
        assert rep.grad_diff == pytest.approx(eps * math.sqrt(t_final * S11), rel=1e-6)

    def test_mismatched_grids_rejected(self, para201, u0zero201):
        a = solve_linearized(para201, u0zero201, np.ones(201), 0.01, 1e-3, 8)
        b = solve_linearized(para201, u0zero201, np.ones(201), 0.01, 5e-4, 8)
        with pytest.raises(ConfigurationError):
            contraction_metrics(a, b, para201)

    @settings(max_examples=60)
    @given(
        y=st.lists(
            st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-8, 8)),
            min_size=2,
            max_size=600,
        ),
        dx=st.floats(1e-6, 1.0),
    )
    def test_numpy_trapezoid_is_scipy_bitwise(self, y, dx):
        # grad_diff integrates with np.trapezoid; scipy's trapezoid, which it
        # replaced, forms the same products and sums them the same way
        y = np.array(y)
        assert np.trapezoid(y, dx=dx) == trapezoid(y, dx=dx)


class TestSolveNonlinear:
    def test_flow_map_bound_canonical(self, canonical_solution):
        assert canonical_solution.eta_x_min >= 0.5
        assert canonical_solution.eta_x_max <= 1.5
        assert canonical_solution.eta[0, 0] == 0.0
        assert canonical_solution.eta[0, -1] == 1.0

    def test_contraction_ratios_below_threshold(self, small_solution):
        ratios = [r.ratio for r in small_solution.history if math.isfinite(r.ratio)]
        assert ratios and all(r < 0.9 for r in ratios)
        totals = [r.total for r in small_solution.history]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_non_convergence_carries_history(self, para201, u0zero201):
        with pytest.raises(NonConvergenceError) as err:
            solve_nonlinear(
                para201, u0zero201,
                PicardSettings(t_final=0.0125, dt=1e-4, n_modes=8,
                               picard_tol=1e-30, max_iter=3),
            )
        assert len(err.value.history) >= 1

    def test_determinism_bitwise(self, para201, u0zero201):
        settings = PicardSettings(t_final=0.005, dt=2e-4, n_modes=8)
        a = solve_nonlinear(para201, u0zero201, settings)
        b = solve_nonlinear(para201, u0zero201, settings)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(a.eta_x, b.eta_x)

    def test_two_guesses_agree(self, para201):
        # numerical uniqueness probe on data where the guesses differ
        grid = para201.grid
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 1}, grid)
        tol = 1e-12
        runs = []
        for guess in ("u0", "identity"):
            runs.append(
                solve_nonlinear(
                    para201, u0,
                    PicardSettings(t_final=0.005, dt=1e-4, n_modes=16,
                                   picard_tol=tol, initial_guess=guess),
                )
            )
        diff = runs[0].coeffs - runs[1].coeffs
        mass = assemble_mass(para201, runs[0].basis)
        worst = math.sqrt(np.max(np.einsum("ti,ij,tj->t", diff, mass, diff)))
        assert worst < 10.0 * tol

    def test_per_step_energy_balance(self, small_solution, para201):
        # testing the discrete system with its own solution: the jump
        # dissipation bounds the balance residual at O(dt) per step
        sol = small_solution
        mass = assemble_mass(para201, sol.basis)
        dt = sol.dt
        worst = 0.0
        for m in range(0, len(sol.times) - 1, 10):
            stiff = assemble_stiffness(para201, sol.basis, sol.eta_x[m + 1])
            force = assemble_forcing(para201, sol.basis, sol.eta_x[m + 1])
            lam0, lam1 = sol.coeffs[m], sol.coeffs[m + 1]
            resid = abs(
                (0.5 * lam1 @ mass @ lam1 - 0.5 * lam0 @ mass @ lam0) / dt
                + lam1 @ stiff @ lam1
                - force @ lam1
            )
            worst = max(worst, resid)
        assert worst < 5.0 * dt


def _history(outcome) -> list:
    return getattr(outcome, "history", [])


class TestSharedHorizons:
    GRID = build_grid(41)
    PROFILE = sample_height_profile("parabolic", {"amplitude": 1.0}, GRID)

    @settings(max_examples=80)
    @given(
        scheme=st.sampled_from(["implicit-euler", "crank-nicolson"]),
        guess=st.sampled_from(["u0", "identity"]),
        amplitude=st.sampled_from([0.0, 0.5, 2.0, 20.0]),
        dt=st.sampled_from([1e-3, 1e-2]),
        steps=st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True),
        max_iter=st.sampled_from([3, 50]),
    )
    # zero velocity: T = 1 converges, T = 2.5 and 3 leave the band (0.5, 1.5)
    @example("implicit-euler", "u0", 0.0, 1e-2, [100, 250, 300], 50)
    # a strong compression fails the march of every horizon past about 14
    # steps, each with min/max over its own first bad block
    @example("implicit-euler", "u0", 20.0, 1e-3, [5, 20, 130, 200], 50)
    @example("crank-nicolson", "identity", 0.0, 1e-2, [10, 100], 2)
    def test_each_horizon_settles_as_its_own_solve(self, scheme, guess, amplitude, dt, steps, max_iter):
        kind, params = ("cosine", {"amplitude": amplitude, "mode": 1}) if amplitude else ("zero", {})
        u0 = sample_velocity(kind, params, self.GRID)
        base = PicardSettings(dt=dt, n_modes=6, max_iter=max_iter, scheme=scheme, initial_guess=guess)
        t_finals = [n * dt for n in steps]
        shared = dict(solve_horizons(self.PROFILE, u0, base, t_finals))
        assert sorted(shared) == sorted(t_finals)
        for t_final in t_finals:
            try:
                alone = solve_nonlinear(self.PROFILE, u0, dataclasses.replace(base, t_final=t_final))
            except SvfreeError as exc:
                alone = exc
            got = shared[t_final]
            assert type(got) is type(alone)
            assert len(_history(got)) == len(_history(alone))
            ratios = [r.ratio for r in _history(got)]
            assert ratios == pytest.approx([r.ratio for r in _history(alone)], rel=0, abs=1e-6, nan_ok=True)
            if isinstance(alone, SvfreeError):
                assert str(got) == str(alone)
                continue
            assert np.array_equal(got.times, alone.times)
            scale = np.max(np.abs(alone.coeffs))
            assert np.max(np.abs(got.coeffs - alone.coeffs)) <= 1e-12 * scale
            assert got.eta_x_min == pytest.approx(alone.eta_x_min, rel=1e-12)
            assert got.eta_x_max == pytest.approx(alone.eta_x_max, rel=1e-12)

    def test_t_final_off_the_step_grid_fails_only_its_horizon(self, para201, u0zero201):
        base = PicardSettings(dt=1e-3, n_modes=8)
        shared = dict(solve_horizons(para201, u0zero201, base, [2e-3, 2.5e-3, 4e-3]))
        assert isinstance(shared[2.5e-3], ConfigurationError)
        assert "must divide evenly" in str(shared[2.5e-3])
        assert shared[2e-3].iterations >= 1 and shared[4e-3].iterations >= 1


class TestFdOracle:
    def test_oracle_equivalence_with_refinement(self):
        # independent discretizations approach each other under joint refinement
        diffs = []
        for n, n_modes, dt in ((201, 8, 4e-4), (401, 16, 2e-4)):
            grid = build_grid(n)
            para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
            u0 = sample_velocity("zero", {}, grid)
            sol = solve_nonlinear(
                para, u0,
                PicardSettings(t_final=0.02, dt=dt, n_modes=n_modes, picard_tol=1e-12),
            )
            fd = fd_oracle_solve(para, u0, 0.02, dt)
            d = sol.velocity(0.02) - fd.velocity(0.02)
            diffs.append(math.sqrt(quadrature(d * d, 1, para)))
        assert diffs[1] <= diffs[0] / 2.0
        assert diffs[0] <= 5.0 * (4e-4 + (1.0 / 200.0) ** 2 + 1.0 / 64.0)

    def test_degenerate_flow_raises(self):
        # a strong compression drives the nodal Jacobian below 0.1 within a few steps
        grid = build_grid(101)
        para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
        u0 = sample_velocity("cosine", {"amplitude": 20.0, "mode": 1}, grid)
        with pytest.raises(FlowMapDegeneracyError, match=r"\(0\.1, 10\.0\)"):
            fd_oracle_solve(para, u0, 0.2, 1e-2)


class TestSchemeAndFlowInterp:
    def test_crank_nicolson_full_solve(self, para201, u0zero201):
        ie = solve_nonlinear(
            para201, u0zero201, PicardSettings(t_final=0.005, dt=1e-4, n_modes=8)
        )
        cn = solve_nonlinear(
            para201, u0zero201,
            PicardSettings(t_final=0.005, dt=1e-4, n_modes=8, scheme="crank-nicolson"),
        )
        assert cn.converged
        d = ie.velocity(0.005) - cn.velocity(0.005)
        # the schemes differ at O(dt) but solve the same problem
        assert 0.0 < math.sqrt(quadrature(d * d, 1, para201)) < 1e-3

    def test_flow_outside_window_rejected(self, grid201, para201, u0zero201):
        # a flow stored at 2 times cannot drive a 10-step march
        times = np.array([0.0, 0.01])
        _, eta_x = guess_flow(u0zero201, times, grid201)
        with pytest.raises(ConfigurationError, match=r"\(steps\+1, n_nodes\) = \(11, 201\)"):
            solve_linearized(para201, u0zero201, eta_x, 0.01, 1e-3, 8)
