import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from svfree import galerkin
from svfree.errors import ConfigurationError, FlowMapDegeneracyError
from svfree.galerkin import (
    GalerkinBasis,
    assemble_forcing,
    assemble_mass,
    assemble_stiffness,
    energy_identity_residual,
    n_steps_for,
    project_initial,
    solve_linearized,
    step_linearized,
)
from svfree.profile import build_grid, quadrature, sample_velocity

S11_CLOSED_FORM = np.pi**2 / 6.0 + 0.5


@pytest.fixture(scope="module")
def basis401(grid401_mod):
    return GalerkinBasis(8, grid401_mod)


@pytest.fixture(scope="module")
def grid401_mod():
    return build_grid(401)


class TestBasis:
    def test_single_mode_is_constant(self, grid401):
        b = GalerkinBasis(1, grid401)
        assert np.all(b.table(0)[0] == 1.0)

    def test_first_mode_normalized(self, grid401, para401):
        # (e1, e1) = int 2 cos^2(pi x) = 1, antiderivative x + sin(2 pi x)/(4 pi)
        b = GalerkinBasis(2, grid401)
        e1 = b.table(0)[1]
        assert np.dot(grid401.simpson_weights, e1 * e1) == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_slopes_exactly_zero(self, grid401):
        b = GalerkinBasis(6, grid401)
        d1 = b.table(1)
        assert np.all(d1[:, 0] == 0.0)
        assert np.all(d1[:, -1] == 0.0)

    def test_orthonormality_defect(self, grid401):
        b = GalerkinBasis(32, grid401)
        assert b.orthonormality_defect() <= 1e-10

    def test_endpoint_derivatives_match_tables(self, grid401):
        b = GalerkinBasis(5, grid401)
        coeffs = np.array([0.3, -1.2, 0.5, 0.0, 2.0])
        for x0, idx in ((0.0, 0), (1.0, -1)):
            derivs = b.endpoint_derivatives(coeffs, x0, 5)
            for k in range(5):
                nodal = b.evaluate(coeffs, grid401.nodes, k)[idx]
                assert derivs[k] == pytest.approx(nodal, abs=1e-9 * max(1, abs(nodal)))

    def test_bad_mode_count(self, grid401):
        with pytest.raises(ConfigurationError):
            GalerkinBasis(0, grid401)

    def test_gradient_products_fill_one_fortran_table(self, grid401):
        # canonical size: the (401, 528) table is filled in place, with no
        # gathered copies of its size, and keeps the layout the stiffness GEMM
        # rounds by; a C-ordered table moves the canonical outputs
        b = GalerkinBasis(32, grid401)
        d = b.table(1).T
        tracemalloc.start()
        try:
            table, _ = b.gradient_products()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        i, j = np.triu_indices(32)
        assert np.array_equal(table.view(np.int64), (d[:, i] * d[:, j]).view(np.int64))
        assert table.flags.f_contiguous
        assert peak < 1.25 * table.nbytes
        assert b.gradient_products()[0] is table
        b.release_gradient_products()
        assert b.gradient_products()[0] is not table


class TestAssembly:
    def test_mass_00_closed_form(self, grid401, para401):
        mass = assemble_mass(para401, GalerkinBasis(4, grid401))
        assert mass[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_mass_01_vanishes_by_symmetry(self, grid401, para401):
        # integrand x(1-x) sqrt(2) cos(pi x) is odd about 1/2; quad oracle agrees
        mass = assemble_mass(para401, GalerkinBasis(4, grid401))
        oracle = quad(lambda x: x * (1 - x) * math.sqrt(2) * math.cos(math.pi * x), 0, 1)[0]
        assert abs(oracle) < 1e-14
        assert abs(mass[0, 1]) < 1e-14

    def test_mass_exactly_symmetric(self, grid401, para401):
        mass = assemble_mass(para401, GalerkinBasis(8, grid401))
        assert np.array_equal(mass, mass.T)

    def test_stiffness_11_closed_form(self, grid401, para401):
        stiff = assemble_stiffness(para401, GalerkinBasis(4, grid401), np.ones(401))
        assert stiff[1, 1] == pytest.approx(S11_CLOSED_FORM, abs=1e-8)

    def test_stiffness_zero_mode_row(self, grid401, para401):
        stiff = assemble_stiffness(para401, GalerkinBasis(4, grid401), np.ones(401))
        assert np.all(stiff[0] == 0.0)
        assert np.all(stiff[:, 0] == 0.0)

    def test_stiffness_jacobian_scaling(self, grid401, para401):
        b = GalerkinBasis(6, grid401)
        s1 = assemble_stiffness(para401, b, np.ones(401))
        s2 = assemble_stiffness(para401, b, np.full(401, 2.0))
        assert np.allclose(s2, s1 / 4.0, rtol=0, atol=1e-16)

    def test_stiffness_positive_semidefinite(self, grid401, para401):
        stiff = assemble_stiffness(para401, GalerkinBasis(12, grid401), np.ones(401))
        eigs = np.linalg.eigvalsh(stiff)
        assert eigs.min() >= -1e-10

    def test_stiffness_degenerate_jacobian_rejected(self, grid401, para401):
        bad = np.ones(401)
        bad[13] = 0.05
        with pytest.raises(FlowMapDegeneracyError):
            assemble_stiffness(para401, GalerkinBasis(4, grid401), bad)

    def test_forcing_zero_mode(self, grid401, para401):
        force = assemble_forcing(para401, GalerkinBasis(4, grid401), np.ones(401))
        assert force[0] == 0.0

    def test_forcing_first_mode_quad_oracle(self, grid401, para401):
        force = assemble_forcing(para401, GalerkinBasis(4, grid401), np.ones(401))
        oracle = quad(
            lambda x: -((x * (1 - x)) ** 2) * math.sqrt(2) * math.pi * math.sin(math.pi * x),
            0.0,
            1.0,
        )[0]
        assert force[1] == pytest.approx(oracle, abs=1e-10)

    def test_forcing_jacobian_scaling(self, grid401, para401):
        b = GalerkinBasis(6, grid401)
        f1 = assemble_forcing(para401, b, np.ones(401))
        f2 = assemble_forcing(para401, b, np.full(401, 2.0))
        assert np.allclose(f2, f1 / 4.0, rtol=0, atol=1e-18)

    @settings(max_examples=40, deadline=None)
    @given(
        n_modes=st.integers(1, 12),
        lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
        data=st.data(),
    )
    def test_stacked_assembly_matches_per_row_reference(self, para201, n_modes, lead, data):
        eta_x = data.draw(arrays(float, lead + (201,), elements=st.floats(0.2, 5.0)))
        b = GalerkinBasis(n_modes, para201.grid)
        stiff = assemble_stiffness(para201, b, eta_x)
        force = assemble_forcing(para201, b, eta_x)
        assert stiff.shape == lead + (n_modes, n_modes)
        assert force.shape == lead + (n_modes,)
        d1 = b.table(1)
        simpson = para201.grid.simpson_weights
        for idx in np.ndindex(*lead):
            w = simpson * para201.values / eta_x[idx] ** 2
            s_ref = (d1 * w) @ d1.T
            f_ref = d1 @ (simpson * para201.values**2 / eta_x[idx] ** 2)
            s_scale = max(np.max(np.abs(s_ref)), 1e-300)
            f_scale = max(np.max(np.abs(f_ref)), 1e-300)
            assert np.max(np.abs(stiff[idx] - s_ref)) <= 1e-12 * s_scale
            assert np.max(np.abs(force[idx] - f_ref)) <= 1e-12 * f_scale


class TestProjection:
    def test_zero_velocity(self, grid401, para401, u0zero401):
        lam = project_initial(u0zero401.values, GalerkinBasis(8, grid401))
        assert np.all(lam == 0.0)

    def test_plain_cosine(self, grid401):
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 1}, grid401)
        lam = project_initial(u0.values, GalerkinBasis(4, grid401))
        assert lam[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
        assert np.max(np.abs(np.delete(lam, 1))) < 1e-10

    def test_orthonormal_expansion(self, grid401):
        b = GalerkinBasis(4, grid401)
        vals = b.table(0)[0] + b.table(0)[1]
        lam = project_initial(vals, b)
        assert np.allclose(lam, [1.0, 1.0, 0.0, 0.0], atol=1e-10)


class TestStepping:
    def test_free_evolution_identity(self):
        mass = np.diag([2.0, 3.0])
        zero = np.zeros((2, 2))
        lam = np.array([1.5, -0.5])
        out = step_linearized(lam, 1e-3, mass, zero, np.zeros(2))
        assert np.allclose(out, lam, atol=1e-15)

    def test_scalar_discrete_decay(self):
        m, s, dt = 2.0, 5.0, 1e-2
        lam = np.array([1.0])
        out = step_linearized(lam, dt, np.array([[m]]), np.array([[s]]), np.zeros(1))
        assert out[0] == pytest.approx(1.0 / (1.0 + dt * s / m), rel=1e-14)

    def test_pure_forcing(self):
        mass = np.diag([2.0, 4.0])
        f = np.array([1.0, 2.0])
        lam = np.array([0.5, 0.5])
        out = step_linearized(lam, 0.1, mass, np.zeros((2, 2)), f)
        assert np.allclose(out, lam + 0.1 * np.linalg.solve(mass, f), atol=1e-15)

    def test_crank_nicolson_more_accurate_than_backward_euler(self):
        # single-mode decay with exact solution exp(-s t / m)
        m, s, t_final = 1.0, 20.0, 0.5
        exact = math.exp(-s * t_final / m)
        errs = {}
        for scheme in ("implicit-euler", "crank-nicolson"):
            lam = np.array([1.0])
            dt = 1e-2
            for _ in range(int(t_final / dt)):
                lam = step_linearized(
                    lam, dt, np.array([[m]]), np.array([[s]]), np.zeros(1),
                    scheme, np.array([[s]]), np.zeros(1),
                )
            errs[scheme] = abs(lam[0] - exact)
        assert errs["crank-nicolson"] < errs["implicit-euler"] / 10.0

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            step_linearized(np.zeros(1), 0.1, np.eye(1), np.eye(1), np.zeros(1), "rk4")


class TestSolveLinearized:
    @staticmethod
    def _assert_matches_per_step_reference(traj, profile, u0, flow, scheme):
        """The march against steps whose operators are assembled from rows of the full product."""
        b, dt = traj.basis, traj.dt
        eta_x = 1.0 + flow @ b.table(1)
        mass = assemble_mass(profile, b)
        lam = [project_initial(u0.values, b)]
        for m in range(len(flow) - 1):
            lam.append(step_linearized(
                lam[-1], dt, mass,
                assemble_stiffness(profile, b, eta_x[m + 1]),
                assemble_forcing(profile, b, eta_x[m + 1]),
                scheme,
                assemble_stiffness(profile, b, eta_x[m]),
                assemble_forcing(profile, b, eta_x[m]),
            ))
        ref = np.array(lam)
        assert np.max(np.abs(traj.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_blocked_march_matches_per_step_reference(self, grid201, para201, scheme):
        # 300 steps span three assembly blocks, the last one partial; a
        # Jacobian that changes every step exposes a wrong block seam
        steps, dt, n_modes = 300, 1e-4, 8
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 2}, grid201)
        phase = np.cos(0.1 * np.arange(steps + 1))
        # Jacobian 1 + 0.4 phase sin(pi x): mode 1's slope is -sqrt(2) pi sin(pi x)
        flow = np.zeros((steps + 1, n_modes))
        flow[:, 1] = -0.4 * phase / (np.sqrt(2.0) * np.pi)
        traj = solve_linearized(para201, u0, flow, steps * dt, dt, n_modes, scheme)
        eta_x = 1.0 + flow @ traj.basis.table(1)
        assert np.allclose(eta_x, 1.0 + 0.4 * phase[:, None] * np.sin(np.pi * grid201.nodes), atol=1e-14)
        self._assert_matches_per_step_reference(traj, para201, u0, flow, scheme)

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        size=st.floats(0.0, 0.01),
        scheme=st.sampled_from(["implicit-euler", "crank-nicolson"]),
    )
    # one short of, exactly, and one past one and two assembly blocks
    @example(127, 1, 0.01, "implicit-euler")
    @example(128, 2, 0.01, "crank-nicolson")
    @example(129, 3, 0.01, "crank-nicolson")
    @example(256, 4, 0.01, "implicit-euler")
    @example(257, 5, 0.01, "crank-nicolson")
    def test_block_seams_match_per_step_reference(self, grid201, para201, steps, seed, size, scheme):
        # a small modal flow that differs at every step; |mu_n| <= 0.01 over
        # 6 modes keeps the Jacobian within 1 +- 0.7
        n_modes, dt = 6, 1e-4
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 2}, grid201)
        flow = size * np.random.default_rng(seed).uniform(-1.0, 1.0, (steps + 1, n_modes))
        traj = solve_linearized(para201, u0, flow, steps * dt, dt, n_modes, scheme)
        self._assert_matches_per_step_reference(traj, para201, u0, flow, scheme)

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([0.0, 0.01]),
        one_row=st.booleans(),
        scheme=st.sampled_from(["implicit-euler", "crank-nicolson"]),
    )
    @example(127, 1, 0.0, True, "implicit-euler")
    @example(128, 2, 0.01, False, "crank-nicolson")
    @example(129, 3, 0.01, True, "crank-nicolson")
    @example(256, 4, 0.0, False, "crank-nicolson")
    @example(257, 5, 0.01, False, "implicit-euler")
    def test_constant_flow_matches_per_step_reference(self, grid201, para201, steps, seed, size, one_row, scheme):
        # the affine step of a flow that never changes, given as one row or as
        # steps+1 equal rows, against a step solved from the operators at every row
        n_modes, dt = 6, 1e-4
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 2}, grid201)
        row = size * np.random.default_rng(seed).uniform(-1.0, 1.0, n_modes)
        rows = np.tile(row, (steps + 1, 1))
        traj = solve_linearized(para201, u0, row if one_row else rows, steps * dt, dt, n_modes, scheme)
        self._assert_matches_per_step_reference(traj, para201, u0, rows, scheme)

    @pytest.mark.parametrize("steps", [1, 128, 300])
    def test_constant_flow_steps_twice_and_assembles_once(self, para201, u0zero201, steps):
        def calls(flow):
            """How often the march calls step_linearized, assemble_stiffness and assemble_forcing."""
            with contextlib.ExitStack() as stack:
                spies = [stack.enter_context(mock.patch.object(galerkin, name, wraps=getattr(galerkin, name)))
                         for name in ("step_linearized", "assemble_stiffness", "assemble_forcing")]
                solve_linearized(para201, u0zero201, flow, steps * 1e-4, 1e-4, 8)
            return [spy.call_count for spy in spies]

        flow = np.full((steps + 1, 8), 0.003)
        assert calls(flow) == [2, 1, 1]
        # rows that differ only in the middle keep the march per step
        flow[(steps + 1) // 2, 1] += 1e-3
        blocks = -(-(steps + 1) // 128)
        assert calls(flow) == [steps, blocks, blocks]

    @pytest.mark.parametrize("steps", [1, 128, 300])
    def test_residual_of_constant_flow_assembles_once(self, para201, steps):
        dt = 1e-4
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 2}, para201.grid)
        row = np.full(8, 0.003)
        traj = solve_linearized(para201, u0, row, steps * dt, dt, 8)
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(galerkin, name, wraps=getattr(galerkin, name)))
                     for name in ("assemble_stiffness", "assemble_forcing")]
            got = energy_identity_residual(traj, para201, np.tile(row, (steps + 1, 1)))
        assert [spy.call_count for spy in spies] == [1, 1]
        # the balance summed step by step from the one row's operators
        b, lam = traj.basis, traj.coeffs
        eta_x = 1.0 + row @ b.table(1)
        stiff, force = assemble_stiffness(para201, b, eta_x), assemble_forcing(para201, b, eta_x)
        mass = assemble_mass(para201, b)
        lhs = 0.5 * lam[-1] @ mass @ lam[-1] + dt * sum(l @ stiff @ l for l in lam[1:])
        rhs = 0.5 * lam[0] @ mass @ lam[0] + dt * sum(force @ l for l in lam[1:])
        assert abs(got - abs(lhs - rhs)) <= 1e-12 * abs(lhs)

    def test_residual_rejects_jacobian_of_wrong_shape(self, para201, u0zero201):
        traj = solve_linearized(para201, u0zero201, np.zeros(8), 0.01, 1e-3, 8)
        with pytest.raises(ConfigurationError, match=r"\(steps\+1, n_modes\) = \(11, 8\)"):
            energy_identity_residual(traj, para201, np.zeros((5, 8)))
        # the march checks the shape before it asks whether the rows are equal
        with pytest.raises(ConfigurationError, match=r"\(steps\+1, n_modes\) = \(11, 8\)"):
            solve_linearized(para201, u0zero201, np.zeros((5, 8)), 0.01, 1e-3, 8)

    def test_step_count_validation(self):
        with pytest.raises(ConfigurationError):
            n_steps_for(0.05, 3e-4)
        assert n_steps_for(0.05, 1e-4) == 500

    def test_energy_identity_residual_first_order(self, grid201, para201, u0zero201):
        identity = np.zeros(16)
        residuals = []
        for dt in (2e-4, 1e-4):
            traj = solve_linearized(para201, u0zero201, identity, 0.01, dt, 16)
            residuals.append(energy_identity_residual(traj, para201, identity))
        assert residuals[0] <= 5.0 * 2e-4
        assert residuals[1] <= 0.6 * residuals[0]

    def test_uniform_estimate_bound(self, grid201, para201):
        # sup ||sqrt(rho0) v||^2 + sum dt ||sqrt(rho0) v_x||^2 <= 10(||sqrt(rho0)u0||^2 + T)
        ones = np.ones(201)
        t_final, dt = 0.01, 1e-4
        for kind, params in (("zero", {}), ("cosine", {"amplitude": 1.0, "mode": 2})):
            u0 = sample_velocity(kind, params, build_grid(201))
            traj = solve_linearized(para201, u0, np.zeros(16), t_final, dt, 16)
            b = traj.basis
            mass = assemble_mass(para201, b)
            grad = assemble_stiffness(para201, b, ones)
            sup_sq = float(np.max(np.einsum("ti,ij,tj->t", traj.coeffs, mass, traj.coeffs)))
            diss = dt * float(
                np.sum(np.einsum("ti,ij,tj->t", traj.coeffs[1:], grad, traj.coeffs[1:]))
            )
            u0_sq = quadrature(u0.values**2, 1, para201)
            assert sup_sq + diss <= 10.0 * (u0_sq + t_final)

    def test_spectral_convergence_in_mode_count(self, grid201, para201, u0zero201):
        norms = []
        for n_modes in (4, 8, 16, 32):
            traj = solve_linearized(para201, u0zero201, np.zeros(n_modes), 0.01, 2e-4, n_modes)
            b = traj.basis
            mass = assemble_mass(para201, b)
            lam = traj.coeffs[-1]
            norms.append(math.sqrt(lam @ mass @ lam))
        gaps = np.abs(np.diff(norms))
        # decreasing until the weighted norm hits its rounding floor
        floor = 1e-10
        assert gaps[1] < max(gaps[0], floor) and gaps[2] < max(gaps[1], floor)


class TestTimeConvergenceOrder:
    @staticmethod
    def _final_state(scheme, dt, para, u0):
        traj = solve_linearized(para, u0, np.zeros(8), 0.02, dt, 8, scheme)
        return traj.coeffs[-1]

    def test_backward_euler_is_first_order(self, para201):
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 2}, build_grid(201))
        lam = [self._final_state("implicit-euler", dt, para201, u0)
               for dt in (4e-4, 2e-4, 1e-4)]
        e1 = np.linalg.norm(lam[0] - lam[2])
        e2 = np.linalg.norm(lam[1] - lam[2])
        # Richardson: successive-difference ratio ~2 for a first-order scheme
        assert 1.5 < e1 / e2 < 3.5

    def test_crank_nicolson_is_second_order(self, para201):
        u0 = sample_velocity("cosine", {"amplitude": 1.0, "mode": 2}, build_grid(201))
        lam = [self._final_state("crank-nicolson", dt, para201, u0)
               for dt in (4e-4, 2e-4, 1e-4)]
        e1 = np.linalg.norm(lam[0] - lam[2])
        e2 = np.linalg.norm(lam[1] - lam[2])
        assert 3.0 < e1 / e2 < 6.0


def test_degenerate_mass_rejected(grid201):
    from svfree.errors import DegenerateMassError
    from svfree.profile import sample_height_profile

    broken = sample_height_profile("parabolic", {"amplitude": 1.0}, grid201)
    broken.values[:] = 0.0  # deliberately corrupted fixture
    with pytest.raises(DegenerateMassError):
        assemble_mass(broken, GalerkinBasis(4, grid201))
