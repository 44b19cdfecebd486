import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svfree.errors import ConfigurationError
from svfree.eulerian import (
    boundary_diagnostics,
    boundary_reports,
    eulerian_fields,
    eulerian_mass,
)
from svfree.fd_oracle import FDTrajectory, fd_oracle_solve
from svfree.galerkin import GalerkinBasis, ModalTrajectory
from svfree.picard import SolutionTrajectory, _integrate_flow_coeffs
from svfree.profile import build_grid, quadrature, sample_height_profile, sample_velocity


def _constant_modal_trajectory(grid, coeffs, t_final=0.01, n_steps=10):
    basis = GalerkinBasis(len(coeffs), grid)
    times = np.linspace(0.0, t_final, n_steps + 1)
    lam = np.tile(coeffs, (n_steps + 1, 1))
    return ModalTrajectory(times, lam, times[1] - times[0], basis)


def _solution_from_modal(traj, profile):
    """The solution record of a velocity, with the flow Picard integrates from it."""
    mu = _integrate_flow_coeffs(traj)
    eta_x = 1.0 + mu @ traj.basis.table(1)
    return SolutionTrajectory(
        times=traj.times, coeffs=traj.coeffs, dt=traj.dt, basis=traj.basis,
        flow_coeffs=mu, profile=profile, history=[],
        eta_x_min=float(np.min(eta_x)), eta_x_max=float(np.max(eta_x)),
    )


class TestFlowMap:
    def test_zero_velocity(self, grid201, para201):
        traj = _constant_modal_trajectory(grid201, np.zeros(4))
        fm = _solution_from_modal(traj, para201)
        assert np.array_equal(fm.eta[-1], grid201.nodes)
        assert np.all(fm.eta_x == 1.0)

    def test_unit_velocity_translation(self, grid201, para201):
        traj = _constant_modal_trajectory(grid201, np.array([1.0, 0.0]), t_final=0.25)
        fm = _solution_from_modal(traj, para201)
        assert np.allclose(fm.eta[-1], grid201.nodes + 0.25, atol=1e-15)

    def test_steady_cosine_jacobian(self, grid201, para201):
        # v = cos(pi x) frozen in time: eta_x(t) = 1 - t pi sin(pi x) exactly
        # (trapezoid integration of a constant integrand is exact)
        coeffs = np.array([0.0, 1.0 / math.sqrt(2.0)])
        traj = _constant_modal_trajectory(grid201, coeffs, t_final=0.01)
        fm = _solution_from_modal(traj, para201)
        exact = 1.0 - 0.01 * np.pi * np.sin(np.pi * grid201.nodes)
        assert np.max(np.abs(fm.eta_x[-1] - exact)) < 1e-14


class TestEulerianFields:
    def test_identity_at_t_zero(self, small_solution, para201):
        snap = eulerian_fields(para201, small_solution, 0.0, 201)
        assert snap.boundary == (0.0, 1.0)
        assert np.max(np.abs(snap.rho - para201.sample(snap.y))) < 1e-10
        assert np.all(snap.u == 0.0) or np.max(np.abs(snap.u)) < 1e-12

    def test_pure_translation(self, grid201, para201):
        t = 0.25
        traj = _constant_modal_trajectory(grid201, np.array([1.0, 0.0]), t_final=t)
        sol = _solution_from_modal(traj, para201)
        snap = eulerian_fields(para201, sol, t, 101)
        assert snap.boundary[0] == pytest.approx(t, abs=1e-14)
        assert snap.boundary[1] == pytest.approx(1.0 + t, abs=1e-14)
        assert np.max(np.abs(snap.rho - para201.sample(snap.y - t))) < 1e-9
        assert np.allclose(snap.u, 1.0)

    def test_mass_conservation_change_of_variables(self, small_solution, para201):
        mass0 = quadrature(np.ones(201), 1, para201)
        for t in (0.0, small_solution.times[-1]):
            snap = eulerian_fields(para201, small_solution, float(t), 401)
            assert abs(eulerian_mass(snap) - mass0) < 1e-9

    def test_density_structure(self, small_solution, para201):
        snap = eulerian_fields(para201, small_solution, small_solution.times[-1], 101)
        assert snap.rho[0] == 0.0 and snap.rho[-1] == 0.0
        assert np.all(snap.rho[1:-1] > 0.0)
        assert snap.boundary[0] < snap.boundary[1]

    def test_round_trip_inverse(self, small_solution, grid201):
        from svfree.eulerian import inverse_flow

        idx = len(small_solution.times) - 1
        y = small_solution.eta[idx]
        x = inverse_flow(small_solution, idx, y)
        assert np.max(np.abs(x - grid201.nodes)) < 1e-10

    @given(
        shift=st.floats(-1.0, 1.0),
        shape=st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15),
        size=st.floats(0.0, 1.0),
    )
    @example(shift=0.0, shape=[0.0] * 14 + [1.0], size=1.0)  # the most curved admissible flow
    def test_inverse_matches_bisection(self, grid201, para201, shift, shape, size):
        from svfree.eulerian import inverse_flow

        # |eta_x - 1| <= size/2 by the bound |e_n'| <= sqrt(2) n pi, so eta_x stays in [1/2, 3/2]
        basis = GalerkinBasis(16, grid201)
        bounds = np.sqrt(2.0) * np.pi * np.arange(1, 16)
        shape = np.array(shape)
        total = float(np.sum(np.abs(shape) * bounds))
        mu = np.concatenate([[shift], shape * (0.5 * size / total if total > 0 else 0.0)])
        sol = SolutionTrajectory(
            times=np.array([0.0]), coeffs=np.zeros((1, 16)), dt=1.0, basis=basis,
            flow_coeffs=mu[None], profile=para201, history=[], eta_x_min=0.5, eta_x_max=1.5,
        )

        def eta(x):
            return x + basis.evaluate(mu, x, 0)

        y = np.linspace(*eta(np.array([0.0, 1.0])), 401)
        lo, hi = np.zeros_like(y), np.ones_like(y)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            less = eta(mid) < y
            lo, hi = np.where(less, mid, lo), np.where(less, hi, mid)
        assert np.max(np.abs(inverse_flow(sol, 0, y) - 0.5 * (lo + hi))) <= 1e-14

    def test_fd_inverse_solves_the_pchip_flow(self, para201):
        from scipy.interpolate import PchipInterpolator

        from svfree.eulerian import inverse_flow

        fd = fd_oracle_solve(para201, sample_velocity("cosine", {"amplitude": 0.5}, para201.grid),
                             0.01, 1e-3)
        for idx, t in enumerate(fd.times):
            snap = eulerian_fields(para201, fd, float(t), 401)
            x = inverse_flow(fd, idx, snap.y)
            eta = PchipInterpolator(fd.grid.nodes, fd.eta[idx])
            assert np.max(np.abs(eta(x) - snap.y)) <= 1e-14

    def test_even_sample_count_rejected(self, small_solution, para201):
        with pytest.raises(ConfigurationError):
            eulerian_fields(para201, small_solution, 0.0, 100)

    def test_velocity_without_flow_rejected(self, grid201, para201):
        # a plain modal velocity record carries no flow map to pull back through
        traj = _constant_modal_trajectory(grid201, np.zeros(4))
        with pytest.raises(ConfigurationError, match="unsupported trajectory type ModalTrajectory"):
            eulerian_fields(para201, traj, 0.0, 101)

    def test_fd_trajectory_supported(self, para201, u0zero201):
        fd = fd_oracle_solve(para201, u0zero201, 0.01, 1e-3)
        snap = eulerian_fields(para201, fd, 0.01, 101)
        mass0 = quadrature(np.ones(201), 1, para201)
        assert abs(eulerian_mass(snap) - mass0) < 1e-5


class TestBoundaryDiagnostics:
    def test_spectral_neumann_exact_zero(self, small_solution, para201):
        for t in (0.0, small_solution.times[-1]):
            rep = boundary_diagnostics(para201, small_solution, float(t))
            assert rep.vx_at_boundary == (0.0, 0.0)
            assert rep.ux_at_boundary == (0.0, 0.0)
            assert rep.stress_at_boundary == (0.0, 0.0)

    def test_soundspeed_slope_initial(self, small_solution, para201):
        rep = boundary_diagnostics(para201, small_solution, 0.0)
        assert rep.soundspeed_slope[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.soundspeed_slope[1] == pytest.approx(1.0, abs=1e-12)

    def test_fd_neumann_defect_shrinks_with_h(self):
        defects = []
        for n in (101, 201):
            grid = build_grid(n)
            para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
            u0 = sample_velocity("zero", {}, grid)
            fd = fd_oracle_solve(para, u0, 0.01, 1e-4)
            rep = boundary_diagnostics(para, fd, 0.01)
            defects.append(max(abs(rep.vx_at_boundary[0]), abs(rep.vx_at_boundary[1])))
        assert defects[1] < defects[0] / 2.0
        assert defects[0] <= 5.0 * (1.0 / 100.0) ** 2

    def test_fd_endpoint_stencils_exact_on_polynomials(self):
        # the four-point v_x stencil is exact for cubics, the three-point eta_x one for quadratics
        grid = build_grid(101)
        para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
        x = grid.nodes
        v = 1.0 - 2.0 * x + 3.0 * x**2 - 4.0 * x**3  # v_x = -2 at 0, -8 at 1
        eta = x + 0.1 * x * x  # eta_x = 1 at 0, 1.2 at 1
        fd = FDTrajectory(np.array([0.0]), v[None, :], eta[None, :], 1e-3, para, 1.0, 1.2)
        assert fd.boundary_vx(0.0) == pytest.approx((-2.0, -8.0), rel=1e-12)
        assert fd.boundary_eta_x(0.0) == pytest.approx((1.0, 1.2), rel=1e-12)

    def test_fd_report_reads_the_flow_map_row(self, para201, u0zero201):
        fd = fd_oracle_solve(para201, u0zero201, 0.01, 1e-3)
        eta_x = np.gradient(fd.eta, fd.grid.spacing, axis=1, edge_order=2)
        slopes = [abs(para201.endpoint_derivatives(s, 2)[1]) for s in (0.0, 1.0)]
        for idx in (0, 3, 10):
            rep = boundary_diagnostics(para201, fd, float(fd.times[idx]))
            ends = (eta_x[idx][0], eta_x[idx][-1])
            vx = fd.boundary_vx(float(fd.times[idx]))
            assert rep.ux_at_boundary == (vx[0] / ends[0], vx[1] / ends[1])
            assert rep.soundspeed_slope == (slopes[0] / ends[0] ** 2, slopes[1] / ends[1] ** 2)

    def test_fd_reports_at_all_times_match_one_time(self, para201, u0zero201):
        fd = fd_oracle_solve(para201, u0zero201, 0.01, 1e-3)
        times = [float(t) for t in fd.times[::-1]]
        single = [boundary_diagnostics(para201, fd, t) for t in times]
        # repr tells -0.0 from 0.0
        assert repr(boundary_reports(para201, fd, times)) == repr(single)

    def test_vacuum_slope_persistence(self, small_solution, para201):
        # |d(c^2)/dy| at the moving boundary stays within [c1/2, 2 c2]
        for t in small_solution.times[::25]:
            rep = boundary_diagnostics(para201, small_solution, float(t))
            for s in rep.soundspeed_slope:
                assert para201.c1 / 2.0 <= s <= 2.0 * para201.c2

    def test_boundary_kinematics(self, small_solution):
        # d/dt eta(0, t) tracks v(0, t) to O(dt)
        sol = small_solution
        k = len(sol.times) // 2
        rate = (sol.eta[k + 1, 0] - sol.eta[k, 0]) / sol.dt
        v_mid = sol.velocity(float(sol.times[k]))[0]
        assert abs(rate - v_mid) < 50.0 * sol.dt
