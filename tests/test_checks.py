"""Each named check fails on an input just past its bound and passes just inside it."""

import dataclasses
import functools
import importlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from svfree import checks, eulerian, galerkin, jet, weighted_calculus as wc
from svfree.cli import config_from_dict, run_verification_suite
from svfree.galerkin import GalerkinBasis, assemble_stiffness
from svfree.picard import ContractionReport, PicardSettings, solve_nonlinear
from svfree.profile import Grid, build_grid, quadrature, sample_height_profile, sample_velocity


def _history(ratio):
    # update totals 0.02 -> 0.018 decrease, so only the ratio is judged
    return [ContractionReport(1, 1e-2, 1e-2, math.nan), ContractionReport(2, 9e-3, 9e-3, ratio)]


@pytest.mark.parametrize("check, inside, outside", [
    (checks.contraction_monotonicity, _history(0.89), _history(0.9)),
    (checks.eta_bound, SimpleNamespace(eta_x_min=0.5, eta_x_max=1.5),
     SimpleNamespace(eta_x_min=0.4999, eta_x_max=1.0)),
    (checks.apriori_ceiling, [SimpleNamespace(within_apriori=True)] * 2,
     [SimpleNamespace(within_apriori=True), SimpleNamespace(within_apriori=False)]),
], ids=["contraction-monotonicity", "eta-bound", "apriori-ceiling"])
def test_check_fails_just_past_its_bound(check, inside, outside):
    assert check(inside).passed is True
    assert check(outside).passed is False


def test_contraction_needs_decreasing_updates():
    growing = [ContractionReport(1, 1e-2, 1e-2, math.nan), ContractionReport(2, 1e-2, 1e-2, 0.5)]
    assert not checks.contraction_monotonicity(growing).passed


def test_embedding_constant_uses_the_spectral_h3_norm():
    # mode 15 on 41 nodes is under three nodes per wavelength: nodal
    # differencing misses the third derivative by tens of percent there
    grid = build_grid(41)
    para = sample_height_profile("parabolic", {"amplitude": 1.0}, grid)
    u0 = sample_velocity("cosine", {"amplitude": 0.5, "mode": 15}, grid)
    sol = solve_nonlinear(para, u0, PicardSettings(t_final=1e-3, dt=1e-4, n_modes=16))
    reports = jet.energy_reports(sol, sol.times[::5])
    lam = sol.coeffs[sol.index_of(reports[-1].t)]
    h3 = math.sqrt(sum(quadrature(sol.basis.evaluate(lam, grid.nodes, k) ** 2, 0, para) for k in range(4)))
    c2 = h3 / math.sqrt(reports[-1].E_total)
    assert f"c2~{c2:.3g}," in checks.embedding_constants(sol, reports).detail


def test_stiffness_row_catches_a_scaled_stiffness():
    # a stiffness 1e-6 too large moves S11 by about 1.5e-6, past the 1e-8 bound
    assert all(row.passed for row in checks.closed_form_assembly())

    def scaled(*args):
        return assemble_stiffness(*args) * (1.0 + 1e-6)

    with mock.patch.object(checks, "assemble_stiffness", scaled):
        rows = {row.name: row for row in checks.closed_form_assembly()}
    assert not rows["assembly-stiffness-closed-form"].passed
    assert rows["assembly-mass-closed-form"].passed


def _scaled(factor, part=...):
    """A planter: fn -> fn with part of its array result scaled by factor."""
    def plant(fn):
        def scaled(*args, **kwargs):
            out = fn(*args, **kwargs)
            out[part] *= factor
            return out
        return scaled
    return plant


def _trapezoid(f, weight_power, profile):
    """quadrature with trapezoid weights in place of Simpson's."""
    grid = profile.grid
    w = np.full(grid.n_nodes, grid.spacing)
    w[[0, -1]] *= 0.5
    return float(np.dot(w, profile.weight_values(weight_power) * f))


def _trapezoid_subrange(grid, i0, i1):
    """Grid.subrange_weights with trapezoid weights in place of Simpson's."""
    w = np.full(i1 - i0 + 1, grid.spacing)
    w[[0, -1]] *= 0.5
    return w


def _without_jacobian(fields):
    """eulerian_fields with rho0 pulled back but not divided by eta_x."""
    def pulled_back(traj, t, n_samples=401):
        snap = fields(traj, t, n_samples)
        x = eulerian.flow_map(traj, traj.index_of(t)).inverse(snap.y)
        return dataclasses.replace(snap, rho=traj.profile.sample(x))
    return pulled_back


def _stepping_with_mass(factor):
    """A planter: step_linearized -> the same step with its mass matrix scaled by factor.

    A march from rest takes its affine map lam -> B lam + c from step_linearized,
    so the planted mass reaches B and c too.
    """
    def plant(step):
        return lambda lam, dt, mass, *rest: step(lam, dt, mass * factor, *rest)
    return plant


def _parabola(n_nodes):
    return sample_height_profile("parabolic", {"amplitude": 1.0}, build_grid(n_nodes))


@functools.cache
def _parabolic_run():
    """A 201-node, 16-mode parabolic run from rest to T = 5e-3."""
    profile = _parabola(201)
    u0 = sample_velocity("zero", {}, profile.grid)
    return solve_nonlinear(profile, u0, PicardSettings(t_final=5e-3, dt=1e-4, n_modes=16))


def _mass_row():
    sol = _parabolic_run()
    return checks.mass_conservation(sol, (0.0, sol.times[len(sol.times) // 2], sol.times[-1]))


# row -> (owner, attribute, planter of the defect in it, the row's check)
_PLANTED = {
    # M00 moves by 1.7e-7, past the 1e-8 bound
    "assembly-mass-closed-form": (checks, "assemble_mass", _scaled(1.0 + 1e-6),
                                  lambda: checks.closed_form_assembly()[0]),
    # the trapezoid error on the cubic is 3.1e-6 at 401 nodes, against 1e-13
    "quadrature-cubic-exactness": (checks, "quadrature", lambda fn: _trapezoid,
                                   lambda: checks.quadrature_cubic_exactness(_parabola(401))),
    # order 4 at the ends 1e-9 off, against 1e-12
    "spectral-derivative-consistency": (
        GalerkinBasis, "endpoint_derivatives", _scaled(1.0 + 1e-9, (..., 4)),
        lambda: checks.spectral_derivative_consistency(GalerkinBasis(16, build_grid(201)))),
    # modes 1 and up 1e-9 too long: a Gram defect of 2e-9, against 1e-10
    "basis-orthonormality": (GalerkinBasis, "evaluate_modes", _scaled(1.0 + 1e-9, np.s_[1:]),
                             lambda: checks.basis_orthonormality(GalerkinBasis(16, build_grid(201)))),
    # the squared norm scales by alpha**2: a relative defect of 9.99, against 1e-12
    "norm-homogeneity": (wc, "weighted_l2_norm", lambda fn: lambda *args: fn(*args) ** 2,
                         lambda: checks.norm_homogeneity(_parabola(201))),
    # a gap of 4.6e-5 at n=401, against 1e-8 (6.9e-9 without the defect)
    "interpolation-identity-gap": (Grid, "subrange_weights", lambda fn: _trapezoid_subrange,
                                   lambda: checks.interpolation_identities()[0]),
    # a mass drift of 7.9e-6, against 1e-6 (3.3e-15 without the defect)
    "mass-conservation": (eulerian, "eulerian_fields", _without_jacobian, _mass_row),
    # each step solved with the mass 1e-3 too large: a gap of 9.1e-2 between the
    # residual and the jump dissipation, against 1e-10 (1.7e-12 without the defect)
    "energy-identity-residual": (galerkin, "step_linearized", _stepping_with_mass(1.0 + 1e-3),
                                 checks.energy_identity),
}


@pytest.mark.parametrize("row", list(_PLANTED), ids=list(_PLANTED))
def test_row_fails_on_a_planted_defect(row):
    owner, attribute, plant, check = _PLANTED[row]
    clean = check()
    with mock.patch.object(owner, attribute, plant(getattr(owner, attribute))):
        planted = check()
    assert (clean.name, clean.passed) == (row, True), clean.detail
    assert (planted.name, planted.passed) == (row, False), planted.detail


# each verify row -> the tests that make it fail, just past its bound or on a planted defect
_FAILING_CASES = {
    "physical-vacuum": ["test_cli.py::TestVerificationSuite::test_corrupted_profile_fails_by_name",
                        "test_cli.py::TestVerificationSuite::test_nonvanishing_boundary_fails_physical_vacuum"],
    "assembly-stiffness-closed-form": ["test_checks.py::test_stiffness_row_catches_a_scaled_stiffness"],
    "identity-refinement-rate":
        ["test_cli.py::TestVerificationSuite::test_refinement_rate_fails_when_it_measures_nothing"],
    "contraction-monotonicity": ["test_checks.py::test_check_fails_just_past_its_bound[contraction-monotonicity]",
                                 "test_checks.py::test_contraction_needs_decreasing_updates"],
    "eta-bound": ["test_checks.py::test_check_fails_just_past_its_bound[eta-bound]"],
    "roundtrip-inverse-map":
        ["test_cli.py::TestVerificationSuite::test_roundtrip_row_catches_an_inverse_without_newton"],
    "apriori-ceiling": ["test_checks.py::test_check_fails_just_past_its_bound[apriori-ceiling]"],
    **{row: [f"test_checks.py::test_row_fails_on_a_planted_defect[{row}]"] for row in _PLANTED},
}
# the rows no test makes fail yet; embedding-constants is informational and always passes
_NO_CASE_YET = {
    "grid-uniformity", "forcing-zero-mode", "weighted-sobolev-family", "h-half-weighted-family",
    "interpolation-inequality-family", "sobolev-embedding-quarter",
    "boundary-neumann-spectral", "embedding-constants",
}


def _test_exists(case: str) -> bool:
    """Whether a 'file.py::[Class::]test[param id]' names a test function (and one of its parametrize ids)."""
    file, *names = case.split("::")
    names[-1], _, param = names[-1].rstrip("]").partition("[")
    obj = importlib.import_module(file.removesuffix(".py"))
    for name in names:
        obj = getattr(obj, name, None)
    marks = [mark for mark in getattr(obj, "pytestmark", []) if mark.name == "parametrize"]
    ids = [i for mark in marks for i in mark.kwargs.get("ids", ())]
    return callable(obj) and (not param or param in ids)


def test_every_verify_row_has_a_failing_case_or_is_listed():
    cfg = config_from_dict({"n_nodes": 201, "n_modes": 16, "dt": 5e-4, "t_final": 5e-3})
    emitted = {row.name for row in run_verification_suite(cfg)}
    assert not set(_FAILING_CASES) & _NO_CASE_YET
    assert emitted - set(_FAILING_CASES) == _NO_CASE_YET  # a listed row must be emitted
    assert set(_FAILING_CASES) <= emitted
    assert [case for cases in _FAILING_CASES.values() for case in cases if not _test_exists(case)] == []
