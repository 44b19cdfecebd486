"""Each named check fails on an input just past its bound and passes just inside it."""

import importlib
import math
from types import SimpleNamespace
from unittest import mock

import pytest

from svfree import checks, jet
from svfree.cli import config_from_dict, run_verification_suite
from svfree.galerkin import assemble_stiffness
from svfree.picard import ContractionReport, PicardSettings, solve_nonlinear
from svfree.profile import build_grid, quadrature, sample_height_profile, sample_velocity


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
    assert f"c2~{c2:.3g}," in checks.embedding_constants(para, sol, reports).detail


def test_stiffness_row_catches_a_scaled_stiffness():
    # a stiffness 1e-6 too large moves S11 by about 1.5e-6, past the 1e-8 bound
    assert all(row.passed for row in checks.closed_form_assembly())

    def scaled(*args):
        return assemble_stiffness(*args) * (1.0 + 1e-6)

    with mock.patch.object(checks, "assemble_stiffness", scaled):
        rows = {row.name: row for row in checks.closed_form_assembly()}
    assert not rows["assembly-stiffness-closed-form"].passed
    assert rows["assembly-mass-closed-form"].passed


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
}
# the rows no test makes fail yet; embedding-constants is informational and always passes
_NO_CASE_YET = {
    "grid-uniformity", "quadrature-cubic-exactness", "spectral-derivative-consistency",
    "basis-orthonormality", "assembly-mass-closed-form", "forcing-zero-mode", "weighted-sobolev-family",
    "h-half-weighted-family", "interpolation-inequality-family", "sobolev-embedding-quarter",
    "interpolation-identity-gap", "norm-homogeneity", "energy-identity-residual", "mass-conservation",
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
