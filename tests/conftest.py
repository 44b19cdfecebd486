import logging

import pytest
from hypothesis import settings

from svfree.picard import PicardSettings, solve_nonlinear
from svfree.profile import build_grid, sample_height_profile, sample_velocity

logging.getLogger("svfree").setLevel(logging.ERROR)

# the same examples on every run: a property test fails or passes for good
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def grid401():
    return build_grid(401)


@pytest.fixture(scope="session")
def grid201():
    return build_grid(201)


@pytest.fixture(scope="session")
def para401(grid401):
    return sample_height_profile("parabolic", {"amplitude": 1.0}, grid401)


@pytest.fixture(scope="session")
def para201(grid201):
    return sample_height_profile("parabolic", {"amplitude": 1.0}, grid201)


@pytest.fixture(scope="session")
def sine201(grid201):
    return sample_height_profile("sine", {"amplitude": 1.0}, grid201)


@pytest.fixture(scope="session")
def dist401(grid401):
    return sample_height_profile("distance", {}, grid401)


@pytest.fixture(scope="session")
def u0zero401(grid401):
    return sample_velocity("zero", {}, grid401)


@pytest.fixture(scope="session")
def u0zero201(grid201):
    return sample_velocity("zero", {}, grid201)


@pytest.fixture(scope="session")
def canonical_solution(para401, u0zero401):
    """The canonical nonlinear run: parabolic a=1, u0=0, T=0.05, dt=1e-4, N=32."""
    return solve_nonlinear(para401, u0zero401, PicardSettings())


@pytest.fixture(scope="session")
def small_solution(para201, u0zero201):
    """Cheap nonlinear run for reconstruction/diagnostic tests."""
    return solve_nonlinear(
        para201, u0zero201, PicardSettings(t_final=0.0125, dt=1e-4, n_modes=16)
    )
