"""The finite-difference oracle's own numerics against scipy's.

The oracle solves each step with a Thomas sweep and interpolates its flow
rows with a port of PCHIP, so no run imports scipy; scipy's banded solver,
on the five-band system the oracle once assembled for it, and its
PchipInterpolator are the references here.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded

from svfree.fd_oracle import _pchip, _thomas, fd_oracle_solve
from svfree.profile import sample_velocity


def _neumann_bands(inv_dt, alpha):
    """The five-band matrix (scipy's (2, 2) layout) of one step: interior
    backward-Euler rows, and the one-sided v_x = 0 rows (-3, 4, -1) at both ends."""
    n = len(inv_dt) + 2
    ab = np.zeros((5, n))
    ab[1, 2:] = -alpha[1:]
    ab[3, :-2] = -alpha[:-1]
    ab[2, 1:-1] = inv_dt + alpha[1:] + alpha[:-1]
    ab[2, 0], ab[1, 1], ab[0, 2] = -3.0, 4.0, -1.0
    ab[2, -1], ab[3, -2], ab[4, -3] = 3.0, -4.0, 1.0
    return ab


def _dense(ab):
    n = ab.shape[1]
    return sum(np.diag(ab[2 - d, max(d, 0):n + min(d, 0)], d) for d in range(-2, 3))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(5, 401),
    log_dt=st.floats(-5.0, -2.0),
    rho_wave=st.tuples(st.floats(-1.0, 1.0), st.integers(1, 4)),
    jac_wave=st.tuples(st.floats(-1.0, 1.0), st.integers(1, 4), st.floats(0.0, 6.3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_thomas_step_matches_the_banded_solve(n, log_dt, rho_wave, jac_wave, seed):
    # a vacuum profile rho0 = x(1-x) exp(b cos(k pi x)) and a flow with
    # eta_x = exp(c cos(l pi x + phase)) in [1/e, e], as the march meets them
    x = np.linspace(0.0, 1.0, n)
    h, xm = x[1], 0.5 * (x[1:] + x[:-1])
    b, k = rho_wave
    c, l, phase = jac_wave
    rho = x * (1.0 - x) * np.exp(b * np.cos(k * np.pi * x))
    rho_mid = xm * (1.0 - xm) * np.exp(b * np.cos(k * np.pi * xm))
    jac = np.exp(c * np.cos(l * np.pi * xm + phase))
    inv_dt, alpha = rho[1:-1] / 10.0**log_dt, rho_mid / (h**2 * jac**2)
    rhs = np.random.default_rng(seed).standard_normal(n - 2)

    ab, full_rhs = _neumann_bands(inv_dt, alpha), np.concatenate([[0.0], rhs, [0.0]])
    banded = solve_banded((2, 2), ab, full_rhs)
    # partial pivoting swaps the O(1) closure rows with O(1/h^2) interior rows,
    # which leaves the banded solve up to about 1e-11 off at n = 401 and
    # dt = 1e-2; one step of refinement with the same solve takes that away
    refined = banded + solve_banded((2, 2), ab, full_rhs - _dense(ab) @ banded)
    got = _thomas(inv_dt, alpha, rhs)
    scale = np.max(np.abs(refined))
    assert np.max(np.abs(got - refined)) <= 1e-12 * scale
    assert np.max(np.abs(got - banded)) <= 1e-10 * scale


def _row(kind, n, rng):
    if kind == "monotone":
        return np.cumsum(rng.uniform(0.05, 2.0, n))
    if kind == "non-monotone":
        return rng.standard_normal(n)
    row = np.round(rng.standard_normal(n))  # flat runs, and slopes that vanish on one side
    row[rng.uniform(size=n) < 0.3] = 1.0
    return row


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 401),
    kind=st.sampled_from(["monotone", "non-monotone", "partly flat"]),
    uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pchip_matches_scipy(n, kind, uniform, seed):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n) if uniform else np.cumsum(rng.uniform(0.1, 1.0, n))
    y = _row(kind, n, rng)
    # the nodes, points between them, and points past both ends
    points = np.concatenate([x, rng.uniform(x[0] - 0.1, x[-1] + 0.1, 400)])
    ref = PchipInterpolator(x, y)
    eta, eta_x = _pchip(x, y)
    for got, want in ((eta(points), ref(points)), (eta_x(points), ref.derivative()(points))):
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


def test_jacobian_extremes_cover_every_stored_row(sine201):
    # sine_compatible's problem, whose smallest Jacobian is reached on the last row
    fd = fd_oracle_solve(sine201, sample_velocity("cosine", {"amplitude": 0.5, "mode": 1}, sine201.grid),
                         0.0125, 1e-4)
    eta_x = np.diff(fd.eta, axis=1) / fd.grid.spacing
    assert (fd.eta_x_min, fd.eta_x_max) == (eta_x.min(), eta_x.max())
