import math

import numpy as np
import pytest

from svfree.errors import ConfigurationError, ValidationError
from svfree.profile import build_grid, sample_height_profile
from svfree.weighted_calculus import (
    check_h_half_weighted,
    check_interpolation_identity,
    check_interpolation_inequality,
    check_weighted_sobolev,
    h_half_norm,
    weighted_h1_norm,
    weighted_l2_norm,
)


def _smooth_random_field(grid, rng, n_modes=8):
    """A random cosine sum and its exact derivative."""
    coeffs = rng.standard_normal(n_modes)
    x = grid.nodes
    f = sum(c * np.cos(k * np.pi * x) for k, c in enumerate(coeffs))
    fx = sum(-c * k * np.pi * np.sin(k * np.pi * x) for k, c in enumerate(coeffs))
    return f, fx


class TestNorms:
    def test_l2_zero(self, para401):
        assert weighted_l2_norm(np.zeros(401), 1, para401) == 0.0

    def test_l2_unit_weighted(self, para401):
        assert weighted_l2_norm(np.ones(401), 1, para401) == pytest.approx(
            math.sqrt(1.0 / 6.0), abs=1e-13
        )

    def test_l2_unweighted_unit(self, para401):
        assert weighted_l2_norm(np.ones(401), 0, para401) == pytest.approx(1.0, abs=1e-14)

    def test_h1_zero(self, para401):
        assert weighted_h1_norm(np.zeros(401), 1, para401, field_x=np.zeros(401)) == 0.0

    def test_h1_constant_reduces_to_l2(self, para401):
        assert weighted_h1_norm(np.ones(401), 1, para401, field_x=np.zeros(401)) == pytest.approx(
            math.sqrt(1.0 / 6.0), abs=1e-13
        )

    def test_h1_linear_field(self, grid401, para401):
        # int x(1-x)(x^2 + 1) dx = 1/20 + 1/6, antiderivatives exact
        val = weighted_h1_norm(grid401.nodes, 1, para401, field_x=np.ones(401))
        # quartic integrand: Simpson carries an O(h^4) defect ~5e-12
        assert val == pytest.approx(math.sqrt(1.0 / 6.0 + 1.0 / 20.0), abs=1e-10)

    def test_h_half_zero(self, para401):
        assert h_half_norm(np.zeros(401), para401) == 0.0

    def test_h_half_constant_mode(self, para401):
        assert h_half_norm(np.ones(401), para401) == pytest.approx(1.0, abs=1e-10)

    def test_h_half_rejects_another_grids_nodal_array(self, para401):
        # a 201-node array is not read as 201 modal coefficients on 401 nodes
        with pytest.raises(ConfigurationError):
            h_half_norm(np.ones(201), para401)

    def test_h_half_single_cosine(self, grid401, para401):
        f = np.sqrt(2.0) * np.cos(np.pi * grid401.nodes)
        assert h_half_norm(f, para401) == pytest.approx(
            (1.0 + np.pi**2) ** 0.25, abs=1e-9
        )

    @pytest.mark.parametrize("norm_k", [0, 1, 2])
    def test_homogeneity(self, grid401, para401, norm_k):
        rng = np.random.default_rng(11)
        f, _ = _smooth_random_field(grid401, rng)
        alpha = -2.3
        a = weighted_l2_norm(alpha * f, norm_k, para401)
        b = abs(alpha) * weighted_l2_norm(f, norm_k, para401)
        assert a == pytest.approx(b, rel=1e-12)

    def test_h1_homogeneity(self, grid401, para401):
        rng = np.random.default_rng(12)
        f, fx = _smooth_random_field(grid401, rng)
        assert weighted_h1_norm(4.0 * f, 1, para401, field_x=4.0 * fx) == pytest.approx(
            4.0 * weighted_h1_norm(f, 1, para401, field_x=fx), rel=1e-12
        )

    def test_h_half_homogeneity(self, grid401, para401):
        rng = np.random.default_rng(13)
        f, _ = _smooth_random_field(grid401, rng)
        assert h_half_norm(0.5 * f, para401) == pytest.approx(
            0.5 * h_half_norm(f, para401), rel=1e-12
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_triangle_inequality_random_pairs(self, grid401, para401, seed):
        rng = np.random.default_rng(seed)
        f, fx = _smooth_random_field(grid401, rng)
        g, gx = _smooth_random_field(grid401, rng)
        for norm in (
            lambda w, wx: weighted_l2_norm(w, 1, para401),
            lambda w, wx: weighted_h1_norm(w, 1, para401, field_x=wx),
            lambda w, wx: h_half_norm(w, para401),
        ):
            assert norm(f + g, fx + gx) <= norm(f, fx) + norm(g, gx) + 1e-12


class TestWeightedSobolev:
    def test_zero_field_trivial(self, dist401):
        rep = check_weighted_sobolev(np.zeros(401), 0, dist401, field_x=np.zeros(401))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.satisfied()

    def test_unit_field_distance_weight(self, dist401):
        # lhs = 1, rhs = int d^2 = 2 int_0^{1/2} x^2 = 1/12
        rep = check_weighted_sobolev(np.ones(401), 0, dist401, field_x=np.zeros(401))
        assert rep.lhs == pytest.approx(1.0, abs=1e-14)
        assert rep.rhs == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert rep.empirical_constant == pytest.approx(12.0, rel=1e-10)

    def test_parabolic_hump_constant_below_ceiling(self, grid401, dist401):
        x = grid401.nodes
        rep = check_weighted_sobolev(x * (1 - x), 0, dist401, field_x=1 - 2 * x)
        assert rep.empirical_constant < 50.0
        assert rep.satisfied()


class TestHHalfWeighted:
    def test_zero(self, dist401):
        rep = check_h_half_weighted(np.zeros(401), dist401, field_x=np.zeros(401))
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_unit_field(self, dist401):
        # rhs = int d = 1/4
        rep = check_h_half_weighted(np.ones(401), dist401, field_x=np.zeros(401))
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.25, abs=1e-12)
        assert rep.empirical_constant == pytest.approx(4.0, rel=1e-8)

    def test_cosine_constant_refinement_stable(self):
        consts = []
        for n in (201, 401):
            grid = build_grid(n)
            dist = sample_height_profile("distance", {}, grid)
            x = grid.nodes
            f = np.sqrt(2.0) * np.cos(np.pi * x)
            fx = -np.sqrt(2.0) * np.pi * np.sin(np.pi * x)
            consts.append(check_h_half_weighted(f, dist, field_x=fx).empirical_constant)
        assert abs(consts[1] - consts[0]) < 0.01 * abs(consts[0])


class TestInterpolationIdentity:
    def test_constant_field_exact(self, dist401):
        rep = check_interpolation_identity(np.ones(401), dist401, field_x=np.zeros(401))
        assert rep.lhs == pytest.approx(0.5, abs=1e-14)
        assert rep.abs_gap < 1e-14

    def test_linear_field_closed_form(self, grid401, dist401):
        # lhs = int_0^{1/2} x^2 = 1/24; rhs = 1/8 - 2*int_0^{1/2} x^2 = 1/24
        x = grid401.nodes
        rep = check_interpolation_identity(x, dist401, field_x=np.ones(401))
        assert rep.lhs == pytest.approx(1.0 / 24.0, abs=1e-13)
        assert rep.rhs == pytest.approx(1.0 / 24.0, abs=1e-13)

    def test_weighted_identity_linear_field(self, grid401, dist401):
        # int_0^{1/2} x*x^2 = 1/64; rhs = 1/32 - int_0^{1/2} x^2*x = 1/64
        x = grid401.nodes
        rep = check_interpolation_identity(x, dist401, field_x=np.ones(401), weighted=True)
        assert rep.lhs == pytest.approx(1.0 / 64.0, abs=1e-13)
        assert rep.abs_gap < 1e-13

    def test_right_half_mirror(self, grid401, dist401):
        x = grid401.nodes
        rep = check_interpolation_identity(x, dist401, field_x=np.ones(401), side="right")
        assert rep.abs_gap < 1e-12

    def test_cosine_gap_small_on_fine_grid(self, grid401, dist401):
        x = grid401.nodes
        f = np.cos(np.pi * x)
        fx = -np.pi * np.sin(np.pi * x)
        rep = check_interpolation_identity(f, dist401, field_x=fx)
        assert rep.abs_gap <= 1e-8

    def test_gap_shrinks_at_simpson_rate(self):
        gaps = []
        for n in (101, 401):
            grid = build_grid(n)
            dist = sample_height_profile("distance", {}, grid)
            x = grid.nodes
            f = np.cos(3 * np.pi * x)
            fx = -3 * np.pi * np.sin(3 * np.pi * x)
            gaps.append(check_interpolation_identity(f, dist, field_x=fx).abs_gap)
        assert gaps[1] <= gaps[0] / 16.0

    def test_wrong_profile_kind_rejected(self, para401):
        with pytest.raises(ValidationError):
            check_interpolation_identity(np.ones(401), para401, field_x=np.zeros(401))


class TestInterpolationInequality:
    def test_zero(self, dist401):
        rep = check_interpolation_inequality(np.zeros(401), dist401, field_x=np.zeros(401))
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_unit_field_constant_two(self, dist401):
        # lhs = 1; weighted norms both sqrt(1/4), so rhs = 1/2 and the
        # empirical constant is exactly 2 (antiderivative oracle)
        rep = check_interpolation_inequality(
            np.ones(401), dist401, field_x=np.zeros(401)
        )
        assert rep.lhs == pytest.approx(1.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.5, abs=1e-13)
        assert rep.empirical_constant == pytest.approx(2.0, rel=1e-12)

    def test_high_mode_refinement_stable(self):
        consts = []
        for n in (201, 401):
            grid = build_grid(n)
            dist = sample_height_profile("distance", {}, grid)
            x = grid.nodes
            f = np.sqrt(2.0) * np.cos(3 * np.pi * x)
            fx = -np.sqrt(2.0) * 3 * np.pi * np.sin(3 * np.pi * x)
            consts.append(
                check_interpolation_inequality(f, dist, field_x=fx).empirical_constant
            )
        assert abs(consts[1] - consts[0]) < 0.01 * abs(consts[0])

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_family_constants_stable_between_grids(self, k):
        consts = []
        for n in (201, 401):
            grid = build_grid(n)
            dist = sample_height_profile("distance", {}, grid)
            x = grid.nodes
            f = np.cos(k * np.pi * x)
            fx = -k * np.pi * np.sin(k * np.pi * x)
            consts.append(check_weighted_sobolev(f, 0, dist, field_x=fx).empirical_constant)
        assert abs(consts[1] - consts[0]) <= 0.01 * max(abs(consts[0]), 1e-12)


class TestSobolevEmbedding:
    def test_constant_field(self, dist401):
        from svfree.weighted_calculus import check_sobolev_embedding

        # ||1||_{L^4} = 1, spectral norm of the constant mode = 1
        rep = check_sobolev_embedding(np.ones(401), dist401, s=0.25)
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.empirical_constant == pytest.approx(1.0, rel=1e-8)

    def test_family_below_ceiling_and_stable(self):
        from svfree.weighted_calculus import check_sobolev_embedding

        consts = []
        for n in (201, 401):
            grid = build_grid(n)
            dist = sample_height_profile("distance", {}, grid)
            x = grid.nodes
            consts.append(
                [
                    check_sobolev_embedding(f, dist, s=0.25).empirical_constant
                    for f in (np.ones(n), x, x**2, np.cos(np.pi * x), np.cos(3 * np.pi * x))
                ]
            )
        for a, b in zip(*consts):
            assert b <= 50.0
            assert abs(a - b) <= 0.01 * max(abs(a), 1e-12)

    def test_bad_exponent(self, dist401):
        from svfree.errors import ConfigurationError
        from svfree.weighted_calculus import check_sobolev_embedding

        with pytest.raises(ConfigurationError):
            check_sobolev_embedding(np.ones(401), dist401, s=0.5)


class TestConstantStabilityFullFamily:
    def test_all_ratio_checks_stable_under_refinement(self):
        """Empirical constants vary < 1% between n=201 and n=401 for the
        family {1, x, x^2, cos(n pi x): n <= 8} in every ratio check."""
        from svfree.weighted_calculus import check_sobolev_embedding

        def family(grid):
            x = grid.nodes
            out = [
                (np.ones_like(x), np.zeros_like(x)),
                (x.copy(), np.ones_like(x)),
                (x**2, 2 * x),
            ]
            for k in range(1, 9):
                out.append((np.cos(k * np.pi * x), -k * np.pi * np.sin(k * np.pi * x)))
            return out

        constants = {}
        for n in (201, 401):
            grid = build_grid(n)
            dist = sample_height_profile("distance", {}, grid)
            rows = []
            for f, fx in family(grid):
                rows.append(
                    (
                        check_weighted_sobolev(f, 0, dist, field_x=fx).empirical_constant,
                        check_h_half_weighted(f, dist, field_x=fx).empirical_constant,
                        check_interpolation_inequality(f, dist, field_x=fx).empirical_constant,
                        check_sobolev_embedding(f, dist, s=0.25).empirical_constant,
                    )
                )
            constants[n] = np.array(rows)
        coarse, fine = constants[201], constants[401]
        rel = np.abs(fine - coarse) / np.maximum(np.abs(coarse), 1e-12)
        assert np.max(rel) < 0.01


def test_inequality_violation_surfaced(grid401, dist401):
    from svfree.errors import InequalityViolationError
    from svfree.weighted_calculus import check_weighted_sobolev

    # boundary-supported field with a forced zero gradient: the weighted
    # majorant vanishes while the unweighted side keeps the endpoint spike
    w = np.zeros(401)
    w[0] = 1.0
    with pytest.raises(InequalityViolationError):
        check_weighted_sobolev(w, 0, dist401, field_x=np.zeros(401))
