"""Weighted norms, distance-weighted Sobolev checks, and interpolation identities.

All monitored estimates take the form lhs <= C * rhs with a universal constant
that the analysis never makes explicit; the checks therefore report the
empirical ratio lhs/rhs and assert only finiteness, the one ceiling
RATIO_CEILING, and stability under grid refinement. The half-interval
integration-by-parts identities behind the weighted interpolation inequality
are exact statements and are checked to quadrature tolerance. A check that
needs g_x takes the exact nodal derivative as field_x; nothing here
differences nodal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InequalityViolationError, ValidationError
from .galerkin import GalerkinBasis, project_initial
from .profile import (
    HeightProfile,
    _nodal_values,
    build_grid,
    quadrature,
    sample_height_profile,
)

__all__ = [
    "RATIO_CEILING",
    "RatioReport",
    "IdentityReport",
    "weighted_l2_norm",
    "weighted_h1_norm",
    "h_half_norm",
    "check_weighted_sobolev",
    "check_h_half_weighted",
    "check_sobolev_embedding",
    "check_interpolation_identity",
    "check_interpolation_inequality",
    "identity_family",
    "interpolation_identity_gaps",
]

# the largest empirical constant a RatioReport accepts
RATIO_CEILING = 50.0
# the most cosine modes of the spectral H^s norm (a table of _HS_MODES x n_nodes)
_HS_MODES = 129


@dataclass(frozen=True)
class RatioReport:
    lhs: float
    rhs: float
    empirical_constant: float

    def satisfied(self) -> bool:
        return self.rhs == 0.0 or self.empirical_constant <= RATIO_CEILING


def _ratio_report(lhs: float, rhs: float, vanished: str, floor=1e-14) -> RatioReport:
    """lhs/rhs as the empirical constant; a zero majorant under lhs > floor is a violation."""
    if rhs == 0.0 and lhs > floor:
        raise InequalityViolationError(vanished)
    return RatioReport(lhs, rhs, lhs / rhs if rhs > 0.0 else 0.0)


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float

    @property
    def abs_gap(self) -> float:
        return abs(self.lhs - self.rhs)


def weighted_l2_norm(f, weight_power: int, profile: HeightProfile) -> float:
    """sqrt of int rho0^k g^2."""
    vals = np.asarray(f, dtype=float)
    return math.sqrt(max(quadrature(vals * vals, weight_power, profile), 0.0))


def weighted_h1_norm(f, weight_power: int, profile: HeightProfile, field_x) -> float:
    """sqrt of int rho0^k (g^2 + g_x^2), g_x the exact nodal derivative field_x."""
    vals = np.asarray(f, dtype=float)
    grad = np.asarray(field_x, dtype=float)
    return math.sqrt(max(quadrature(vals * vals + grad * grad, weight_power, profile), 0.0))


def _hs_norm(f, profile: HeightProfile, s: float) -> float:
    """Cosine-spectral H^s norm of a nodal field: sqrt(sum (1 + (n pi)^2)^s c_n^2)."""
    grid = profile.grid
    basis = GalerkinBasis(min((grid.n_nodes - 1) // 2, _HS_MODES), grid)
    coeffs = project_initial(_nodal_values(f, grid), basis, grid)
    n = np.arange(len(coeffs))
    return math.sqrt(float(np.dot((1.0 + (n * np.pi) ** 2) ** s, coeffs**2)))


def h_half_norm(f, profile: HeightProfile) -> float:
    """The spectral half-derivative norm, the H^(1/2) norm of a nodal field."""
    return _hs_norm(f, profile, 0.5)


def check_weighted_sobolev(f, weight_power: int, profile: HeightProfile, field_x) -> RatioReport:
    """Distance-weighted Poincare-type bound: int d^k w^2 <= C int d^{k+2}(w^2 + w_x^2)."""
    if weight_power < 0:
        raise ConfigurationError("weight_power must be >= 0")
    vals = np.asarray(f, dtype=float)
    grad = np.asarray(field_x, dtype=float)
    lhs = quadrature(vals * vals, weight_power, profile)
    rhs = quadrature(vals * vals + grad * grad, weight_power + 2, profile)
    return _ratio_report(
        lhs, rhs,
        "weighted majorant vanished with nonzero minorant; the profile is "
        "degenerate beyond the admissible vacuum rate",
        floor=0.0,
    )


def check_h_half_weighted(f, profile: HeightProfile, field_x) -> RatioReport:
    """Half-derivative norm controlled by first-order distance-weighted data."""
    vals = np.asarray(f, dtype=float)
    grad = np.asarray(field_x, dtype=float)
    lhs = h_half_norm(f, profile) ** 2
    rhs = quadrature(vals * vals + grad * grad, 1, profile)
    return _ratio_report(
        lhs, rhs, "weighted majorant vanished with nonzero half-derivative norm"
    )


def check_interpolation_identity(
    f, profile: HeightProfile, field_x, weighted: bool = False, side: str = "left"
) -> IdentityReport:
    """Half-interval integration-by-parts identities for the distance weight.

    Unweighted (left half): int g^2 = 1/2 g(1/2)^2 - 2 int rho0 g g_x.
    Weighted:               int rho0 g^2 = 1/8 g(1/2)^2 - int rho0^2 g g_x.
    The right half mirrors both with the opposite boundary-term sign. Requires
    the distance profile, on which the identities are exact.
    """
    if profile.kind != "distance":
        raise ValidationError(
            "interpolation identities hold for the distance weight; got "
            f"profile kind {profile.kind!r}"
        )
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    grid = profile.grid
    mid = (grid.n_nodes - 1) // 2
    i0, i1 = (0, mid) if side == "left" else (mid, grid.n_nodes - 1)
    w = grid.subrange_weights(i0, i1)
    vals = np.asarray(f, dtype=float)
    grad = np.asarray(field_x, dtype=float)
    rho = profile.values
    g_mid_sq = vals[mid] ** 2
    sign = 1.0 if side == "left" else -1.0
    seg = slice(i0, i1 + 1)
    if not weighted:
        lhs = float(np.dot(w, vals[seg] ** 2))
        rhs = 0.5 * g_mid_sq - sign * 2.0 * float(np.dot(w, (rho * vals * grad)[seg]))
    else:
        lhs = float(np.dot(w, (rho * vals * vals)[seg]))
        rhs = 0.125 * g_mid_sq - sign * float(np.dot(w, (rho**2 * vals * grad)[seg]))
    return IdentityReport(lhs, rhs)


def check_sobolev_embedding(f, profile: HeightProfile, s: float = 0.25) -> RatioReport:
    """Fractional embedding ||w||_{L^{2/(1-2s)}} <= C ||w||_{H^s}, 0 < s < 1/2.

    The H^s norm uses the cosine-spectral symbol (1 + (n pi)^2)^s. Exercised
    at s = 1/4 (so L^4 on the left); other exponents are out of scope.
    """
    if not 0.0 < s < 0.5:
        raise ConfigurationError(f"embedding exponent must be in (0, 1/2), got {s}")
    vals = np.asarray(f, dtype=float)
    p = 2.0 / (1.0 - 2.0 * s)
    lhs = quadrature(np.abs(vals) ** p, 0, profile) ** (1.0 / p)
    return _ratio_report(lhs, _hs_norm(vals, profile, s), "spectral norm vanished with nonzero Lp norm")


def check_interpolation_inequality(f, profile: HeightProfile, field_x) -> RatioReport:
    """Plain L2 norm against the geometric mean of the weighted norms:

        ||g||_L2 <= C ||g||_{L2,rho0}^(1/2) ||g||_{H1,rho0}^(1/2).
    """
    lhs = weighted_l2_norm(f, 0, profile)
    l2w = weighted_l2_norm(f, 1, profile)
    h1w = weighted_h1_norm(f, 1, profile, field_x)
    rhs = math.sqrt(l2w) * math.sqrt(h1w)
    return _ratio_report(lhs, rhs, "weighted norms vanished with nonzero L2 norm")


def identity_family(grid) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Test family {1, x, x^2, cos(pi x), cos(3 pi x)} with exact derivatives."""
    x = grid.nodes
    return [
        ("one", np.ones_like(x), np.zeros_like(x)),
        ("x", x.copy(), np.ones_like(x)),
        ("x^2", x**2, 2 * x),
        ("cos(pi x)", np.cos(np.pi * x), -np.pi * np.sin(np.pi * x)),
        ("cos(3 pi x)", np.cos(3 * np.pi * x), -3 * np.pi * np.sin(3 * np.pi * x)),
    ]


def interpolation_identity_gaps(n_nodes: int) -> np.ndarray:
    """|lhs - rhs| of both half-interval identities over the identity family.

    Uses the distance weight on an n_nodes grid; entries alternate
    unweighted/weighted per family member.
    """
    dist = sample_height_profile("distance", {}, build_grid(n_nodes))
    return np.array([
        check_interpolation_identity(f, dist, field_x=fx, weighted=weighted).abs_gap
        for _, f, fx in identity_family(dist.grid)
        for weighted in (False, True)
    ])
