"""Reference-interval grid, vacuum height profiles and initial velocities, quadrature.

The initial height rho0 lives on the fixed reference interval [0, 1], vanishes
exactly at both endpoints, and is pinched between multiples of the boundary
distance d(x) = min(x, 1-x) with a finite nonzero one-sided slope (the
physical-vacuum condition: the squared sound speed vanishes linearly at the
boundary). Profiles carry closed-form derivatives so downstream jet formulas
never see differencing noise: each smooth kind, built-in or ``custom``, is an
expression in x whose derivatives come from truncated Taylor arithmetic
(``svfree._series.TaylorSeries``).
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from ._series import _VALUATION_DUST, N_TERMS, TaylorSeries

__all__ = [
    "Grid",
    "HeightProfile",
    "AnalyticField",
    "build_grid",
    "simpson_weights",
    "sample_height_profile",
    "sample_velocity",
    "quadrature",
]

_ZERO_SNAP = 1e-12

# the energy monitor reads x-derivative orders 0.._DEPTH-1 of each field, and
# at an endpoint the one-sided orders that fill the N_TERMS-term series of each
_DEPTH = 7
_ENDPOINT_ORDERS = _DEPTH - 1 + N_TERMS


def _zero_tolerance(vals: np.ndarray) -> float:
    """Rounding dust of a boundary value, relative to the height's scale."""
    return _ZERO_SNAP * max(1.0, float(np.max(np.abs(vals))))


# the grammar of a closed-form `expr` string: numbers, x, pi, E, calls of
# the functions below on one argument, unary +/- and + - * / **; a constant
# is a float and x is its Taylor series (x0, 1, 0, ...) about the points x0
_NAME_VALUES = {"x": lambda xs: xs, "pi": math.pi, "E": math.e}
_FLOAT_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}


class _Pole(ArithmeticError):
    """A divisor, or the base of a log, root or non-integer power, vanishes where args[0] is true."""


def _regular(base):
    """base, a float or series, unless its constant term is dust next to its first-order term."""
    c0, c1 = (base, 0.0) if isinstance(base, float) else base.terms[:2]
    pole = np.abs(c0) <= _VALUATION_DUST * np.abs(c1)
    if np.any(pole):
        raise _Pole(pole)
    return base


def _exponent(u):
    """v if u is a series made as exp(v), else None.

    A product, quotient, power or log of such series is taken from v, as
    sympy rewrites them: the recurrences on exp(v)'s own terms lose digits
    that v keeps (1e-9 of the order-16 derivative of exp(x)**0.5 at 0).
    """
    return getattr(u, "exponent", None)


def _product(a, b):
    va, vb = _exponent(a), _exponent(b)
    return a * b if va is None or vb is None else (va + vb).exp()


def _quotient(a, b):
    va, vb = _exponent(a), _exponent(b)
    if vb is None:
        return a / _regular(b)
    return a * (-vb).exp() if va is None else (va - vb).exp()


def _power(base, exponent):
    """base**exponent; an integer-valued float exponent is an integer power, regular at 0.

    u**w for a series w is u**w0 exp((w - w0) log u): the power recurrence
    takes the part close to a polynomial, which exp alone reaches by cancellation.
    """
    if _exponent(base) is not None:
        return (_exponent(base) * exponent).exp()
    if isinstance(exponent, float):
        if exponent.is_integer():
            return (base if exponent >= 0 else _regular(base)) ** int(exponent)
        return _regular(base).power(exponent)
    if isinstance(base, float) and base > 0.0:
        return (exponent * math.log(base)).exp()
    base, w0 = _regular(base + 0.0 * exponent), exponent.terms[0]
    return base.power(w0) * (TaylorSeries((0.0 * w0, *exponent.terms[1:])) * _log(base)).exp()


def _integrated(f, rate):
    """f(u), whose derivative is u' rate(u), as that series integrated from f(u0)."""
    return lambda u: (u.derivative(1) * rate(u)).integral(f(u.terms[0]))


_log = _integrated(np.log, lambda u: 1.0 / _regular(u))


def _tanh(u):
    """s (1 - e)/(1 + e) for e = exp(-2 s u) and s the sign of u0.

    e cannot overflow, and the quotient keeps tanh's slope where tanh rounds to 1.
    """
    s = np.where(u.terms[0] < 0.0, -1.0, 1.0)
    e = TaylorSeries(-2.0 * s * c for c in u.terms).exp()
    return TaylorSeries((np.tanh(u.terms[0]), *(s * c for c in ((1.0 - e) / (1.0 + e)).terms[1:])))


_SERIES_OPS = {
    **_FLOAT_OPS, ast.Mult: _product, ast.Div: _quotient, ast.Pow: _power, ast.UAdd: lambda u: u,
}
_SERIES_FUNCTIONS = {
    "sin": lambda u: u.sin_cos()[0],
    "cos": lambda u: u.sin_cos()[1],
    "tan": lambda u: _quotient(*u.sin_cos()),
    "asin": _integrated(np.arcsin, lambda u: _power(1.0 - u * u, -0.5)),
    "acos": _integrated(np.arccos, lambda u: -_power(1.0 - u * u, -0.5)),
    "atan": _integrated(np.arctan, lambda u: 1.0 / (1.0 + u * u)),
    "sinh": lambda u: (u.exp() - (-u).exp()) * 0.5,
    "cosh": lambda u: (u.exp() + (-u).exp()) * 0.5,
    "tanh": _tanh,
    "exp": TaylorSeries.exp,
    "log": lambda u: _exponent(u) or _log(u),
    "sqrt": lambda u: _power(u, 0.5),
}


def _finite(value, node: ast.expr) -> float:
    """The value of node, which must be a finite real number."""
    if isinstance(value, complex) or not math.isfinite(value):
        raise ValueError(f"{ast.unparse(node)!r} is not a finite real number")
    return value


def _walk_expr(node: ast.expr):
    """node as a float if it is constant, else as a function of the Taylor series of x.

    A node outside the grammar raises ValueError. A constant subtree is
    folded in float arithmetic, so an oversized constant such as 10**10**10
    raises OverflowError here. The function evaluates the rest on series and
    floats, and raises _Pole where a divisor or a base vanishes.
    """
    if isinstance(node, ast.Name) and node.id in _NAME_VALUES:
        return _NAME_VALUES[node.id]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _finite(float(node.value), node)
    if isinstance(node, (ast.UnaryOp, ast.BinOp)) and type(node.op) in _FLOAT_OPS:
        args = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
        on_float, on_series = _FLOAT_OPS[type(node.op)], _SERIES_OPS[type(node.op)]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _SERIES_FUNCTIONS and len(node.args) == 1 and not node.keywords):
        args = node.args
        on_float, on_series = getattr(math, node.func.id), _SERIES_FUNCTIONS[node.func.id]
    else:
        raise ValueError(f"{ast.unparse(node)!r} is not allowed")
    walked = [_walk_expr(arg) for arg in args]
    if not any(map(callable, walked)):
        return _finite(on_float(*walked), node)
    return lambda xs: on_series(*[w(xs) if callable(w) else w for w in walked])


def _parse_expr(expr: str):
    """expr as a function of the Taylor series of x (see _walk_expr), a constant's too.

    The string is only parsed by ast, so no text reaches eval.
    """
    if not isinstance(expr, str):
        raise ConfigurationError(f"'expr' must be a string, got {expr!r}")
    try:
        walked = _walk_expr(ast.parse(expr, mode="eval").body)
        return walked if callable(walked) else lambda xs: 0.0 * xs + walked
    except (SyntaxError, ValueError, TypeError, ArithmeticError, RecursionError) as exc:
        raise ConfigurationError(f"'expr' {expr!r} is not a closed form in x: {exc}") from None


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with an odd node count (composite Simpson)."""

    n_nodes: int
    nodes: np.ndarray
    spacing: float
    simpson_weights: np.ndarray

    def subrange_weights(self, i0: int, i1: int) -> np.ndarray:
        """Simpson weights for the node range [i0, i1] (inclusive, even span)."""
        if (i1 - i0) % 2 != 0 or i1 <= i0:
            raise ConfigurationError(
                f"Simpson subrange [{i0}, {i1}] must span an even number of panels"
            )
        return simpson_weights(i1 - i0 + 1, self.spacing)


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n equally spaced samples (n odd) of spacing h."""
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def build_grid(n_nodes: int) -> Grid:
    if n_nodes < 5 or n_nodes % 2 == 0:
        raise ConfigurationError(
            f"n_nodes must be odd and >= 5 for composite Simpson, got {n_nodes}"
        )
    h = 1.0 / (n_nodes - 1)
    return Grid(n_nodes, np.linspace(0.0, 1.0, n_nodes), h, simpson_weights(n_nodes, h))


def _not_finite(text: str, what: str) -> ConfigurationError:
    return ConfigurationError(f"'expr' {text} is not finite: {what}")


class _ClosedForm(NamedTuple):
    """A field in closed form, named by text in error messages.

    sample(x, order) is its order-th derivative at the points x (a scalar for
    a constant); taylor(x0, n) is its one-sided derivatives of orders 0..n-1
    at the endpoint x0 (for an expression in x, its derivatives at any points
    x0). _custom builds every smooth field, built-in kinds included; the zero
    field and the boundary distance, which is not smooth, are written out.
    """

    text: str
    sample: Callable[[np.ndarray, int], np.ndarray | float]
    taylor: Callable[[float, int], np.ndarray]


def _custom(expr) -> _ClosedForm:
    """An expression in x: its derivatives are the terms of its Taylor series times k!."""
    fn, text = _parse_expr(expr), repr(expr)

    def derivatives(x, n):
        """Orders 0..n-1 at the points x, in their dtype; two terms at least, for the pole rule."""
        x = np.asarray(x)
        seed = TaylorSeries([x, np.ones_like(x), *[np.zeros_like(x)] * (max(n, 2) - 2)])
        try:
            with np.errstate(all="ignore"):
                terms = fn(seed).terms
        except _Pole as pole:
            at, mask = np.broadcast_arrays(x, pole.args[0])
            where = f"a divisor, or the base of a log, root or power, vanishes at x={at[mask][0]:g}"
            raise _not_finite(text, where) from None
        except RecursionError:  # its evaluation nests deeper than its walk
            raise ConfigurationError(f"'expr' {text} is nested too deeply to evaluate") from None
        return [c * math.factorial(k) for k, c in enumerate(terms[:n])]

    return _ClosedForm(text, lambda x, order: derivatives(x, order + 1)[order],
                       lambda x0, n: np.array(derivatives(x0, n)))


def _distance(x, order):
    if order == 0:
        return np.minimum(x, 1.0 - x)
    if order == 1:
        return np.where(np.isclose(x, 0.5), 0.0, np.where(x < 0.5, 1.0, -1.0))
    return 0.0


def _distance_taylor(x0, n):
    out = np.zeros(max(n, 2))
    out[1] = 1.0 if x0 == 0.0 else -1.0
    return out[:n]


_ZERO = _ClosedForm("0", lambda x, order: 0.0, lambda x0, n: np.zeros(n))
# the boundary distance: not smooth at the midpoint, so it serves the
# weighted-norm identity checks, never the solver
_DISTANCE = _ClosedForm("min(x, 1 - x)", _distance, _distance_taylor)


class AnalyticField:
    """Scalar on the grid with exact derivatives of any order: a velocity, test field or height.

    expr is the text of an expression in x (a custom kind's config text, or
    a smooth built-in kind's), or the zero or distance _ClosedForm. A
    derivative that is not finite at a grid node or an endpoint is a
    ConfigurationError naming 'expr'.
    """

    def __init__(self, expr, grid: Grid, kind: str = "custom"):
        self._form = expr if isinstance(expr, _ClosedForm) else _custom(expr)
        self.grid = grid
        self.kind = kind
        self._deriv_cache: dict[int, np.ndarray] = {}
        self._taylor_cache: dict[float, np.ndarray] = {}

    def sample(self, x, order: int = 0) -> np.ndarray:
        """Evaluate the order-th derivative at arbitrary points."""
        x = np.asarray(x, dtype=float)
        vals = np.asarray(self._form.sample(x, order), dtype=float)
        if vals.ndim == 0:
            vals = np.full(x.shape, float(vals))
        return vals

    def derivative_values(self, order: int) -> np.ndarray:
        cached = self._deriv_cache.get(order)
        if cached is None:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                cached = self.sample(self.grid.nodes, order)
            if not np.all(np.isfinite(cached)):
                raise _not_finite(self._form.text, f"its derivative of order {order} at a grid node")
            self._deriv_cache[order] = cached
        return cached

    @property
    def values(self) -> np.ndarray:
        return self.derivative_values(0)

    def endpoint_derivatives(self, x0: float, n: int = N_TERMS) -> np.ndarray:
        """One-sided derivatives of orders 0..n-1 (n <= _ENDPOINT_ORDERS) at the endpoint x0, unsnapped.

        The first call at x0 computes all _ENDPOINT_ORDERS; a call checks the
        n it returns. Dust in a denominator is left to the endpoint series.
        """
        cached = self._taylor_cache.get(x0)
        if cached is None:
            cached = self._taylor_cache[x0] = self._form.taylor(x0, _ENDPOINT_ORDERS)
        bad = np.flatnonzero(~np.isfinite(cached[:n]))
        if bad.size:
            raise _not_finite(self._form.text, f"its derivative of order {bad[0]} at x={x0:g}")
        return cached[:n]


class HeightProfile(AnalyticField):
    """Initial height rho0 with its vacuum-rate constants c1, c2."""

    def __init__(self, kind, expr, grid, c1, c2):
        super().__init__(expr, grid, kind)
        self.c1 = float(c1)
        self.c2 = float(c2)
        vals = self.derivative_values(0)
        # snap rounding dust; a real boundary value stays for the validator to reject
        tol = _zero_tolerance(vals)
        for i in (0, -1):
            if abs(vals[i]) <= tol:
                vals[i] = 0.0

    def weight_values(self, power: int) -> np.ndarray:
        if power == 0:
            return np.ones(self.grid.n_nodes)
        return self.values**power


def _check_vanishes_on_boundary_only(vals: np.ndarray) -> None:
    tol = _zero_tolerance(vals)
    if abs(vals[0]) > tol or abs(vals[-1]) > tol:
        raise ValidationError("height profile must vanish exactly on the boundary")
    if np.any(vals[1:-1] <= 0.0):
        raise ValidationError("height profile must be strictly positive inside")


def _validate_vacuum_profile(profile: HeightProfile) -> None:
    grid = profile.grid
    vals = profile.values
    _check_vanishes_on_boundary_only(vals)
    d1 = profile.derivative_values(1)
    for idx, name in ((0, "left"), (-1, "right")):
        if not (1e-10 < abs(d1[idx]) < math.inf):
            raise ValidationError(
                f"height profile needs a finite nonzero {name} endpoint slope "
                "(physical vacuum requires the squared sound speed to vanish "
                "linearly at the boundary)"
            )
    d = _distance(grid.nodes, 0)
    interior = slice(1, -1)
    lo = profile.c1 * d[interior] - 1e-12
    hi = profile.c2 * d[interior] + 1e-12
    if np.any(vals[interior] < lo) or np.any(vals[interior] > hi):
        raise ValidationError(
            "height profile violates the two-sided distance bound "
            f"c1*d <= rho0 <= c2*d with c1={profile.c1}, c2={profile.c2}"
        )


def _check_neumann(u0: AnalyticField) -> np.ndarray:
    """u0_x at the nodes, checked to vanish at both ends to 1e-10 of its scale."""
    d1 = u0.derivative_values(1)
    scale = max(float(np.max(np.abs(d1))), 1.0)
    if abs(d1[0]) > 1e-10 * scale or abs(d1[-1]) > 1e-10 * scale:
        raise ValidationError("initial velocity must satisfy the endpoint condition u0_x = 0")
    return d1


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass in Python but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite JSON number, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _known_params(params: dict | None, what: str, *allowed: str) -> dict:
    """A copy of params, which may hold only the allowed keys."""
    params = dict(params or {})
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{what} got unknown key(s) {unknown}; it takes {sorted(allowed)}")
    return params


def _number_param(params: dict, what: str, key: str, default: float) -> float:
    value = params.get(key, default)
    if not _is_real(value):
        raise ValidationError(f"{what} '{key}' must be a finite number, got {value!r}")
    return float(value)


def sample_height_profile(kind: str, params: dict | None, grid: Grid) -> HeightProfile:
    """Build and validate an initial height profile.

    kinds: ``parabolic`` a*x*(1-x); ``sine`` a*sin(pi*x); ``distance``
    min(x, 1-x); ``custom`` with a closed-form ``expr`` in x. The parabola
    (expanded, as a*x - a*x**2) and the sine are built from their text as a
    custom expr is; their c1, c2 are known in closed form.
    """
    if kind in ("parabolic", "sine"):
        what = f"{kind} profile"
        a = _number_param(_known_params(params, what, "amplitude"), what, "amplitude", 1.0)
        if a <= 0:
            raise ValidationError(f"{what} needs amplitude > 0")
        if kind == "parabolic":
            profile = HeightProfile(kind, f"{a!r}*x - {a!r}*x**2", grid, c1=a / 2.0, c2=a)
        else:
            profile = HeightProfile(kind, f"{a!r}*sin(pi*x)", grid, c1=2.0 * a, c2=a * math.pi)
    elif kind == "distance":
        _known_params(params, "distance profile")
        return HeightProfile(kind, _DISTANCE, grid, c1=1.0, c2=1.0)
    elif kind == "custom":
        params = _known_params(params, "custom profile", "expr")
        if "expr" not in params:
            raise ConfigurationError("custom profile needs an 'expr' entry")
        # c1 and c2 are read off the built profile, so the expression is parsed once
        profile = HeightProfile("custom", params["expr"], grid, c1=math.nan, c2=math.nan)
        vals = profile.values
        _check_vanishes_on_boundary_only(vals)
        d = _distance(grid.nodes, 0)
        ratio = vals[1:-1] / d[1:-1]
        d1 = profile.derivative_values(1)
        slopes = [abs(d1[0]), abs(d1[-1])]
        c1 = min(float(np.min(ratio)), *slopes)
        c2 = max(float(np.max(ratio)), *slopes)
        if not (c1 > 1e-10 and np.isfinite(c2)):
            raise ValidationError(
                "custom profile violates the physical vacuum condition "
                "(vanishing or unbounded slope at an endpoint)"
            )
        profile.c1, profile.c2 = c1, c2
    else:
        raise ConfigurationError(f"unknown profile kind {kind!r}")
    _validate_vacuum_profile(profile)
    return profile


def sample_velocity(kind: str, params: dict | None, grid: Grid) -> AnalyticField:
    """Build an initial velocity with endpoint-Neumann compatibility u0_x = 0.

    kinds: ``zero``; ``cosine`` a*cos(m*pi*x), built from that text as a
    custom expr is; ``custom`` with a closed-form ``expr`` in x.
    """
    if kind == "zero":
        _known_params(params, "zero velocity")
        return AnalyticField(_ZERO, grid, kind)
    if kind == "cosine":
        params = _known_params(params, "cosine velocity", "amplitude", "mode")
        a = _number_param(params, "cosine velocity", "amplitude", 1.0)
        m = params.get("mode", 1)
        if not _is_int(m) or m < 1:
            raise ValidationError(f"cosine velocity needs an integer 'mode' >= 1, got {m!r}")
        u0 = AnalyticField(f"{a!r}*cos({m}*pi*x)" if a else _ZERO, grid, kind)
    elif kind == "custom":
        params = _known_params(params, "custom velocity", "expr")
        if "expr" not in params:
            raise ConfigurationError("custom velocity needs an 'expr' entry")
        u0 = AnalyticField(params["expr"], grid, kind)
    else:
        raise ConfigurationError(f"unknown velocity kind {kind!r}")
    d1 = _check_neumann(u0)
    d1[0] = 0.0
    d1[-1] = 0.0
    return u0


def _nodal_values(f, grid: Grid) -> np.ndarray:
    """f as a float array of one value per node of grid."""
    vals = np.asarray(f, dtype=float)
    if vals.shape != (grid.n_nodes,):
        raise ConfigurationError(
            f"field length {vals.shape} does not match grid n_nodes={grid.n_nodes}"
        )
    return vals


def quadrature(f, weight_power: int, profile: HeightProfile) -> float:
    """Composite Simpson value of the weighted integral of rho0^k * f on [0, 1].

    Exact (to rounding) for integrands that are cubic on each two-panel cell.
    """
    if not 0 <= weight_power <= 6:
        raise ConfigurationError(f"weight_power must be in 0..6, got {weight_power}")
    vals = _nodal_values(f, profile.grid)
    return float(np.dot(profile.grid.simpson_weights, profile.weight_values(weight_power) * vals))
