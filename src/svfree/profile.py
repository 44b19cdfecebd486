"""Reference-interval grid, vacuum height profiles and initial velocities, quadrature.

The initial height rho0 lives on the fixed reference interval [0, 1], vanishes
exactly at both endpoints, and is pinched between multiples of the boundary
distance d(x) = min(x, 1-x) with a finite nonzero one-sided slope (the
physical-vacuum condition: the squared sound speed vanishes linearly at the
boundary). Profiles carry closed-form derivatives so downstream jet formulas
never see differencing noise: the built-in kinds in numpy, and a ``custom``
expression through sympy, which only that kind imports.
"""

from __future__ import annotations

import ast
import decimal
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from ._series import N_TERMS

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


# the grammar of a closed-form `expr` string: numbers, x, pi, E, calls of the
# functions below, unary +/- and + - * / **; each operator acts on floats and
# sympy objects alike
_NAME_VALUES = {"x": None, "pi": math.pi, "E": math.e}
_EXPR_FUNCTIONS = frozenset("sin cos tan asin acos atan sinh cosh tanh exp log sqrt".split())
_EXPR_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}


def _finite(value, node: ast.expr) -> float:
    """The value of node, which must be a finite real number."""
    if isinstance(value, complex) or not math.isfinite(value):
        raise ValueError(f"{ast.unparse(node)!r} is not a finite real number")
    return value


def _walk_expr(node: ast.expr, sp) -> tuple[object, float | None]:
    """The sympy expression of node, in the plain symbol x, and its float value.

    The value is None when node depends on x. A node outside the grammar
    raises ValueError. A constant subtree that is not a leaf is folded in
    float arithmetic, so an oversized constant such as 10**10**10 raises
    OverflowError here instead of asking sympy for its exact digits. Each
    number becomes what sympy's parser makes of its literal: an Integer if
    integral, else the Float of its repr.
    """
    if isinstance(node, ast.Name) and node.id in _NAME_VALUES:
        value = _NAME_VALUES[node.id]
        return (sp.Symbol("x") if value is None else getattr(sp, node.id)), value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = _finite(float(node.value), node)
        return (sp.Integer(node.value) if type(node.value) is int else sp.Float(repr(node.value))), value
    if isinstance(node, (ast.UnaryOp, ast.BinOp)) and type(node.op) in _EXPR_OPS:
        args = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
        on_sympy = on_float = _EXPR_OPS[type(node.op)]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _EXPR_FUNCTIONS and not node.keywords):
        args = node.args
        on_sympy, on_float = getattr(sp, node.func.id), getattr(math, node.func.id)
    else:
        raise ValueError(f"{ast.unparse(node)!r} is not allowed")
    walked = [_walk_expr(arg, sp) for arg in args]
    values = [value for _, value in walked]
    if None in values:
        return on_sympy(*[built for built, _ in walked]), None
    value = _finite(on_float(*values), node)
    return (sp.Integer(int(value)) if value.is_integer() else sp.Float(repr(value))), value


def _parse_expr(expr: str):
    """A sympy expression in the real symbol x.

    The string is only parsed by ast; one walk of its tree checks the
    grammar, folds constants in floating point and builds the sympy
    expression, so no text reaches sympy's parser or eval.
    """
    import sympy as sp

    if not isinstance(expr, str):
        raise ConfigurationError(f"'expr' must be a string, got {expr!r}")
    try:
        built, _ = _walk_expr(ast.parse(expr, mode="eval").body, sp)
        # built in the plain x, as sympy's parser built it: with the real x
        # from the start, sympy splits some powers differently
        return built.subs(sp.Symbol("x"), sp.Symbol("x", real=True))
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


def _not_finite(text: str, order: int, where: str) -> ConfigurationError:
    return ConfigurationError(f"'expr' {text} is not finite: its derivative of order {order} {where}")


class _ClosedForm(NamedTuple):
    """A field in closed form, named by text in error messages.

    sample(x, order) is its order-th derivative at the points x (a scalar for
    a constant); taylor(x0, n) is its one-sided derivatives of orders 0..n-1
    at the endpoint x0.
    """

    text: str
    sample: Callable[[np.ndarray, int], np.ndarray | float]
    taylor: Callable[[float, int], np.ndarray]


class _Custom:
    """A custom expression: sympy parses it once and differentiates it on demand."""

    def __init__(self, expr: str):
        self.expr = _parse_expr(expr)
        self.text = repr(expr)  # the config text, which sympy may have reduced
        self._fn_cache: dict[int, object] = {}

    def _callable(self, order: int):
        fn = self._fn_cache.get(order)
        if fn is None:
            import sympy as sp

            d = sp.diff(self.expr, sp.Symbol("x", real=True), order)
            if d.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
                raise _not_finite(self.text, order, f"(it is {d})")
            # the numpy namespace as a module object, not "numpy", which star-imports it
            fn = sp.lambdify(sp.Symbol("x", real=True), d, [np])
            self._fn_cache[order] = fn
        return fn

    def sample(self, x: np.ndarray, order: int):
        try:
            return self._callable(order)(x)
        except NameError as exc:  # a sympy function numpy lacks, such as DiracDelta
            what = f"'expr' {self.text}: numpy cannot evaluate its derivative of order {order}"
            raise ConfigurationError(f"{what} ({exc})") from None

    def taylor(self, x0: float, n: int) -> np.ndarray:
        import sympy as sp

        x = sp.Symbol("x", real=True)
        derivs = []
        d = self.expr
        for _ in range(n):
            try:
                derivs.append(float(d.subs(x, sp.Rational(x0))))
            except (TypeError, ValueError):  # complex infinity, or not a number
                derivs.append(math.nan)
            if not math.isfinite(derivs[-1]):
                break
            d = sp.diff(d, x)
        return np.asarray(derivs)


# pi to 60 digits: the endpoint data of the trig kinds round c*pi**k once, as
# sympy's evaluation of the exact derivative does; math.pi**k, the power of a
# rounded pi, misses that by an ulp (31.006276680299816 for 31.00627668029982
# at k=3)
_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_WIDE = decimal.Context(prec=60)
# how lambdify printed a 53-bit sympy Float into the source it compiled: cut
# to 18 digits, then rounded half up to 15
_CUT = decimal.Context(prec=18, rounding=decimal.ROUND_DOWN)
_PRINTED = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_UP)


def _printed(c: float) -> float:
    return float(_PRINTED.plus(_CUT.plus(decimal.Decimal(c))))


def _parabola(a: float) -> _ClosedForm:
    """a*x*(1-x); at the nodes in the arithmetic of its printed derivatives a*x*(1 - x), a - 2a*x, -2a."""
    a_p, two_a = _printed(a), _printed(2.0 * a)

    def sample(x, order):
        if order == 0:
            return a_p * x * (1 - x)
        if order == 1:
            return a_p - two_a * x
        return -two_a if order == 2 else 0.0

    def taylor(x0, n):
        out = np.zeros(max(n, 3))
        out[1:3] = (a if x0 == 0.0 else -a), -2.0 * a
        return out[:n]

    return _ClosedForm(f"{a!r}*x*(1 - x)", sample, taylor)


def _trig(a: float, m: int, phase: int) -> _ClosedForm:
    """a*sin(m*pi*x) (phase 0) or a*cos(m*pi*x) (phase 1), a != 0.

    The k-th derivative is c_k*pi**k times +-sin or +-cos of m*pi*x. At the
    nodes c_k is a*m**k, printed as lambdify printed it; at the endpoints it
    is folded one order at a time, as repeated differentiation does.
    """

    def turn(k):  # (sign, is_cos) of the k-th derivative in the cycle sin, cos, -sin, -cos
        quarter = (phase + k) % 4
        return (-1.0 if quarter >= 2 else 1.0), quarter % 2

    def sample(x, order):
        sign, is_cos = turn(order)
        c = sign * _printed(a * m**order) * math.pi**order
        return c * (np.cos if is_cos else np.sin)(m * math.pi * x)

    def taylor(x0, n):
        out = np.zeros(n)
        c = a
        for k in range(n):
            sign, is_cos = turn(k)
            if is_cos:  # sin(m*pi*x0) = 0 at either endpoint; cos is +-1
                end = -sign if x0 == 1.0 and m % 2 else sign
                out[k] = float(_WIDE.multiply(decimal.Decimal(end * c), _WIDE.power(_PI, k)))
            c *= m
        return out

    return _ClosedForm(f"{a!r}*{('sin', 'cos')[phase]}({m}*pi*x)", sample, taylor)


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

    expr is a built-in kind's _ClosedForm, or the config text of a custom
    expression in x. A derivative that is not finite at a grid node or an
    endpoint is a ConfigurationError naming 'expr'.
    """

    def __init__(self, expr, grid: Grid, kind: str = "custom"):
        self._form = expr if isinstance(expr, _ClosedForm) else _Custom(expr)
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
                raise _not_finite(self._form.text, order, "at a grid node")
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
        # a custom form stops at its first non-finite order, which it keeps
        bad = np.flatnonzero(~np.isfinite(cached[:n]))
        if bad.size:
            raise _not_finite(self._form.text, int(bad[0]), f"at x={x0:g}")
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
    min(x, 1-x); ``custom`` with a closed-form ``expr`` in x.
    """
    if kind in ("parabolic", "sine"):
        what = f"{kind} profile"
        a = _number_param(_known_params(params, what, "amplitude"), what, "amplitude", 1.0)
        if a <= 0:
            raise ValidationError(f"{what} needs amplitude > 0")
        if kind == "parabolic":
            profile = HeightProfile(kind, _parabola(a), grid, c1=a / 2.0, c2=a)
        else:
            profile = HeightProfile(kind, _trig(a, 1, 0), grid, c1=2.0 * a, c2=a * math.pi)
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
    """Build an initial velocity with endpoint-Neumann compatibility u0_x = 0."""
    if kind == "zero":
        _known_params(params, "zero velocity")
        return AnalyticField(_ZERO, grid, kind)
    if kind == "cosine":
        params = _known_params(params, "cosine velocity", "amplitude", "mode")
        a = _number_param(params, "cosine velocity", "amplitude", 1.0)
        m = params.get("mode", 1)
        if not _is_int(m) or m < 1:
            raise ValidationError(f"cosine velocity needs an integer 'mode' >= 1, got {m!r}")
        u0 = AnalyticField(_trig(a, m, 1) if a else _ZERO, grid, kind)
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
