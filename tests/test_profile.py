import ast
import math
import operator
import tokenize
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from svfree.errors import ConfigurationError, ValidationError
from svfree.galerkin import GalerkinBasis
from svfree.profile import (
    HeightProfile,
    _parse_expr,
    _validate_vacuum_profile,
    build_grid,
    quadrature,
    sample_height_profile,
    sample_velocity,
)


class TestBuildGrid:
    def test_five_nodes_is_quarter_partition(self):
        grid = build_grid(5)
        assert np.array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_even_count_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(4)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(3)

    def test_401_spacing(self):
        grid = build_grid(401)
        assert grid.spacing == pytest.approx(1.0 / 400.0, abs=0)
        assert np.max(np.abs(np.diff(grid.nodes) - grid.spacing)) < 1e-15

    def test_simpson_weights_sum_to_one(self):
        grid = build_grid(41)
        assert np.sum(grid.simpson_weights) == pytest.approx(1.0, abs=1e-14)


class TestHeightProfiles:
    def test_parabolic_peak(self, grid401, para401):
        mid = (grid401.n_nodes - 1) // 2
        assert para401.values[mid] == pytest.approx(0.25, abs=0)

    def test_parabolic_integral_exact_antiderivative(self, para401):
        # Simpson is exact on the quadratic x(1-x); oracle x^2/2 - x^3/3 at 1
        total = quadrature(np.ones(401), 1, para401)
        assert total == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_vacuum_rate_constants(self, para401, sine201):
        assert (para401.c1, para401.c2) == (0.5, 1.0)
        assert sine201.c1 == pytest.approx(2.0)
        assert sine201.c2 == pytest.approx(np.pi)

    @pytest.mark.parametrize("kind,params", [
        ("parabolic", {"amplitude": 1.0}),
        ("parabolic", {"amplitude": 2.5}),
        ("sine", {"amplitude": 0.7}),
        ("custom", {"expr": "x*(1-x)*(1 + x/2)"}),
    ])
    def test_two_sided_distance_bound_at_every_node(self, kind, params):
        grid = build_grid(201)
        p = sample_height_profile(kind, params, grid)
        d = np.minimum(grid.nodes, 1.0 - grid.nodes)
        assert np.all(p.values[1:-1] >= p.c1 * d[1:-1] - 1e-12)
        assert np.all(p.values[1:-1] <= p.c2 * d[1:-1] + 1e-12)
        assert p.values[0] == 0.0 and p.values[-1] == 0.0

    def test_vanishing_endpoint_slope_rejected(self, grid201):
        with pytest.raises(ValidationError):
            sample_height_profile("custom", {"expr": "x**2*(1-x)**2"}, grid201)

    @pytest.mark.parametrize("amplitude", [8200.0, 1e6])
    def test_large_sine_amplitude_vanishes_exactly(self, grid201, amplitude):
        # a*sin(pi) is about 1.2e-16*a: dust relative to the height, not a boundary value
        p = sample_height_profile("sine", {"amplitude": amplitude}, grid201)
        assert p.values[0] == 0.0 and p.values[-1] == 0.0

    def test_nonvanishing_boundary_rejected(self, grid201):
        with pytest.raises(ValidationError):
            sample_height_profile("custom", {"expr": "x*(1-x) + 1/10"}, grid201)

    def test_unknown_kind(self, grid201):
        with pytest.raises(ConfigurationError):
            sample_height_profile("gaussian", {}, grid201)

    def test_custom_expression_parsed_and_compiled_once(self, grid201):
        with mock.patch("svfree.profile._parse_expr", wraps=_parse_expr) as parse, \
                mock.patch.object(sp, "lambdify", wraps=sp.lambdify) as lambdify:
            sample_height_profile("custom", {"expr": "x*(1-x)*(1 + x/2)"}, grid201)
        assert parse.call_count == 1
        assert lambdify.call_count == 2  # the values and the slopes

    def test_hand_built_nonvanishing_boundary_fails_validator(self, grid201):
        # the endpoint snap only removes rounding dust, not a real boundary value
        lifted = HeightProfile("custom", "x*(1-x) + 1/10", grid201, c1=0.1, c2=1.0)
        assert lifted.values[0] == pytest.approx(0.1) and lifted.values[-1] == pytest.approx(0.1)
        with pytest.raises(ValidationError, match="vanish"):
            _validate_vacuum_profile(lifted)

    @pytest.mark.parametrize("kind,params", [
        ("parabolic", {"amplitude": 1.0, "amplitud": 5.0}),
        ("sine", {"scale": 2.0}),
        ("distance", {"amplitude": 1.0}),
        ("custom", {"expr": "x*(1-x)", "amplitude": 2.0}),
    ])
    def test_unknown_key_rejected(self, grid201, kind, params):
        with pytest.raises(ConfigurationError, match="unknown key"):
            sample_height_profile(kind, params, grid201)

    def test_endpoint_derivatives_exact(self, para401):
        left = para401.endpoint_derivatives(0.0, 4)
        assert left[0] == 0.0
        assert left[1] == pytest.approx(1.0)
        assert left[2] == pytest.approx(-2.0)

    def test_distance_profile(self, dist401, grid401):
        d = np.minimum(grid401.nodes, 1.0 - grid401.nodes)
        assert np.array_equal(dist401.values, d)
        assert (dist401.c1, dist401.c2) == (1.0, 1.0)


CLOSED_FORMS = [
    "x*(1-x)*(1 + x/2)", "x**2*(1-x)**2", "x*(1-x) + 1/10", "1", "x", "cos(pi*x)**2",
    "-x + E", "+2.5e-1*sqrt(x)*exp(-x)", "log(1 + x) - tanh(x)/3",
]
NOT_CLOSED_FORMS = [
    "__import__('os')", "x*(1-x", "os.system", "sin", "x^2", "1j", "'x'", "True",
    "lambda: x", "x if x else 1", "[x]", "x.real", "sin(x=1)", "y", "x < 1", 5, "sin(*[x])",
    "log(x, base=2)",
]
# calls of a name that is not a function: the three-pass reader below let
# x(x) through as an undefined function and E(1) out as an AttributeError
CALLS_OF_NAMES = ["x(x)", "E(1)", "pi(x)"]


class TestExpressionGrammar:
    @pytest.mark.parametrize("expr", CLOSED_FORMS)
    def test_closed_forms_parse(self, expr):
        assert _parse_expr(expr).free_symbols <= {sp.Symbol("x", real=True)}

    @pytest.mark.parametrize("expr", NOT_CLOSED_FORMS + CALLS_OF_NAMES)
    def test_anything_else_is_a_configuration_error(self, grid201, expr):
        with pytest.raises(ConfigurationError, match="expr"):
            sample_height_profile("custom", {"expr": expr}, grid201)

    def test_no_text_reaches_eval_or_sympys_parser(self):
        refuse = mock.Mock(side_effect=AssertionError("a closed form was run as Python"))
        with mock.patch("builtins.eval", refuse), mock.patch.object(sp, "sympify", refuse), \
                mock.patch("sympy.parsing.sympy_parser.parse_expr", refuse):
            parsed = [_parse_expr(expr) for expr in CLOSED_FORMS]
            for expr in NOT_CLOSED_FORMS + CALLS_OF_NAMES:
                with pytest.raises(ConfigurationError, match="expr"):
                    _parse_expr(expr)
        assert refuse.call_count == 0
        assert all(expr.free_symbols <= {sp.Symbol("x", real=True)} for expr in parsed)


class TestQuadrature:
    def test_zero_field(self, para401):
        assert quadrature(np.zeros(401), 3, para401) == 0.0

    def test_unweighted_unity(self, para401):
        assert quadrature(np.ones(401), 0, para401) == pytest.approx(1.0, abs=1e-14)

    def test_cubic_exactness(self, grid401, para401):
        x = grid401.nodes
        f = 7.0 - 3.0 * x + 11.0 * x**2 - 5.0 * x**3
        exact = 7.0 - 1.5 + 11.0 / 3.0 - 1.25
        assert quadrature(f, 0, para401) == pytest.approx(exact, abs=1e-13)

    def test_weight_power_range(self, para401):
        with pytest.raises(ConfigurationError):
            quadrature(np.ones(401), 7, para401)

    def test_length_mismatch(self, para401):
        with pytest.raises(ConfigurationError):
            quadrature(np.ones(11), 0, para401)

    def test_subrange_weights_half_interval(self, grid401, dist401):
        # int_0^{1/2} x dx = 1/8, exact for Simpson on a linear integrand
        mid = (grid401.n_nodes - 1) // 2
        w = grid401.subrange_weights(0, mid)
        assert np.dot(w, dist401.values[: mid + 1]) == pytest.approx(0.125, abs=1e-15)


class TestDifferentiate:
    """A spectral field differentiates exactly through the basis tables."""

    def test_constant_spectral_exact(self, grid201):
        basis = GalerkinBasis(3, grid201)
        coeffs = np.array([3.25, 0.0, 0.0])
        for order in range(1, 7):
            assert np.all(coeffs @ basis.table(order) == 0.0)

    def test_spectral_mode_second_derivative_exact(self, grid401):
        basis = GalerkinBasis(4, grid401)
        coeffs = np.array([0.0, 1.0, 0.0, 0.0])
        d2 = coeffs @ basis.table(2)
        exact = -np.pi**2 * np.sqrt(2.0) * np.cos(np.pi * grid401.nodes)
        assert np.max(np.abs(d2 - exact)) < 1e-10


class TestVelocity:
    def test_zero(self, u0zero401):
        assert np.all(u0zero401.values == 0.0)

    def test_cosine_endpoint_compatibility(self, grid201):
        u0 = sample_velocity("cosine", {"amplitude": 2.0, "mode": 3}, grid201)
        d1 = u0.derivative_values(1)
        assert d1[0] == 0.0 and d1[-1] == 0.0

    def test_custom_violating_neumann_rejected(self, grid201):
        with pytest.raises(ValidationError):
            sample_velocity("custom", {"expr": "x"}, grid201)

    def test_unknown_key_rejected(self, grid201):
        with pytest.raises(ConfigurationError, match=r"\['modes'\]"):
            sample_velocity("cosine", {"amplitude": 1.0, "modes": 2}, grid201)
        with pytest.raises(ConfigurationError, match="unknown key"):
            sample_velocity("zero", {"amplitude": 1.0}, grid201)

    def test_custom_compatible_accepted(self, grid201):
        u0 = sample_velocity("custom", {"expr": "cos(pi*x)**2"}, grid201)
        assert u0.values[0] == pytest.approx(1.0)


X = sp.Symbol("x", real=True)
# amplitudes with at most 15 significant digits, in [1e-6, 1e3): a sine of
# 1e4 leaves boundary dust above the snap, which the validator rejects
AMPLITUDES = st.builds(lambda digits, exp: float(f"0.{digits}e{exp}"),
                       st.integers(1, 10**15 - 1), st.integers(-5, 3))
MODES = st.integers(1, 4)


def _built_in(kind, a, m, grid):
    """The field the run builds for a built-in kind, and the sympy expression it replaces."""
    if kind == "parabolic":
        return sample_height_profile(kind, {"amplitude": a}, grid), a * X * (1 - X)
    if kind == "sine":
        return sample_height_profile(kind, {"amplitude": a}, grid), a * sp.sin(sp.pi * X)
    if kind == "cosine":
        return sample_velocity(kind, {"amplitude": a, "mode": m}, grid), a * sp.cos(m * sp.pi * X)
    return sample_velocity(kind, {}, grid), sp.Integer(0)


def _lambdified(expr, order, x):
    vals = np.asarray(sp.lambdify(X, sp.diff(expr, X, order), [np])(x), dtype=float)
    return np.full(x.shape, float(vals)) if vals.ndim == 0 else vals


def _taylor(expr, x0, n):
    out, d = [], expr
    for _ in range(n):
        out.append(float(d.subs(X, sp.Rational(x0))))
        d = sp.diff(d, X)
    return np.array(out)


def _assert_nodal_bitwise(kind, a, m):
    grid = build_grid(41)
    field, expr = _built_in(kind, a, m, grid)
    for order in range(7):
        ours, ref = field.sample(grid.nodes, order), _lambdified(expr, order, grid.nodes)
        assert ours.tobytes() == ref.tobytes(), (order, np.max(np.abs(ours - ref)))


class TestClosedFormsMatchSympy:
    """The numpy closed forms of the built-in kinds against sympy's derivatives.

    Nodal values are what lambdify compiled from sympy's derivative, bit for
    bit. Endpoint data are sympy's exact derivative rounded once: bit for bit
    at the shipped amplitudes, where c*pi**k is a power of two times pi**k;
    elsewhere sympy's own evaluation is not always correctly rounded, so they
    agree to 1e-14 relative.
    """

    @pytest.mark.parametrize("kind, a, m", [
        ("parabolic", 1.0, 1), ("parabolic", 0.5, 1), ("sine", 1.0, 1), ("sine", 0.5, 1),
        ("cosine", 1.0, 1), ("cosine", 0.5, 1), ("zero", 0.0, 1),
    ])
    def test_shipped_fields_bitwise(self, kind, a, m):
        _assert_nodal_bitwise(kind, a, m)
        field, expr = _built_in(kind, a, m, build_grid(41))
        for x0 in (0.0, 1.0):
            assert field.endpoint_derivatives(x0, 18).tobytes() == _taylor(expr, x0, 18).tobytes()

    @settings(max_examples=25)
    @given(kind=st.sampled_from(["parabolic", "sine", "cosine"]), a=AMPLITUDES, m=MODES,
           negative=st.booleans())
    def test_nodal_values_bitwise(self, kind, a, m, negative):
        _assert_nodal_bitwise(kind, -a if negative and kind == "cosine" else a, m)

    @settings(max_examples=15)
    @given(kind=st.sampled_from(["parabolic", "sine", "cosine"]), a=AMPLITUDES, m=MODES)
    def test_endpoint_data_within_1e14(self, kind, a, m):
        field, expr = _built_in(kind, a, m, build_grid(41))
        for x0 in (0.0, 1.0):
            ours, ref = field.endpoint_derivatives(x0, 18), _taylor(expr, x0, 18)
            assert np.all(np.abs(ours - ref) <= 1e-14 * np.abs(ref)), x0


# --- the reference for _parse_expr: the three-pass reader it replaced. An
# allow-list check over ast.walk, a fold of each constant subtree in float
# arithmetic, then sympy's parser on the unparsed text.

_REF_NAMES = frozenset({"x", "pi", "E"})
_REF_FUNCTIONS = frozenset("sin cos tan asin acos atan sinh cosh tanh exp log sqrt".split())
_REF_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)
_REF_CONSTANTS = {"pi": math.pi, "E": math.e}
_REF_FLOAT_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}


def _ref_fold(node):
    leaf = isinstance(node, (ast.Constant, ast.Name))
    if isinstance(node, ast.Constant):
        value = float(node.value)
    elif isinstance(node, ast.Name):
        value = _REF_CONSTANTS.get(node.id)
    elif isinstance(node, ast.UnaryOp):
        operand, v = _ref_fold(node.operand)
        node = ast.UnaryOp(node.op, operand)
        value = None if v is None else _REF_FLOAT_OPS[type(node.op)](v)
    elif isinstance(node, ast.BinOp):
        (left, a), (right, b) = _ref_fold(node.left), _ref_fold(node.right)
        node = ast.BinOp(left, node.op, right)
        value = None if a is None or b is None else _REF_FLOAT_OPS[type(node.op)](a, b)
    else:
        folded = [_ref_fold(arg) for arg in node.args]
        node = ast.Call(node.func, [arg for arg, _ in folded], [])
        values = [v for _, v in folded]
        value = None if None in values else getattr(math, node.func.id)(*values)
    if value is None:
        return node, None
    if isinstance(value, complex) or not math.isfinite(value):
        raise ValueError(f"{ast.unparse(node)!r} is not a finite real number")
    if leaf:
        return node, value
    number = int(value) if value.is_integer() else value
    literal = ast.Constant(abs(number))
    return (ast.UnaryOp(ast.USub(), literal) if number < 0 else literal), value


def _ref_check_grammar(text):
    tree = ast.parse(text, mode="eval")
    nodes = list(ast.walk(tree))
    called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    for node in nodes:
        if isinstance(node, ast.Name):
            ok = node.id in _REF_NAMES or (id(node) in called and node.id in _REF_FUNCTIONS)
        elif isinstance(node, ast.Call):
            ok = isinstance(node.func, ast.Name) and not node.keywords
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float)
        else:
            ok = isinstance(node, (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, *_REF_OPS))
        if not ok:
            what = ast.unparse(node) if isinstance(node, ast.expr) else type(node).__name__
            raise ValueError(f"{what!r} is not allowed")
    body, _ = _ref_fold(tree.body)
    return ast.unparse(body)


def _reference_parse(expr):
    if not isinstance(expr, str):
        raise ConfigurationError(f"'expr' must be a string, got {expr!r}")
    try:
        return sp.sympify(_ref_check_grammar(expr)).subs(sp.Symbol("x"), sp.Symbol("x", real=True))
    except (SyntaxError, ValueError, TypeError, ArithmeticError, RecursionError,
            sp.SympifyError, tokenize.TokenError) as exc:
        raise ConfigurationError(f"'expr' {expr!r} is not a closed form in x: {exc}") from None


def _outcome(parse, expr):
    """sympy's srepr of the parsed expression, or ConfigurationError."""
    try:
        return sp.srepr(parse(expr))
    except ConfigurationError:
        return ConfigurationError


# numbers as written (ints, floats in any notation), names, and constants that
# overflow, are not finite or are not real
_NUMBERS = st.one_of(
    st.integers(0, 100).map(str),
    st.floats(0.0, 1e3, allow_subnormal=False).map(repr),
    st.sampled_from(["2.5e-1", "1e300", "0.1", "3.0", "1e-320", "1_000", "0x1F", "007.5"]),
)
_BAD_CONSTANTS = st.sampled_from([
    "1e999", "1" + "0" * 400, "10**10**10", "1e308*10", "(-8)**(1/3)", "sqrt(-1)", "log(0)",
    "1/0", "0**-1", "exp(1000)", "asin(2)", "2**(10**10)",
])
_LEAVES = st.one_of(_NUMBERS, st.sampled_from(["x", "pi", "E"]), _BAD_CONSTANTS)
# a power's exponent stays small: a subtree sympy reduces to an exact
# integer, such as (x - x + 9), is not folded, and a tower of such powers
# asks sympy for a huge exact integer
_EXPONENTS = st.one_of(
    st.integers(-3, 4).map(str), st.sampled_from(["0.5", "(1/3)", "(-1.5)", "x", "pi", "(x + 1)"]),
)


def _compound(inner):
    wrap = st.sampled_from(["{}", "({})"])
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-"]), wrap, inner).map(lambda t: t[0] + t[1].format(t[2])),
        st.tuples(wrap, inner, st.sampled_from([" + ", " - ", "*", "/"]), wrap, inner).map(
            lambda t: t[0].format(t[1]) + t[2] + t[3].format(t[4])),
        st.tuples(st.sampled_from(["({})", "x", "{}"]), inner, _EXPONENTS).map(
            lambda t: (t[0] if t[0] == "x" else t[0].format(t[1])) + "**" + t[2]),
        st.tuples(st.sampled_from(sorted(_REF_FUNCTIONS)), inner).map(lambda t: f"{t[0]}({t[1]})"),
    )


_GRAMMAR = st.recursive(_LEAVES, _compound, max_leaves=10)


# powers of a base whose sign sympy reads off x: built in the real x from the
# start, sympy splits them differently
POWER_SPLITS = ["(2**x/(-1.37))**(-0.5)", "((-(1/3)**x)**0.5)**2.5"]


class TestOneWalkMatchesTheReference:
    """_parse_expr builds what the three-pass reader built, and rejects what it rejected."""

    @pytest.mark.parametrize("expr", CLOSED_FORMS + NOT_CLOSED_FORMS + POWER_SPLITS)
    def test_corpus(self, expr):
        assert _outcome(_parse_expr, expr) == _outcome(_reference_parse, expr)

    @settings(max_examples=400, deadline=None)
    @given(expr=_GRAMMAR)
    def test_grammar(self, expr):
        assert _outcome(_parse_expr, expr) == _outcome(_reference_parse, expr)
