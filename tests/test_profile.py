import ast
import math
import operator
import tokenize
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from svfree._series import TaylorSeries
from svfree.errors import ConfigurationError, ValidationError
from svfree.galerkin import GalerkinBasis
from svfree.profile import (
    AnalyticField,
    HeightProfile,
    _custom,
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
        with mock.patch("svfree.profile._parse_expr", wraps=_parse_expr) as parse:
            sample_height_profile("custom", {"expr": "x*(1-x)*(1 + x/2)"}, grid201)
        assert parse.call_count == 1

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


def _value_at(parsed, x0):
    """The value at x0 of what _parse_expr returns, a function of the Taylor series of x."""
    return float(parsed(TaylorSeries([np.float64(x0), 1.0])).terms[0])


class TestExpressionGrammar:
    @pytest.mark.parametrize("expr", CLOSED_FORMS)
    def test_closed_forms_parse(self, expr):
        # the value of the walked tree at x = 0.3 is sympy's value of the text
        reference = float(sp.sympify(expr).subs(sp.Symbol("x"), sp.Rational(3, 10)))
        assert _value_at(_parse_expr(expr), 0.3) == pytest.approx(reference, rel=1e-15)

    @pytest.mark.parametrize("expr", NOT_CLOSED_FORMS + CALLS_OF_NAMES)
    def test_anything_else_is_a_configuration_error(self, grid201, expr):
        with pytest.raises(ConfigurationError, match="expr"):
            sample_height_profile("custom", {"expr": expr}, grid201)

    def test_deep_nesting_is_a_configuration_error_not_a_traceback(self, grid201):
        # a run evaluates a field some frames deeper than it parsed it, so an
        # expression the walk just fits in can overflow the stack when evaluated
        def deeper(frames, field):
            return field.values if frames == 0 else deeper(frames - 1, field)

        for depth in range(100, 1500, 10):
            try:
                deeper(100, AnalyticField("x*(1-x)" + "+0*x" * depth, grid201))
            except ConfigurationError as exc:
                assert "'expr'" in str(exc)

    def test_no_text_reaches_eval_or_sympys_parser(self):
        refuse = mock.Mock(side_effect=AssertionError("a closed form was run as Python"))
        with mock.patch("builtins.eval", refuse), mock.patch.object(sp, "sympify", refuse), \
                mock.patch("sympy.parsing.sympy_parser.parse_expr", refuse):
            parsed = [_parse_expr(expr) for expr in CLOSED_FORMS]
            for expr in NOT_CLOSED_FORMS + CALLS_OF_NAMES:
                with pytest.raises(ConfigurationError, match="expr"):
                    _parse_expr(expr)
        assert refuse.call_count == 0
        assert all(math.isfinite(_value_at(fn, 0.3)) for fn in parsed)


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


def _reference_values(ref, points, n, extra_digits=0, exact_constants=False):
    """Derivatives of orders < n of the sympy expression ref at each point: a (points, n) array.

    ref's numbers become the doubles svfree reads (pi is math.pi; with
    exact_constants, pi and E stay exact), and mpmath differentiates its
    mpmath form numerically, so an endpoint order of 17 costs no symbolic
    swell. Its steps lose the digits of a large added constant and cannot
    resolve a large factor (sin(1e12*x)), so it works 30 digits, plus
    extra_digits, beyond the largest number ref adds or multiplies. nan
    marks a value that is not a finite real number, or a point where the
    form cannot be evaluated.
    """
    out = np.full((len(points), n), np.nan)
    if ref.has(sp.zoo, sp.oo, -sp.oo, sp.nan):  # sympy reduced a part to an infinity
        return out
    numbers = ref.atoms(sp.Float) | (set() if exact_constants else ref.atoms(sp.NumberSymbol))
    f = sp.lambdify(X, ref.xreplace({c: sp.Float(float(c), 40) for c in numbers}), "mpmath")
    largest = max([1.0, *(abs(float(c)) for op in ref.atoms(sp.Add, sp.Mul) for c in op.args if c.is_Number)])
    # exp(710 + x) makes inf
    with mpmath.workdps(30 + extra_digits + math.ceil(math.log10(min(largest, 1e308)))):
        for i, x0 in enumerate(points):
            try:
                derivs = np.array([complex(d) for d in mpmath.diffs(f, float(x0), n - 1)])
            except (ArithmeticError, ValueError):  # a pole at x0
                continue
            out[i] = np.where(np.isfinite(derivs) & (derivs.imag == 0), derivs.real, np.nan)
    return out


def _exactly_finite(ref, points, n):
    """Whether every derivative of ref of orders < n at the points is a finite real in exact arithmetic.

    With pi exact, tan(pi*x/2) at x = 1 is a pole; 20 more digits move
    such a value by orders of magnitude, where a finite one stays put.
    """
    a, b = (_reference_values(ref, points, n, extra, exact_constants=True) for extra in (0, 20))
    return bool(np.all(np.isfinite(a) & np.isfinite(b) & (np.abs(a - b) <= 1e-6 * np.fmax(1.0, np.abs(b)))))


def _our_values(form, points, n):
    """form's derivatives of orders < n at each point; nan where it finds a pole."""
    out = np.full((len(points), n), np.nan)
    for i, x0 in enumerate(points):
        try:
            out[i] = form.taylor(x0, n)
        except ConfigurationError:
            pass
    return out


def _nodal_scale(ref):
    """Per order: max(1, the largest |ref| of that order over the points)."""
    return np.fmax.reduce(ref, axis=0, initial=1.0)


def _endpoint_scale(ref):
    """Per end and order k: max(1, the largest |ref| of orders <= k+1)."""
    upto = np.fmax.accumulate(np.fmax(ref, 1.0), axis=1)
    return np.concatenate([upto[:, 1:], upto[:, -1:]], axis=1)


# (points, orders, bound, scale) of the nodal and the endpoint comparison
_BOUNDS = ((build_grid(41).nodes, 7, 1e-13, _nodal_scale), ((0.0, 1.0), 18, 1e-12, _endpoint_scale))


def _misses(values, exact, bound, scale_of):
    """Where values, finite, miss the finite reals exact by more than bound times the scale."""
    with np.errstate(invalid="ignore"):
        allowed = bound * scale_of(np.abs(exact))
        return np.isfinite(exact) & np.isfinite(values) & ~(np.abs(values - exact) <= allowed)


# finite reals in sympy, which simplifies them, but rejected by svfree,
# which evaluates them as written: the base of a root or log vanishes at
# x = 0 (sqrt(x)**2 and exp(log(x)) are x to sympy, 0*x**x is 0), or acos
# meets the constant 1 (x**0), where its series has no derivative; the
# last three are draws of test_grammar
REJECTED_THOUGH_FINITE = [
    "x*(1-x)*(1 + sqrt(x)**2)", "x*(1-x)*(1 + exp(log(x)))",
    "(x**x)*(-0.0)**0.5", "acos(x**0)", "acos((x)**0)",
]
# closed forms whose series lose digits to the recurrences on exp(v)'s
# own terms, or to exp alone for a power with an exponent in x
DIGIT_LOSING_FORMS = [
    "(exp(x))**0.5", "(5**(x + 1))**(1/3)", "0.25/36**x", "log((sqrt(7.5))**x)",
    "20**(x + 1)/20**(x + 1)", "exp(3*x)*exp(-3*x)", "x**(x + 1)",
]
# values that no evaluation in doubles brings within the bounds, sympy's
# own derivative formulas included (test_ill_conditioned_in_doubles): at
# x = 0.025, cos(x) rounds near 1, where acos's slope multiplies its
# rounding; at x = 1 the series of 1/sqrt(1 - cos(x)**2) has terms near 1
# that cancel to 0, and order k multiplies that rounding by k!. A draw
# of test_grammar.
ILL_CONDITIONED = ["+acos(cos(x))"]


def _assert_value_parity(expr):
    """svfree accepts expr iff the reference does, and then takes sympy's values.

    Where sympy's derivatives are finite reals at every point, svfree must
    find no pole there; REJECTED_THOUGH_FINITE are the exceptions, pinned
    by their own test. Wherever both values are finite, they agree within
    1e-13 of max(1, the largest |ref| of that order over the nodes) for
    orders 0-6 on 41 nodes, and within 1e-12 of max(1, the largest |ref|
    of orders <= k+1 at that end) for endpoint order k of 0-17, save for
    ILL_CONDITIONED, pinned by their own test. An entry's own |ref| is no scale: an odd
    order of cos(pi*x)**2 at x = 1 reads 4.5e-3 where sympy's is 0, since
    sin(pi) rounds to 1.2e-16, beside even orders of 1e13.
    """
    try:
        ref = _reference_parse(expr)
    except ConfigurationError:
        # sympy may reduce x-dependent parts first: x**0*0.25/0.0 is its
        # 0.25/0.0, and to svfree a division by zero wherever it is evaluated
        with pytest.raises(ConfigurationError):
            AnalyticField(expr, build_grid(41)).values
        return
    if expr in REJECTED_THOUGH_FINITE:
        return
    form = _custom(expr)
    for points, n, bound, scale_of in _BOUNDS:
        ref_values = _reference_values(ref, points, n)
        ours = _our_values(form, points, n)
        if not np.all(np.isfinite(ours)):
            assert not _exactly_finite(ref, points, n), ("svfree rejects", np.argwhere(~np.isfinite(ours))[:3])
        if expr not in ILL_CONDITIONED:
            bad = _misses(ours, ref_values, bound, scale_of)
            assert not bad.any(), (np.argwhere(bad)[:3], ours[bad][:3], ref_values[bad][:3])


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
    """svfree refuses what the three-pass reader refused, and its series take sympy's values."""

    @pytest.mark.parametrize(
        "expr", CLOSED_FORMS + NOT_CLOSED_FORMS + POWER_SPLITS + DIGIT_LOSING_FORMS + ILL_CONDITIONED)
    def test_corpus(self, expr):
        _assert_value_parity(expr)

    @pytest.mark.parametrize("expr", REJECTED_THOUGH_FINITE)
    def test_rejected_though_finite(self, expr):
        ref, grid = _reference_parse(expr), build_grid(41)
        assert _exactly_finite(ref, grid.nodes, 7) and _exactly_finite(ref, (0.0, 1.0), 18)
        with pytest.raises(ConfigurationError, match="'expr'"):
            AnalyticField(expr, grid).values

    @pytest.mark.parametrize("expr", ILL_CONDITIONED)
    def test_ill_conditioned_in_doubles(self, expr):
        # where svfree misses a bound, sympy's formulas evaluated in doubles miss it too
        ref, form = _reference_parse(expr), _custom(expr)
        for points, n, bound, scale_of in _BOUNDS:
            exact, formulas, derivative = _reference_values(ref, points, n), np.empty((len(points), n)), ref
            for k in range(n):
                with np.errstate(divide="ignore", invalid="ignore"):
                    formulas[:, k] = sp.lambdify(X, derivative)(np.asarray(points))
                derivative = sp.diff(derivative, X)
            missed = _misses(_our_values(form, points, n), exact, bound, scale_of)
            assert np.all(_misses(formulas, exact, bound, scale_of)[missed])

    @settings(max_examples=400, deadline=None)
    @given(expr=_GRAMMAR)
    def test_grammar(self, expr):
        _assert_value_parity(expr)
