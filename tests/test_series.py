import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from svfree._series import N_TERMS, LaurentSeries, MixedValuationError, TaylorSeries, TimeSeries


def _poly(*coeffs):
    return LaurentSeries.from_derivatives(
        [c * math.factorial(k) for k, c in enumerate(coeffs)]
    )


class TestArithmetic:
    def test_constant_round_trip(self):
        s = LaurentSeries.constant(3.5)
        assert s.finite_part() == 3.5
        assert not s.has_pole()

    def test_product_of_polynomials(self):
        # (1 + x)(2 + x) = 2 + 3x + x^2
        p = _poly(1.0, 1.0) * _poly(2.0, 1.0)
        assert p.finite_part() == 2.0
        assert p.coeffs[1] == pytest.approx(3.0)
        assert p.coeffs[2] == pytest.approx(1.0)

    def test_scalar_mixing(self):
        s = 2.0 * _poly(1.0, 4.0) + 1.0
        assert s.finite_part() == 3.0
        assert (1.0 - s).finite_part() == -2.0

    def test_division_cancels_simple_zero(self):
        # sin-like / x-like: (x - x^3/6) / x -> 1 - x^2/6 at 0
        num = _poly(0.0, 1.0, 0.0, -1.0 / 6.0)
        den = _poly(0.0, 1.0)
        q = num / den
        assert q.finite_part() == pytest.approx(1.0)
        assert not q.has_pole()

    def test_division_detects_genuine_pole(self):
        q = _poly(1.0, 1.0) / _poly(0.0, 1.0)
        assert q.has_pole()
        assert q.finite_part() == pytest.approx(1.0)  # the regular part

    def test_negative_integer_power(self):
        s = _poly(0.0, 2.0) ** -2  # (2x)^-2 = x^-2 / 4
        assert s.offset == -2
        assert s.coeffs[0] == pytest.approx(0.25)

    def test_power_matches_repeated_product(self):
        base = _poly(1.0, -0.5, 0.25)
        cubed = base**3
        manual = base * base * base
        assert cubed.offset == manual.offset
        assert np.allclose(cubed.coeffs, manual.coeffs, rtol=1e-14)

    def test_inverse_of_unit_series(self):
        s = _poly(1.0, 1.0)  # 1 + x
        inv = 1.0 / s
        # geometric series 1 - x + x^2 - ...
        expect = [(-1.0) ** k for k in range(N_TERMS)]
        assert np.allclose(inv.coeffs, expect, atol=1e-14)

    def test_exact_cancellation_of_shared_atoms(self):
        # (a*b - b*a) / x has a zero numerator bitwise; no pole survives
        a = _poly(0.3, 1.7, -2.0)
        b = _poly(-1.1, 0.9)
        num = a * b - b * a
        q = num / _poly(0.0, 1.0)
        assert not q.has_pole()
        assert q.finite_part() == 0.0

    def test_leading_coefficient_judged_against_the_next_order(self):
        # Taylor coefficients of many-mode data grow with the order; a large
        # late coefficient does not make an exact leading one dust
        coeffs = np.zeros(N_TERMS)
        coeffs[0], coeffs[11] = 1.0, 1e13
        s = LaurentSeries(coeffs)
        assert s._valuations() == 0
        one = s * (1.0 / s)
        assert one.offset == 0
        assert np.array_equal(one.coeffs, LaurentSeries.constant(1.0).coeffs)

    def test_pole_judged_against_coefficients_up_to_power_zero(self):
        # 1/x + ... + 1e13 x^10: the late coefficient does not hide the pole
        coeffs = np.zeros(N_TERMS)
        coeffs[0], coeffs[11] = 1.0, 1e13
        s = LaurentSeries(coeffs, -1)
        assert s.has_pole()

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            _ = _poly(1.0) / LaurentSeries.constant(0.0)


# -- batches: rows sharing one offset, checked against one row at a time ----

_COEFF = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
_LEAD = st.floats(0.5, 4.0).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def batches(draw, rows=None, valuation=None):
    """(rows, N_TERMS) coefficients whose rows all have the drawn valuation."""
    rows = draw(st.integers(1, 5)) if rows is None else rows
    val = draw(st.integers(0, 2)) if valuation is None else valuation
    c = draw(arrays(float, (rows, N_TERMS), elements=_COEFF))
    c[:, :val] = 0.0
    c[:, val] = [draw(_LEAD) for _ in range(rows)]
    return LaurentSeries(c, draw(st.integers(-3, 3)))


def _rows(batch):
    return [LaurentSeries(row, batch.offset) for row in batch.coeffs]


def _assert_rows_equal(batch, singles):
    assert batch.coeffs.shape == (len(singles), N_TERMS)
    for got, ref in zip(batch.coeffs, singles):
        assert batch.offset == ref.offset
        scale = max(np.max(np.abs(ref.coeffs)), 1e-300)
        assert np.max(np.abs(got - ref.coeffs)) <= 1e-12 * scale


class TestBatchedMatchesRows:
    @given(data=st.data())
    def test_ring_operations(self, data):
        a = data.draw(batches())
        b = data.draw(batches(rows=len(a.coeffs)))
        n = data.draw(st.integers(-3, 4))
        c = data.draw(_COEFF)
        pairs = list(zip(_rows(a), _rows(b)))
        _assert_rows_equal(a + b, [x + y for x, y in pairs])
        _assert_rows_equal(a - b, [x - y for x, y in pairs])
        _assert_rows_equal(a * b, [x * y for x, y in pairs])
        _assert_rows_equal(a / b, [x / y for x, y in pairs])
        _assert_rows_equal(a**n, [x**n for x, _ in pairs])
        _assert_rows_equal(c - a, [c - x for x, _ in pairs])
        _assert_rows_equal(c * a + c, [c * x + c for x, _ in pairs])
        _assert_rows_equal(c / b, [c / y for _, y in pairs])

    @given(data=st.data())
    def test_extraction(self, data):
        a = data.draw(batches())
        b = data.draw(batches(rows=len(a.coeffs)))
        for s in (a, a / b, b / a, a * b):
            singles = _rows(s)
            parts = s.finite_part()
            poles = s.has_pole()
            assert parts.shape == poles.shape == (len(singles),)
            assert [bool(p) for p in poles] == [r.has_pole() for r in singles]
            for got, ref in zip(parts, singles):
                assert isinstance(ref.finite_part(), float)
                assert isinstance(ref.has_pole(), bool)
                assert got == pytest.approx(ref.finite_part(), rel=1e-12, abs=1e-300)

    @given(data=st.data())
    def test_one_row_broadcasts_against_a_batch(self, data):
        a = data.draw(batches())
        one = data.draw(batches(rows=1))
        single = LaurentSeries(one.coeffs[0], one.offset)
        _assert_rows_equal(a * single, [x * single for x in _rows(a)])
        _assert_rows_equal(single / a, [single / x for x in _rows(a)])

    def test_mixed_valuations_refuse_a_common_inverse(self):
        batch = LaurentSeries(np.array([[1.0, 2.0] + [0.0] * 10, [0.0, 3.0] + [0.0] * 10]))
        with pytest.raises(MixedValuationError):
            _ = 1.0 / batch
        with pytest.raises(MixedValuationError):
            _ = batch**-1


class TestRingLaws:
    @given(data=st.data())
    def test_associative_and_distributive(self, data):
        a = data.draw(batches())
        b = data.draw(batches(rows=len(a.coeffs)))
        c = data.draw(batches(rows=len(a.coeffs)))
        _assert_rows_equal((a * b) * c, _rows(a * (b * c)))
        _assert_rows_equal(a * (b + c), _rows(a * b + a * c))

    @given(s=batches(valuation=0))
    def test_times_inverse_is_one(self, s):
        inv = 1.0 / s
        prod = s * inv
        scale = np.max(np.abs(s.coeffs), axis=-1) * np.max(np.abs(inv.coeffs), axis=-1)
        one = np.zeros(N_TERMS)
        one[0] = 1.0
        assert prod.offset == 0
        assert np.all(np.abs(prod.coeffs - one) <= 1e-12 * scale[:, None])

    @settings(max_examples=8)
    @given(
        val=st.integers(0, 2),
        coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
        lead=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )
    def test_inverse_matches_sympy_series(self, val, coeffs, lead):
        x = sp.Symbol("x")
        ints = [0] * val + [lead] + coeffs
        poly = sum(c * x**k for k, c in enumerate(ints))
        inv = 1.0 / LaurentSeries(np.array(ints, dtype=float))
        assert inv.offset == -val
        expansion = sp.series(1 / poly, x, 0, N_TERMS - val).removeO()
        exact = [float(expansion.coeff(x, k - val)) for k in range(N_TERMS)]
        scale = max(map(abs, exact))
        assert np.max(np.abs(inv.coeffs - exact)) <= 1e-12 * scale


# -- Taylor series about many points, checked against one Laurent series per point


class TestTaylorMatchesLaurent:
    @given(data=st.data())
    def test_ring_operations_and_derivatives(self, data):
        # terms-first series about 3 points, of the 5 terms the interior
        # pass uses; each point must read what its valuation-0 Laurent
        # series reads in its first 5 coefficients
        n = 5
        coeffs = [data.draw(arrays(float, (3, n), elements=_COEFF)) for _ in range(2)]
        for c in coeffs:
            c[:, 0] = [data.draw(_LEAD) for _ in range(3)]
        a, b = (TaylorSeries(c.T) for c in coeffs)
        power = data.draw(st.integers(-3, 4))
        scalar = data.draw(_COEFF)
        order = data.draw(st.integers(0, n - 1))
        results = {
            "a + b": (a + b, lambda x, y: x + y),
            "a - b": (a - b, lambda x, y: x - y),
            "a * b": (a * b, lambda x, y: x * y),
            "a / b": (a / b, lambda x, y: x / y),
            "c / b": (scalar / b, lambda x, y: scalar / y),
            "c - a * c": (scalar - a * scalar, lambda x, y: scalar - x * scalar),
            "a ** k": (a**power, lambda x, y: x**power),
            "a'": (a.derivative(order), lambda x, y: x.derivative(order)),
        }
        for label, (got, op) in results.items():
            for p in range(3):
                ref = op(*(LaurentSeries(c[p]) for c in coeffs))
                # slot -offset holds the coefficient of power 0
                expect = ref.coeffs[-ref.offset :][: len(got.terms)]
                values = np.array([t[p] for t in got.terms])
                scale = max(np.max(np.abs(expect)), 1.0)
                assert np.max(np.abs(values - expect)) <= 1e-12 * scale, label

    def test_head_and_derivative_lengths(self):
        s = TaylorSeries.from_derivatives([np.full(2, float(math.factorial(k))) for k in range(5)])
        assert [len(s.derivative(k).terms) for k in range(5)] == [5, 4, 3, 2, 1]
        # a series of 1/(1 - x) carries f^(k)(0) = k! as coefficient k
        geometric = 1.0 / (1.0 - TaylorSeries([np.zeros(2), np.ones(2), *[np.zeros(2)] * 3]))
        assert all(np.allclose(t, 1.0) for t in geometric.terms)
        assert np.allclose(geometric.derivative(3).terms[0], 6.0)
        assert len((s * s.head(2)).terms) == 2


# -- series in t whose coefficients are series in x, checked against bivariate
# polynomial arithmetic on (t power, x power) coefficient arrays


def _product_matrix(a):
    """M with vec(a * b) = M @ vec(b) for b of a's shape, both truncated in t and in x."""
    kt, mx = a.shape
    m = np.zeros((kt, mx, kt, mx))
    for k in range(kt):
        for i in range(k + 1):
            for p in range(mx):
                m[k, p, k - i, : p + 1] += a[i, p::-1]
    return m.reshape(kt * mx, kt * mx)


def _exact_inverse(c):
    """The inverse of a (t terms, x terms) coefficient array, by forward substitution in rationals.

    The product matrix is lower triangular in t-major order, and each of its
    entries is one coefficient of c, so every float enters exactly.
    """
    m = _product_matrix(c)
    x = []
    for r in range(len(m)):
        rhs = Fraction(int(r == 0)) - sum(Fraction(m[r, q]) * x[q] for q in range(r) if m[r, q])
        x.append(rhs / Fraction(m[r, r]))
    return np.array([float(v) for v in x]).reshape(c.shape)


def _time_series(c, kind, offset):
    """A TimeSeries of (points, t terms, x terms) coefficients, with Taylor or Laurent terms."""
    if kind == "taylor":
        return TimeSeries(TaylorSeries(list(c[:, k].T)) for k in range(c.shape[1]))
    return TimeSeries(LaurentSeries(c[:, k], offset) for k in range(c.shape[1]))


def _coefficients(s, kind):
    """(points, t terms, x terms) coefficients of a TimeSeries, and the offset of its x-series."""
    if kind == "taylor":
        return np.stack([np.stack(q.terms, axis=-1) for q in s.terms], axis=1), 0
    offsets = {q.offset for q in s.terms}
    assert len(offsets) == 1
    return np.stack([q.coeffs for q in s.terms], axis=1), offsets.pop()


class TestTimeSeries:
    @given(data=st.data(), kind=st.sampled_from(["taylor", "laurent"]))
    def test_product_and_inverse_match_bivariate_arithmetic(self, data, kind):
        points, mx = 3, (5 if kind == "taylor" else N_TERMS)
        lengths = [data.draw(st.integers(1, 3), label="t terms") for _ in range(2)]
        coeffs = [data.draw(arrays(float, (points, kt, mx), elements=_COEFF)) for kt in lengths]
        for c in coeffs:
            c[:, 0, 0] = [data.draw(_LEAD) for _ in range(points)]
        offsets = [0, 0] if kind == "taylor" else [data.draw(st.integers(-2, 2)) for _ in range(2)]
        a, b = (_time_series(c, kind, o) for c, o in zip(coeffs, offsets))

        n = min(lengths)
        got, offset = _coefficients(a * b, kind)
        assert got.shape == (points, n, mx) and offset == sum(offsets)
        inv, inv_offset = _coefficients(a._inverse(), kind)
        assert inv.shape == coeffs[0].shape and inv_offset == -offsets[0]
        one, one_offset = _coefficients(a * a._inverse(), kind)
        assert one_offset == 0
        # an x-series is constant in t, from either side
        scaled, _ = _coefficients(b.terms[0] * a, kind)
        for p in range(points):
            ca, cb = coeffs[0][p], coeffs[1][p]
            expect = (_product_matrix(ca[:n]) @ cb[:n].ravel()).reshape(n, mx)
            assert np.max(np.abs(got[p] - expect)) <= 1e-12 * max(np.max(np.abs(expect)), 1.0)
            exact = _exact_inverse(ca)
            assert np.max(np.abs(inv[p] - exact)) <= 1e-12 * np.max(np.abs(exact))
            identity = np.zeros_like(ca)
            identity[0, 0] = 1.0
            scale = np.max(np.abs(ca)) * np.max(np.abs(inv[p]))
            assert np.max(np.abs(one[p] - identity)) <= 1e-12 * scale
            constant = np.zeros_like(ca)
            constant[0] = cb[0]
            expect = (_product_matrix(constant) @ ca.ravel()).reshape(ca.shape)
            assert np.max(np.abs(scaled[p] - expect)) <= 1e-12 * max(np.max(np.abs(expect)), 1.0)
