"""Truncated series arithmetic: Laurent series at the vacuum endpoints, Taylor series inside.

The vacuum endpoints make pointwise formulas of the form N(x)/rho0(x)^p
indeterminate: rho0 vanishes there, and whenever the data is compatible the
numerator vanishes to matching order. Evaluating the whole expression in a
truncated power-series ring around the endpoint performs every L'Hopital
cancellation at once and to machine precision. When a genuine pole survives,
the constant coefficient is the Hadamard finite part and the pole is flagged.

Series objects support +, -, *, /, ** with integers and mix freely with
Python scalars, so a rational function written with those operators, as
``svfree.jet`` writes the momentum equation, runs on them unchanged. A series
is one row of coefficients or a batch of rows that share one offset (one
stored time per row); the arithmetic broadcasts across rows like numpy, so a
single pass through such a function evaluates every row at once. The
recurrences for the product and the inverse are the standard
Taylor-coefficient ones (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
ch. 13); only the batch axis is added.

``TaylorSeries`` and ``TimeSeries`` are one ring, stored terms-first: +,
unary -, the triangular Cauchy product and the inverse's recurrence are
written once, and the two differ only in what they take as a constant.
``TaylorSeries`` holds arrays about every interior node at once, where no
denominator vanishes (no offset, no valuation), and its constants are
scalars. ``TimeSeries`` is a short series in t whose coefficients are series
in x of either type, and anything else is constant in t; fed through the
momentum equation it propagates the time derivatives, so its t^1 and t^2
coefficients give v_tt and v_ttt / 2. Taylor and Laurent series
differentiate: a series of f carries f's x-derivatives as its coefficients
times factorials, which is how ``svfree.jet`` reads a1..a4 and b1, b2 off
the series of a0 and b0. ``TaylorSeries`` also takes exp, sin and cos,
real powers and integrals, which is how ``svfree.profile`` takes every
derivative of a custom closed form.
"""

from __future__ import annotations

import math

import numpy as np

N_TERMS = 12

# Relative threshold below which a leading coefficient is treated as
# cancellation dust when locating a denominator's valuation. It is judged
# against the coefficients up to the next order, not the whole row: Taylor
# coefficients of many-mode data grow like (n pi)^k / k!.
_VALUATION_DUST = 1e-12

# Relative threshold above which surviving negative-power coefficients (judged
# against those up to power 0) are a genuine pole rather than rounding residue.
_POLE_DUST = 1e-8

_SCALARS = (int, float, np.integer, np.floating)

# enough for the 18-term endpoint series of a custom profile (svfree.profile)
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(2 * N_TERMS)])

# the truncated Cauchy product sums a_i b_j over i + j = k < N_TERMS: the
# (i, j) pairs of that triangle, and the 0/1 matrix sending each to its k
_PAIR_I, _PAIR_J = np.nonzero(np.add.outer(np.arange(N_TERMS), np.arange(N_TERMS)) < N_TERMS)
_CAUCHY = np.zeros((len(_PAIR_I), N_TERMS))
_CAUCHY[np.arange(len(_PAIR_I)), _PAIR_I + _PAIR_J] = 1.0


class MixedValuationError(ArithmeticError):
    """The rows of a batched denominator have different valuations.

    Rows share one offset, so such a batch has no common inverse; evaluate
    its rows one at a time instead.
    """


class _Series:
    """The operators every series type derives from +, unary -, * and its _inverse."""

    __slots__ = ()

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * (1.0 / float(other))
        if not isinstance(other, type(self)):
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self._inverse() * float(other)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        n = int(n)
        if n < 0:
            return self._inverse() ** (-n)
        if n == 0:
            return self * 0.0 + 1.0
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base


class LaurentSeries(_Series):
    """Power series sum_k c_k xi^(offset+k), truncated to N_TERMS coefficients.

    ``coeffs`` has shape ``(..., N_TERMS)``: one series, or a batch of rows
    sharing ``offset``. Extraction returns a float or bool for one series and
    a per-row array for a batch.
    """

    __slots__ = ("offset", "coeffs", "_inv")

    def __init__(self, coeffs, offset=0):
        c = np.asarray(coeffs, dtype=float)
        if c.shape[-1] != N_TERMS:
            full = np.zeros(c.shape[:-1] + (N_TERMS,))
            m = min(c.shape[-1], N_TERMS)
            full[..., :m] = c[..., :m]
            c = full
        self.coeffs = c
        self.offset = int(offset)
        self._inv = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value):
        c = np.zeros(N_TERMS)
        c[0] = float(value)
        return cls(c, 0)

    @classmethod
    def from_derivatives(cls, derivs):
        """Series with coefficients derivs[..., m] / m! (Taylor data at the endpoint)."""
        d = np.asarray(derivs, dtype=float)[..., :N_TERMS]
        return cls(d / _FACTORIALS[: d.shape[-1]], 0)

    # -- helpers ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, _SCALARS):
            return LaurentSeries.constant(other)
        return NotImplemented

    def _shifted_to(self, offset):
        """Coefficients of self re-expressed with the given (lower) offset."""
        shift = self.offset - offset
        if shift == 0:
            return self.coeffs
        c = np.zeros(self.coeffs.shape)
        if shift < N_TERMS:
            c[..., shift:] = self.coeffs[..., : N_TERMS - shift]
        return c

    def _valuations(self):
        """Per-row index of the first significant coefficient; -1 for a zero row."""
        mag = np.abs(self.coeffs)
        upto_next = np.maximum.accumulate(mag, axis=-1)
        upto_next[..., :-1] = upto_next[..., 1:]
        sig = mag > _VALUATION_DUST * upto_next
        return np.where(np.any(sig, axis=-1), np.argmax(sig, axis=-1), -1)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        off = min(self.offset, other.offset)
        return LaurentSeries(self._shifted_to(off) + other._shifted_to(off), off)

    def __neg__(self):
        return LaurentSeries(-self.coeffs, self.offset)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            # the Cauchy product with a constant series, without its zero terms
            return LaurentSeries(self.coeffs * float(other), self.offset)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        pairs = self.coeffs[..., _PAIR_I] * other.coeffs[..., _PAIR_J]
        return LaurentSeries(pairs @ _CAUCHY, self.offset + other.offset)

    def _inverse(self):
        if self._inv is not None:
            return self._inv
        vals = self._valuations()
        val = int(vals.flat[0])
        if np.any(vals != val):
            raise MixedValuationError(f"row valuations {sorted(set(vals.flat))} differ")
        if val < 0:
            raise ZeroDivisionError("inverse of the zero series")
        lead = self.coeffs[..., val : val + 1]
        # normalize to a unit-leading valuation-0 series, invert by recurrence
        a = np.zeros(self.coeffs.shape)
        a[..., : N_TERMS - val] = self.coeffs[..., val:] / lead
        inv = np.zeros(self.coeffs.shape)
        inv[..., 0] = 1.0
        for k in range(1, N_TERMS):
            inv[..., k] = -np.einsum("...i,...i->...", a[..., 1 : k + 1], inv[..., k - 1 :: -1])
        self._inv = LaurentSeries(inv / lead, -(self.offset + val))
        return self._inv

    def derivative(self, k: int):
        """The k-th derivative; its finite part is k! times the coefficient of power k."""
        powers = self.offset + np.arange(N_TERMS)
        falling = np.ones(N_TERMS)
        for i in range(k):
            falling *= powers - i
        return LaurentSeries(self.coeffs * falling, self.offset - k)

    # -- extraction ---------------------------------------------------

    @staticmethod
    def _per_row(values):
        """A float or bool for one series, the array for a batch."""
        return values.item() if values.ndim == 0 else values

    def _scale(self):
        """Per-row size of the coefficients up to power 0 (offset < 0), at least 1."""
        upto_zero = self.coeffs[..., : 1 - self.offset]
        return np.maximum(np.max(np.abs(upto_zero), axis=-1), 1.0)

    def finite_part(self):
        """Coefficient of power 0 (the one-sided limit when no pole survives)."""
        k = -self.offset
        if 0 <= k < N_TERMS:
            return self._per_row(self.coeffs[..., k])
        return self._per_row(np.zeros(self.coeffs.shape[:-1]))

    def pole_strength(self):
        """Largest surviving negative-power coefficient, relative to scale."""
        if self.offset >= 0:
            return self._per_row(np.zeros(self.coeffs.shape[:-1]))
        neg = self.coeffs[..., : -self.offset]
        return self._per_row(np.max(np.abs(neg), axis=-1) / self._scale())

    def has_pole(self):
        return self._per_row(np.asarray(self.pole_strength() > _POLE_DUST))

    def __repr__(self):
        return f"LaurentSeries(offset={self.offset}, coeffs={self.coeffs!r})"


class _TermsSeries(_Series):
    """Power series c_0 + c_1 h + ... stored terms-first, the ring of both types below.

    A binary operation keeps the shorter operand's number of terms and
    writes into neither operand's terms, which may be views of the caller's
    arrays. ``_CONSTANTS`` names what a subclass takes as a constant.
    """

    __slots__ = ("terms", "_inv")
    _CONSTANTS = ()

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._inv = None

    def __add__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            return cls(a + b for a, b in zip(self.terms, other.terms))
        if isinstance(other, self._CONSTANTS):
            return cls((self.terms[0] + other, *self.terms[1:]))
        return NotImplemented

    def __neg__(self):
        return type(self)(-c for c in self.terms)

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            a, b = self.terms, other.terms
            # the triangular Cauchy sum, one power at a time
            out = []
            for k in range(min(len(a), len(b))):
                total = a[0] * b[k]
                for i in range(1, k + 1):
                    total += a[i] * b[k - i]
                out.append(total)
            return cls(out)
        if isinstance(other, self._CONSTANTS):
            return cls(c * other for c in self.terms)
        return NotImplemented

    def _inverse(self):
        if self._inv is None:
            a = self.terms
            lead = a[0]._inverse() if isinstance(a[0], _Series) else 1.0 / a[0]
            inv = [lead]
            for k in range(1, len(a)):
                total = a[1] * inv[k - 1]
                for i in range(2, k + 1):
                    total += a[i] * inv[k - i]
                inv.append(-(lead * total))
            self._inv = type(self)(inv)
        return self._inv


class TaylorSeries(_TermsSeries):
    """Power series sum_k c_k h^k about every point of an array; its constants are scalars.

    Every operation is elementwise, so a point's coefficients do not depend
    on the batch it is evaluated in.
    """

    __slots__ = ("exponent",)  # exp() sets it to its argument
    _CONSTANTS = _SCALARS

    @classmethod
    def from_derivatives(cls, derivs):
        """Series with coefficients derivs[m] / m! (Taylor data at every point)."""
        return cls(d if m < 2 else d / _FACTORIALS[m] for m, d in enumerate(derivs))

    def head(self, n: int):
        """The first n terms, with the inverse's first n if it is already known."""
        if n >= len(self.terms):
            return self
        out = TaylorSeries(self.terms[:n])
        if self._inv is not None:
            out._inv = self._inv.head(n)
        return out

    def derivative(self, k: int):
        """The series of the k-th derivative: one term fewer per order."""
        if k == 0:
            return self
        return TaylorSeries(
            c * (_FACTORIALS[m + k] / _FACTORIALS[m]) for m, c in enumerate(self.terms[k:])
        )

    def integral(self, c0):
        """The series whose derivative is self and whose constant term is c0: one term more."""
        return TaylorSeries((c0, *(c / (m + 1) for m, c in enumerate(self.terms))))

    # exp, sin/cos and u**r by the recurrences of their differential
    # equations (Griewank & Walther, ch. 13); y' = u' g(y) is _rate's

    def exp(self):
        u, y = self.terms, [np.exp(self.terms[0])]
        for k in range(1, len(u)):
            y.append(_rate(u, y, k))
        out = TaylorSeries(y)
        out.exponent = self
        return out

    def sin_cos(self):
        u, s, c = self.terms, [np.sin(self.terms[0])], [np.cos(self.terms[0])]
        for k in range(1, len(u)):
            s.append(_rate(u, c, k))
            c.append(-_rate(u, s, k))
        return TaylorSeries(s), TaylorSeries(c)

    def power(self, r: float):
        """u**r for a real r: u y' = r u' y gives u_0 k y_k = sum_{j=1..k} (r j - (k - j)) u_j y_(k-j).

        u_j r j is taken in the precision of the terms, not as (r j) u_j.
        """
        u, y = self.terms, [self.terms[0] ** r]
        for k in range(1, len(u)):
            y.append(sum((u[j] * r * j - (k - j) * u[j]) * y[k - j] for j in range(1, k + 1)) / (k * u[0]))
        return TaylorSeries(y)


def _rate(u, g, k):
    """sum_{j=1..k} j u_j g_(k-j) / k: term k of y where y' = u' g."""
    return sum(j * u[j] * g[k - j] for j in range(1, k + 1)) / k


class TimeSeries(_TermsSeries):
    """Power series q_0 + q_1 t + ... whose terms are Taylor or Laurent series in x.

    Anything but a TimeSeries is constant in t; only q_0 is inverted as a series in x.
    """

    __slots__ = ()
    _CONSTANTS = object
