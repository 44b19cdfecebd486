"""Symbolic derivation of the jet recursion, and the writer of its generated module.

The momentum equation solved pointwise for the acceleration,

    v_t = (rho0_x/rho0) v_x / eta_x^2 + v_xx / eta_x^2 - 2 v_x eta_xx / eta_x^3
          - 2 rho0_x / eta_x^2 + 2 rho0 eta_xx / eta_x^3,

is differentiated in time symbolically (eta_t = v closes the recursion), which
expresses a0 = v_t, b0 = v_tt and c0 = v_ttt as rational functions of the
profile (r*), the velocity (w*), the flow map (j*) and the x-derivatives of
the earlier outputs (a*, b*); the digit is the order of the spatial
derivative. The x-derivatives a1..a4 and b1, b2 are not derived here:
``svfree.jet`` reads them off the Taylor series of a0 and b0.

``render()`` prints each output with sympy's plain-operator ("math") printer
and common-subexpression elimination into one table, and returns the source
of ``_jet_generated.py``, which ``svfree.jet`` runs without sympy. Rewrite that
module after changing the derivation with::

    PYTHONPATH=src python -m svfree._jet_derive
"""

from __future__ import annotations

import inspect
from pathlib import Path

import sympy as sp

DEPTH = 7
_R = sp.symbols(f"r0:{DEPTH}")
_W = sp.symbols(f"w0:{DEPTH}")
_J = sp.symbols(f"j0:{DEPTH}")
_A = sp.symbols(f"a0:{DEPTH}")
_B = sp.symbols(f"b0:{DEPTH}")
_FAMILIES = (_R, _W, _J, _A, _B)
_ALL_SYMBOLS = tuple(s for fam in _FAMILIES for s in fam)

GENERATED = Path(__file__).with_name("_jet_generated.py")

_HEADER = '''"""The jet recursion outputs as plain Python functions. Generated: do not edit.

Rewrite with ``PYTHONPATH=src python -m svfree._jet_derive``. Each function is
the source that ``sympy.lambdify(ARGUMENTS, expr, "math", cse=True)`` prints
for one output of ``svfree._jet_derive``: only arithmetic operators, so one
function runs on floats and on the Taylor and Laurent series of
``svfree._series`` alike. The one table, ``PRESSURE``, lists the three
outputs of the momentum equation with its pressure term in evaluation order:
a0 = v_t needs only the r, w and j arguments, b0 = v_tt also consumes a1 and
a2, and c0 = v_ttt consumes a1, a2, b1 and b2. ``svfree.jet`` reads those
x-derivatives off the series of a0 and b0.
"""

'''


def _dt(expr):
    rate = {}
    for k in range(DEPTH):
        rate[_W[k]] = _A[k]
        rate[_A[k]] = _B[k]
        if k >= 1:
            rate[_J[k]] = _W[k]
    total = sp.Integer(0)
    for s in expr.free_symbols:
        if s in rate:
            total += sp.diff(expr, s) * rate[s]
    return total


def _expressions() -> dict:
    """The three recursion outputs, in evaluation order."""
    r0, r1 = _R[0], _R[1]
    w1, w2 = _W[1], _W[2]
    j1, j2 = _J[1], _J[2]
    accel = ((r1 * w1 / r0 + w2) / j1**2 - 2 * w1 * j2 / j1**3
             - 2 * r1 / j1**2 + 2 * r0 * j2 / j1**3)
    exprs = {"a0": accel}
    exprs["b0"] = _dt(exprs["a0"])
    exprs["c0"] = _dt(exprs["b0"])
    return exprs


def render() -> str:
    """The source of ``_jet_generated.py``."""
    names = [[s.name for s in fam] for fam in _FAMILIES]
    parts = [
        _HEADER,
        f"DEPTH = {DEPTH}\n\n",
        "ARGUMENTS = (\n",
        *(f"    {', '.join(repr(n) for n in fam)},\n" for fam in names),
        ")\n",
    ]
    exprs = _expressions()
    for name, expr in exprs.items():
        # the plain-operator "math" printer writes integer powers and 1/x,
        # so one function serves numpy rows and both series types; cse
        # hoists the shared Jacobian/profile powers, which matters a lot
        # for the series arithmetic
        fn = sp.lambdify(_ALL_SYMBOLS, expr, "math", cse=True)
        source = inspect.getsource(fn).replace("_lambdifygenerated", f"_pressure_{name}", 1)
        parts.append(f"\n\n{source}")
    parts.append("\n\nPRESSURE = {\n")
    parts.extend(f'    "{name}": _pressure_{name},\n' for name in exprs)
    parts.append("}\n")
    return "".join(parts)


if __name__ == "__main__":
    GENERATED.write_text(render())
