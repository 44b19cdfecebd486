"""The jet recursion outputs as plain Python functions. Generated: do not edit.

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

DEPTH = 7

ARGUMENTS = (
    'r0', 'r1', 'r2', 'r3', 'r4', 'r5', 'r6',
    'w0', 'w1', 'w2', 'w3', 'w4', 'w5', 'w6',
    'j0', 'j1', 'j2', 'j3', 'j4', 'j5', 'j6',
    'a0', 'a1', 'a2', 'a3', 'a4', 'a5', 'a6',
    'b0', 'b1', 'b2', 'b3', 'b4', 'b5', 'b6',
)


def _pressure_a0(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    return 2*j2*r0*x1 - 2*j2*w1*x1 - 2*r1*x0 + x0*(w2 + r1*w1/r0)


def _pressure_b0(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = r1/r0
    x4 = 6*j2/j1**4
    return a1*(-j2*x2 + x0*x3) + a2*x0 + w1*(-r0*x4 + 4*r1*x1 + w1*x4 - x2*(w1*x3 + w2)) + w2*(r0*x2 - w1*x2)


def _pressure_c0(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = 4*x1
    x4 = r1/r0
    x5 = j1**(-4)
    x6 = 6*x5
    x7 = -r0*x6 + 6*w1*x5
    x8 = j2*x6
    x9 = w1*x4 + w2
    x10 = 6*j2*x5 - x2*x4
    x11 = j1**(-5)
    return a1*(-r0*x8 + r1*x3 + w1*x10 + w1*x8 - w2*x2 - x2*x9) + a2*(r0*x2 - w1*x3) + b1*(-j2*x2 + x0*x4) + b2*x0 + w1*(a1*x10 - a2*x2 + w1*(24*j2*r0*x11 - 24*j2*w1*x11 - 12*r1*x5 + 6*x5*x9) + w2*x7) + w2*(-a1*x2 + w1*x7)


PRESSURE = {
    "a0": _pressure_a0,
    "b0": _pressure_b0,
    "c0": _pressure_c0,
}
