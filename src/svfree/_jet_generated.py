"""The jet recursion outputs as plain Python functions. Generated: do not edit.

Rewrite with ``PYTHONPATH=src python -m svfree._jet_derive``. Each function is
the source that ``sympy.lambdify(ARGUMENTS, expr, "math", cse=True)`` prints
for one output of ``svfree._jet_derive``: only arithmetic operators, so one
function runs on floats, numpy rows and LaurentSeries alike. The one table,
``PRESSURE``, lists the nine outputs of the momentum equation with its
pressure term in evaluation order: a* need only the r, w and j arguments, b*
also consume a-outputs, and c0 consumes b-outputs.
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


def _pressure_a1(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = 1/r0
    x4 = -j2*x2
    x5 = r1*x0
    x6 = 6*j2/j1**4
    return j2*(-r0*x6 + 4*r1*x1 + w1*x6 - x2*(r1*w1*x3 + w2)) + j3*(r0*x2 - w1*x2) + r1*(-x4 - w1*x5/r0**2) + r2*(w1*x0*x3 - 2*x0) + w2*(x3*x5 + x4) + w3*x0


def _pressure_a2(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = w1*x2
    x4 = 2*x0
    x5 = 1/r0
    x6 = 4*x1
    x7 = x0*x5
    x8 = r0**(-2)
    x9 = r1*x8
    x10 = w1*x4
    x11 = w1*x5
    x12 = -x11*x2 + x6
    x13 = j3*x2
    x14 = r1**2
    x15 = x0*x8
    x16 = j1**(-4)
    x17 = 6*x16
    x18 = -j2*x17
    x19 = -r1*x2*x5 - x18
    x20 = r0*x17
    x21 = r1*x11 + w2
    x22 = 6*w1*x16 - x20
    x23 = x18 + x3*x9
    x24 = j1**(-5)
    return j2*(j2*(24*j2*r0*x24 - 24*j2*w1*x24 - 12*r1*x16 + 6*x16*x21) + j3*x22 + r1*x23 + r2*x12 + w2*x19 - w3*x2) + j3*(j2*w1*x17 - j2*x20 + j2*x22 + 6*r1*x1 - w2*x2 - x2*x21) + j4*(r0*x2 - x3) + r1*(j2*x23 - r1*w2*x15 - r2*w1*x15 + x13 + x10*x14/r0**3) + r2*(j2*x12 + j2*x2 + w2*x7 - x10*x9) + r3*(w1*x0*x5 - x4) + w2*(j2*x19 + r2*x7 - x13 - x14*x15) + w3*(-j2*x6 + r1*x7) + w4*x0


def _pressure_a3(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = w1*x2
    x4 = 2*x0
    x5 = 1/r0
    x6 = 6*x1
    x7 = x0*x5
    x8 = j2*x2
    x9 = x4*x5
    x10 = r0**(-2)
    x11 = x0*x10
    x12 = r1*x11
    x13 = 3*w1
    x14 = 4*x1
    x15 = w1*x5
    x16 = -x15*x2
    x17 = x14 + x16
    x18 = 2*j2
    x19 = j1**(-4)
    x20 = 6*x19
    x21 = r0*x20
    x22 = w1*x20
    x23 = r1*x15 + w2
    x24 = 6*w1*x19 - x21
    x25 = r1**2
    x26 = x10*x25
    x27 = -j2*x20
    x28 = r1*x5
    x29 = x2*x28
    x30 = -x27 - x29
    x31 = 12*x19
    x32 = -j2*x31
    x33 = -x29 - x32
    x34 = j4*x2
    x35 = r1*x10
    x36 = -x35*x4 - x5*x8
    x37 = r2*x11
    x38 = r0**(-3)
    x39 = x25*x38
    x40 = x39*x4
    x41 = x35*x8 - x37 + x40
    x42 = j3*x20
    x43 = x2*x5
    x44 = j1**(-5)
    x45 = 24*x44
    x46 = -j2*x45
    x47 = x20*x28 + x46
    x48 = j2*x47 - r2*x43 + x2*x26 + x42
    x49 = w2*x11
    x50 = x16 + x6
    x51 = x3*x35
    x52 = x27 + x51
    x53 = x10*x3
    x54 = w1*x0
    x55 = r1*x38
    x56 = j2*x53 - x49 + 4*x54*x55
    x57 = w1*x14
    x58 = 6*w1*x19*x5 - x31
    x59 = j2*x58 - w2*x43 + x27 + x35*x57
    x60 = x32 + x51
    x61 = x38*x4
    x62 = -x22*x35 - x46
    x63 = j2*x62 + r2*x53 + w2*x2*x35 - x39*x57 - x42
    x64 = w1*x45
    x65 = j2*x64
    x66 = r0*x45
    x67 = -x64 + x66
    x68 = j2*x66 + j2*x67 - 18*r1*x19 + w2*x20 + x20*x23 - x65
    x69 = 120*j2/j1**6
    return j2*(j2*(j2*(-r0*x69 + 48*r1*x44 + w1*x69 - x23*x45) + j3*x67 + r1*x62 + r2*x58 + w2*x47 + w3*x20) + j3*x68 + j4*x24 + r1*x63 + r2*x59 + r3*x17 + w2*x48 + w3*x33 - w4*x2) + j3*(j2*x68 + j2*(24*j2*r0*x44 - r1*x31 + 6*x19*x23 - x65) + j3*x24 + j3*(-r0*x31 + 12*w1*x19) + r1*x52 + r1*x60 + r2*x17 + r2*x50 + w2*x30 + w2*x33 - w3*x6) + j4*(-j2*x21 + j2*x22 + 8*r1*x1 - w2*x14 + x18*x24 - x2*x23) + j5*(r0*x2 - x3) + r1*(j2*x63 + j3*x60 + r1*(-j2*x55*x57 + r1*w2*x61 + r2*w1*x61 - 6*x25*x54/r0**4) + r2*x56 - r3*w1*x11 + w2*x41 - w3*x12 + x34) + r2*(j2*x52 + j2*x59 + j3*x2 + j3*x50 - r1*x49 + r1*x56 + w1*x40 + w2*x36 + w3*x7 - x13*x37) + r3*(w2*x9 - x12*x13 + x17*x18 + x8) + r4*(w1*x0*x5 - x4) + w2*(j2*x48 + j3*x33 + r1*x41 + r2*x36 + r3*x7 - x34) + w3*(j2*x30 + j2*x33 - j3*x6 + r2*x9 - x26*x4) + w4*(-j2*x6 + r1*x7) + w5*x0


def _pressure_a4(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = w1*x2
    x4 = 2*x0
    x5 = 1/r0
    x6 = 8*x1
    x7 = j2*x6
    x8 = x0*x5
    x9 = j2*x2
    x10 = 3*x8
    x11 = r0**(-2)
    x12 = x0*x11
    x13 = r1*x12
    x14 = 4*x13
    x15 = 4*x1
    x16 = w1*x5
    x17 = -x16*x2
    x18 = x15 + x17
    x19 = 3*j2
    x20 = 10*x1
    x21 = 6*x1
    x22 = j1**(-4)
    x23 = 6*x22
    x24 = r0*x23
    x25 = w1*x23
    x26 = j2*x25
    x27 = r1*x16 + w2
    x28 = 6*w1*x22 - x24
    x29 = 12*x1
    x30 = r1**2
    x31 = j2*x23
    x32 = -x31
    x33 = r1*x5
    x34 = x2*x33
    x35 = -x32 - x34
    x36 = 12*x22
    x37 = -j2*x36
    x38 = -x34 - x37
    x39 = 18*x22
    x40 = -j2*x39
    x41 = -x34 - x40
    x42 = 36*j2*x22 - x15*x33
    x43 = x15*x5
    x44 = j2*x43
    x45 = -x14 - x44
    x46 = r1*x11
    x47 = -x4*x46 - x5*x9
    x48 = x11*x4
    x49 = x15*x46
    x50 = r0**(-3)
    x51 = x30*x50
    x52 = 4*x0
    x53 = j2*x49 - r2*x48 + x51*x52
    x54 = r2*x12
    x55 = x4*x51
    x56 = x46*x9 + x55
    x57 = -x54 + x56
    x58 = j3*x23
    x59 = r2*x5
    x60 = x11*x30
    x61 = j1**(-5)
    x62 = 24*x61
    x63 = j2*x62
    x64 = -x63
    x65 = x23*x33
    x66 = x64 + x65
    x67 = j2*x66
    x68 = -x2*x59 + x2*x60 + x58 + x67
    x69 = j3*x39
    x70 = 48*x61
    x71 = j2*x70
    x72 = -x71
    x73 = x65 + x72
    x74 = j2*x73 - x15*x59 + x15*x60 + x67 + x69
    x75 = j3*x2
    x76 = w2*x12
    x77 = x17 + x21
    x78 = -x15*x16 + x20
    x79 = x3*x46
    x80 = x32 + x79
    x81 = -3*x13 - x44
    x82 = j2*w1
    x83 = x15*x82
    x84 = r1*x50
    x85 = 6*x0
    x86 = w1*x85
    x87 = -w2*x48 + x11*x83 + x84*x86
    x88 = x11*x3
    x89 = x52*x84
    x90 = j2*x88 + w1*x89 - x76
    x91 = x2*x5
    x92 = -6*w1*x22*x5
    x93 = -x36 - x92
    x94 = j2*x93
    x95 = w1*x49 - w2*x91 + x32 + x94
    x96 = -w2*x43
    x97 = w1*x21
    x98 = x32 + x46*x97 + 2*x94 + x96
    x99 = -r0*x39 + 18*w1*x22
    x100 = x17 + x6
    x101 = x40 + x79
    x102 = x37 + x79
    x103 = r1*x36
    x104 = w1*x62
    x105 = j2*x104
    x106 = r0*x62
    x107 = -x104 + x106
    x108 = j2*x107
    x109 = w2*x23
    x110 = j2*x106 - x105 + x23*x27
    x111 = -r1*x39 + x108 + x109 + x110
    x112 = r1*x22
    x113 = 2*x108
    x114 = w2*x36 + x110 - 24*x112 + x113
    x115 = j5*x2
    x116 = x31*x5 + x49
    x117 = x11*x9 + x89
    x118 = j2*x116 + r1*x117 - x5*x75 - 3*x54 + x56
    x119 = r3*x12
    x120 = x15*x51
    x121 = 2*r2*x1*x11 - x120 - x31*x46
    x122 = x15*x84
    x123 = r0**(-4)
    x124 = x123*x30*x85
    x125 = -j2*x122 + 2*r2*x0*x50 - x124
    x126 = j2*x121 + r1*x125 + r2*x117 - x119 + x46*x75
    x127 = j4*x23
    x128 = j3*x62
    x129 = j1**(-6)
    x130 = 120*x129
    x131 = -j2*x130
    x132 = -x131 - x33*x62
    x133 = j2*x132 - x128 + x23*x59 - x23*x60
    x134 = j2*x133 + j3*x73 + r1*x121 + r2*x116 - r3*x91 + x127
    x135 = w3*x12
    x136 = w1*x11
    x137 = 12*w1*x0
    x138 = x4*x50
    x139 = r1*w2*x138 - w1*x124 - x122*x82
    x140 = r2*x11
    x141 = x25*x46
    x142 = -x141 - x64
    x143 = j2*x142
    x144 = x11*x2
    x145 = r1*w2*x144 - w1*x120 + x143 - x58
    x146 = x140*x3 + x145
    x147 = w1*x6
    x148 = -x39 - x92
    x149 = j2*x148 + x147*x46 + x40 + x94 + x96
    x150 = 2*w2*x1*x11 - x11*x26 - x147*x84
    x151 = -r1*x123*x137 + 2*w2*x0*x50 - x50*x83
    x152 = r2*x50
    x153 = j2*x150 + j3*x88 + r1*x151 + w2*x117 - x135 + x139 + x152*x86
    x154 = -x16*x62 + x70
    x155 = j2*x154 - x103*x136 + x109*x5 + x63
    x156 = j2*x155 + j3*x148 + r1*x150 + w2*x116 - w3*x91 + x140*x97 + x145
    x157 = w1*x15
    x158 = -x141 - x72
    x159 = j2*x158 + w2*x49 + x140*x157 + x143 - x147*x51 - x69
    x160 = r1*w3
    x161 = 12*j2*r1*w1*x22*x50 + 12*w1*x1*x123*x30 - w2*x122 - x152*x157
    x162 = x123*x85
    x163 = x104*x46 + x131
    x164 = j2*x163 + w1*x36*x51 - x109*x46 + x128 - x140*x25
    x165 = j2*x164 + j3*x158 + r1*x161 + r2*x150 + r3*x88 + w2*x121 - x127 + x144*x160
    x166 = r0*x70 - w1*x70
    x167 = r0*x130
    x168 = j2*w1*x130 - j2*x167 - x27*x62
    x169 = j2*(r1*x70 + x168) + j3*x107 + r1*x142 + r2*x93 + w2*x66
    x170 = 120*w1*x129 - x167
    x171 = j2*x170 + 72*r1*x61 - w2*x62 + x168
    x172 = j2*x171 + j3*x166 + r1*x158 + r2*x148 + w2*x73 + w3*x39 + x169
    x173 = j1**(-7)
    return j2*(j2*(j2*(j2*(720*j2*r0*x173 - 240*r1*x129 + 120*x129*x27 - 720*x173*x82) + j3*x170 + r1*x163 + r2*x154 + w2*x132 - w3*x62) + j3*x171 + j4*x107 + r1*x164 + r2*x155 + r3*x93 + w2*x133 + w3*x73 + w4*x23) + j3*x172 + j4*x114 + j5*x28 + r1*x165 + r2*x156 + r3*x98 + r4*x18 + w2*x134 + w3*x74 + w4*x41 - w5*x2) + j3*(j2*x172 + j2*(w3*x23 + x169) + j3*x111 + j3*(j2*x166 + r0*x71 - w1*x71 + 24*w2*x22 - 48*x112 + x113 + x27*x36) + j4*x28 + j4*x99 + r1*x146 + r1*x159 + r2*x149 + r2*x95 + r3*x18 + r3*x78 + w2*x68 + w2*x74 + w3*x38 + w3*x42 - w4*x6) + j4*(j2*x111 + j2*x114 + j2*(24*j2*r0*x61 - x103 - x105 + 6*x22*x27) + j3*x28 + j3*x99 + j3*(-r0*x36 + 12*w1*x22) + r1*x101 + r1*x102 + r1*x80 + r2*x100 + r2*x18 + r2*x77 + w2*x35 + w2*x38 + w2*x41 - w3*x29) + j5*(-j2*x24 + r1*x20 - w2*x21 + x19*x28 - x2*x27 + x26) + j6*(r0*x2 - x3) + r1*(j2*x165 + j3*x159 + j4*x101 + r1*(j2*x161 - j3*w1*x122 + r1*(12*j2*r1*w1*x1*x123 - r1*w2*x162 - r2*w1*x162 + 24*w1*x0*x30/r0**5) + r2*x151 + r3*w1*x138 + w2*x125 + x138*x160) + r2*x153 + r3*x87 - r4*w1*x12 + w2*x126 + w3*x53 - w4*x13 + x115) + r2*(j2*x146 + j2*x156 + j3*x102 + j3*x149 + j4*x100 + j4*x2 - r1*x135 + r1*x153 + r1*(r2*w1*x138 + x139) + r2*x90 + r2*(x136*x7 + x137*x84 - 4*x76) - 4*w1*x119 + w2*x118 + w2*x57 + w3*x45 + w4*x8) + r3*(j2*x80 + j2*x95 + j2*x98 + j3*x77 + j3*x78 - r1*x76 + r1*x87 + r1*x90 - 6*w1*x54 + w1*x55 + w2*x47 + w2*x81 + w3*x10 + x75) + r4*(-w1*x14 + w2*x10 + x18*x19 + x9) + r5*(w1*x0*x5 - x4) + w2*(j2*x134 + j3*x74 + j4*x41 + r1*x126 + r2*x118 + r3*x81 + r4*x8 - x115) + w3*(j2*x68 + j2*x74 + j3*x38 + j3*x42 - j4*x6 + r1*x53 + r1*x57 + r2*x45 + r2*x47 + r3*x10) + w4*(j2*x35 + j2*x38 + j2*x41 - j3*x29 + r2*x10 - 3*x12*x30) + w5*(r1*x8 - x7) + w6*x0


def _pressure_b0(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = r1/r0
    x4 = 6*j2/j1**4
    return a1*(-j2*x2 + x0*x3) + a2*x0 + w1*(-r0*x4 + 4*r1*x1 + w1*x4 - x2*(w1*x3 + w2)) + w2*(r0*x2 - w1*x2)


def _pressure_b1(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = 4*x1
    x4 = 1/r0
    x5 = r1*x4
    x6 = j1**(-4)
    x7 = 6*x6
    x8 = -r0*x7 + 6*w1*x6
    x9 = a1*x0
    x10 = w1*x2
    x11 = w2*x2
    x12 = r1/r0**2
    x13 = j2*x7
    x14 = -x13
    x15 = w1*x5 + w2
    x16 = -x14 - x2*x5
    x17 = j1**(-5)
    return a2*(-j2*x2 + x0*x5) + a3*x0 + j2*(a1*x16 - a2*x2 + w1*(24*j2*r0*x17 - 24*j2*w1*x17 - 12*r1*x6 + 6*x15*x6) + w2*x8) + j3*(-a1*x2 + w1*x8) + r1*(w1*(x10*x12 + x14) + x11 - x12*x9) + r2*(w1*(-x10*x4 + x3) + x4*x9) + w2*(-r0*x13 + r1*x3 + w1*x13 + w1*x16 - x11 - x15*x2) + w3*(r0*x2 - w1*x3)


def _pressure_b2(r0, r1, r2, r3, r4, r5, r6, w0, w1, w2, w3, w4, w5, w6, j0, j1, j2, j3, j4, j5, j6, a0, a1, a2, a3, a4, a5, a6, b0, b1, b2, b3, b4, b5, b6):
    x0 = j1**(-2)
    x1 = j1**(-3)
    x2 = 2*x1
    x3 = 4*x1
    x4 = w1*x3
    x5 = 1/r0
    x6 = x0*x5
    x7 = a1*x2
    x8 = j1**(-4)
    x9 = 6*x8
    x10 = r0*x9
    x11 = 6*w1*x8 - x10
    x12 = r0**(-2)
    x13 = x0*x12
    x14 = j2*x9
    x15 = -x14
    x16 = r1*x5
    x17 = -x15 - x16*x2
    x18 = 6*x1
    x19 = w1*x16 + w2
    x20 = 12*w1*x8 - x10
    x21 = a1*x13
    x22 = x3 - x4*x5
    x23 = w1**2
    x24 = 2*x1*x12*x23 - x21
    x25 = 12*x8
    x26 = w1*(6*w1*x5*x8 - x25) - x5*x7
    x27 = w1*x9
    x28 = r1*x27
    x29 = j1**(-5)
    x30 = 24*x29
    x31 = r0*x30 - w1*x30
    x32 = a1*x9 + w1*x31
    x33 = r1*x25
    x34 = j2*x30
    x35 = w1*x34
    x36 = r1*x12
    x37 = x15 + x36*x4
    x38 = r1/r0**3
    x39 = w2*x9
    x40 = -x34
    x41 = w1*(-x12*x28 - x40) + x36*x7 - x39
    x42 = x16*x9 + x40
    x43 = r0*x34 + w1*x42 + x19*x9 - x33 - x35 + x39
    x44 = 120*j2/j1**6
    return a2*(j2*x17 - j3*x2 - r1**2*x13 + r2*x6) + a3*(-j2*x3 + r1*x6) + a4*x0 + j2*(a2*x17 - a3*x2 + j2*(a1*x42 + a2*x9 + w1*(-r0*x44 + 48*r1*x29 + w1*x44 - x19*x30) + w2*x31) + j3*x32 + r1*x41 + r2*x26 + w2*x43 + w3*x20) + j3*(a1*x17 - a2*x3 + j2*x32 + w1*(24*j2*r0*x29 + 6*x19*x8 - x33 - x35) + w2*x11 + w2*x20 - x28) + j4*(w1*x11 - x7) + r1*(-a2*r1*x13 + j2*x41 - j3*x27 + r1*(2*a1*x0*x38 - x23*x3*x38) + r2*x24 + w2*x37 + w3*x2) + r2*(a2*x6 + j2*x26 - r1*x21 + r1*x24 + w1*(r1*w1*x12*x2 + x15) + w2*x2 + w2*x22) + r3*(a1*x6 + w1*(-w1*x2*x5 + x3)) + w2*(j2*x43 + j3*x20 + r1*x37 + r2*x22 + w2*(12*j2*x8 - x16*x3) - w3*x3) + w3*(j2*x20 - r0*x14 + r1*x18 + w1*x14 + w1*x17 - w2*x18 - x19*x2) + w4*(r0*x2 - x4)


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
    "a1": _pressure_a1,
    "a2": _pressure_a2,
    "a3": _pressure_a3,
    "a4": _pressure_a4,
    "b0": _pressure_b0,
    "b1": _pressure_b1,
    "b2": _pressure_b2,
    "c0": _pressure_c0,
}
