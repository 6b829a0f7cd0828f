# Flows: fixed-step 8th-order Runge-Kutta in real time, exact matrix products on embedded
# groups, and complex-time flows of holomorphically extendable fields.

import numpy as np

from cgsys import (
    ComplexFlow, FlowConfig, MatrixGroupSpec, complexified_flow_matrix, flow_real,
    left_invariant_fields, matrix_exp,
)
from cgsys.geometry import ComplexChart, VectorField

cfg = FlowConfig()  # 32 Runge-Kutta steps per unit time; flow.DIVERGENCE_BOUND = 1e6

# A linear field integrates to the exponential: x' = x from x(0) = 1.
chart1 = ComplexChart.standard(1)
grow = VectorField.from_exprs(chart1, ["x1", "0"])
print("flow of x d/dx for t=1 from x=1:", flow_real(grow, [1.0, 0.0], 1.0, cfg))

# The nilpotent group: scaling-and-squaring matrix exponential terminates
# exactly on nilpotent algebra elements.
chart3 = ComplexChart.standard(3)
E1 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], float)
E2 = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], float)
E3 = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], float)
spec = MatrixGroupSpec(chart3, np.eye(3), ((0, 1), (1, 2), (0, 2)), (E1, E2, E3))
A = 0.5 * E1 + 0.25 * E2 + 0.125 * E3
print("exp(A)[0, 2] =", matrix_exp(A)[0, 2], " (exactly u3 + u1*u2/2 = 0.1875)")

# Left-invariant fields fall out of the embedding symbolically; flowing one
# with Runge-Kutta agrees with the closed-form product g exp(t E).  The group
# flow takes stacks of rows, start points g and algebra coefficients V (here
# a stack of one), and returns the points with each row's error or None.
L = left_invariant_fields(spec)
p = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
by_ode = flow_real(L[1], p, 1.0, cfg)
by_mat, errors = complexified_flow_matrix(spec, p[None], np.array([[0.0, 1.0, 0.0]]))
print("ODE flow:      ", by_ode)
print("matrix product:", by_mat[0])

# Complex time: purely imaginary time along the left-invariant frame leaves
# the real group and fills out the complexification.
out, errors = complexified_flow_matrix(spec, np.zeros((1, 6)), np.array([[0.3j, -0.5j, 0.2j]]))
print("imaginary-time point:", out[0])

# The same trip through the ODE route, allowed because the left-invariant
# coefficients are holomorphic.  ComplexFlow.rows flows a stack of start
# points, each for its own complex times (here a stack of one row):
ends, _, errors, _ = ComplexFlow([L[0]], cfg).rows(np.zeros((1, 6)), np.array([[0.3j]]))
print("single-direction ODE check:", ends[0])

# Fields whose complexification mixes conjugate coordinates are refused,
# row by row: the refused row's error comes back beside the stack's points.
bad = VectorField.from_exprs(chart3, ["1", "0", "0", "0", "0", "y2"])
_, _, errors, _ = ComplexFlow([bad], cfg).rows(np.zeros((1, 6)), np.array([[1j]]))
print("refused:", errors[0])
