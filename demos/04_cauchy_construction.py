# The initial-value construction: from fields along a CR submanifold to a
# gradient system on a neighbourhood, via complex-time flow coordinates and
# the P/Q matrix frame.

import numpy as np

from cgsys import (
    FlowConfig, build_dF, build_F, check_cr_transverse, compute_PQA, construct_fields,
    grid_queries, load_builtin, param_samples, solve,
)

cfg = FlowConfig()

# --- the flat line case ------------------------------------------------------
line = load_builtin("line")
data = line.cr
t = data.table.at(param_samples(data, 25, 0))
print("transverse?", check_cr_transverse(data, t).transverse)

# F(s, u) flows the point sigma(s) = s on the real axis for imaginary time.
# It maps stacks of rows (s, u), here a stack of one, to the chart points
# and, per row, None or the error that refuses it:
F = build_F(data, cfg)
points, errors = F(np.array([[0.3]]), np.array([[0.4]]))
print("F(0.3, 0.4) =", points[0], " (= 0.3 + 0.4i)")

# Inverting F at an ambient point gives the equation of M: U(x + iy) = -y.
# solve inverts F at a stack of query points; its record of each carries
# the parameters p, the flow times u and U = -u.
[rec] = solve(data, [[0.25, -0.4]], cfg).records
print("U(0.25 - 0.4i) =", rec.U, " parameters:", rec.params)

# --- the nilpotent group -------------------------------------------------------
sf = load_builtin("heisenberg-cr")
data = sf.cr

# On M the frame matrices are trivial: P = identity, Q = 0.  The frame is
# built on the exact Jacobian of F (one block matrix exponential);
# compute_PQA runs dF and the frame on (p, u) as a stack of one row.
dF = build_dF(data, cfg)
frame0 = compute_PQA(data, dF, np.array([0.2, -0.1, 0.4]), np.zeros(3), cfg)
print("P on M:\n", np.round(frame0.P, 12))
print("Q on M:\n", np.round(frame0.Q, 12))

# Off M the construction produces the extending fields; they match the
# closed forms recorded in the oracle section of the gallery file.
frame = compute_PQA(data, dF, np.array([0.2, -0.1, 0.4]),
                    np.array([0.2, 0.1, 0.0]), cfg)
built = construct_fields(frame)
grads, fields = sf.oracle
ref = np.array([f.program(frame.ambient[None])[0] for f in fields])
print("max field deviation from closed form:",
      np.max(np.abs(built.xi_ambient - ref)))

# The full pipeline over a grid of queries near the group:
queries = grid_queries(data, [np.linspace(-0.5, 0.5, 3)] * 3, cfg=cfg)
sol = solve(data, queries, cfg, oracle=sf.oracle)
print(f"{len(sol.records)} queries, all resolved: {sol.ok}")
print("max gradient-map deviation:", sol.max_oracle_dU)
print("max field deviation:       ", sol.max_oracle_dxi)
