# Chart calculus: the complex structure J, the differentials d and d^c,
# Lie brackets, and the dd^c bracket identity, shown on the nilpotent-group
# system from the gallery.

import numpy as np

from cgsys import Span, apply_J, is_holomorphic, load_builtin, to_string

sys_ = load_builtin("heisenberg").system
x1, x2, x3 = sys_.fields
print("fields:")
for i, f in enumerate(sys_.fields, start=1):
    print(f"  xi_{i} components:", [to_string(c) for c in f.components])

# J rotates coordinate directions: d/dx_mu -> d/dy_mu -> -d/dx_mu.
print("J xi_2 components:", [to_string(c) for c in apply_J(x2).components])

# Every value below comes from the system's check table, evaluated over a
# stack of points (here a stack of one): the fields' jets are compiled once,
# and d, d^c, the brackets and the dd^c terms are composed from them.
p = np.array([0.4, -0.3, 0.7, 0.2, -0.1, 0.5])
table = sys_.table
t = table.at(p[None])

# The defining identities of a gradient system; d[a, b] = du_(a+1)(xi_(b+1)):
print("du_3(xi_1) =", t["d"][0, 2, 0], " (should be 0)")
print("d^c u_3(xi_3) =", t["dc"][0, 2, 2], " (should be 1)")
print("d^c u_1(xi_2) =", t["dc"][0, 0, 1], " (should be 0)")

# The only nonzero bracket of this algebra: [xi_1, xi_2] = xi_3.  The
# frame's columns are xi_1..xi_3, J xi_1..J xi_3.
xi12 = table.row[(0, 1)]
print("[xi_1, xi_2](p) - xi_3(p) =", t["bracket"][0, :, xi12] - t["frame"][0, :, 2])

# dd^c through the three-term identity collapses onto the bracket:
ddc = t["t1"] - t["t2"] - t["t3"]
print("dd^c u_3(xi_1, xi_2) =", ddc[0, xi12, 2], " (should be -1)")

# The frame xi_a, J xi_a spans six independent directions and is involutive:
# one factorization of the frame gives its rank and the part of each bracket
# [frame_i, frame_j], i < j, outside its span.
span = Span(t["frame"])
print("frame rank:", span.rank[0])
print("frame involutivity defect:", span.residuals(t["bracket"]).max())

# The field coefficients mix z and conjugate-z, so the complexified field
# (xi_1 - i J xi_1)/2 is not holomorphic; the residual is the constant 1/2
# from the i*y2 term.  is_holomorphic takes the real field and complexifies it.
ok, worst = is_holomorphic(x1, p[None])
print("xi_1 holomorphic?", ok, " residual:", worst)
