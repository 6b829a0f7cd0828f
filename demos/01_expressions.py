# Expression trees: parsing, evaluation, exact structural derivatives.
#
# Everything in the package computes with these trees, so this is the place
# to see the grammar and the derivative engine in isolation.

from cgsys import parse_expr, evaluate, diff, to_string
from cgsys.expr import DomainError

# The grammar: + - * / ^ with standard precedence, ^ binding above unary
# minus, functions sin cos tan atan exp log sqrt and two-argument atan2.
e = parse_expr("y3 + x1*y2")
print("tree:", repr(e))
print("printed back:", to_string(e))

# Evaluation is plain IEEE double arithmetic over a name -> value mapping:
# the tree is compiled to the package's one tape and run on one point.
env = {"x1": 2.0, "y2": 3.0, "y3": -1.0}
print("value at", env, "=", evaluate(e, env))

# Derivatives are structural, not finite differences: nested second
# derivatives stay exact, which is what the curvature-like residuals need.
f = parse_expr("atan(y1/x1)")
df = diff(f, "y1")
print("d/dy1 atan(y1/x1) =", to_string(df))
print("value at x1=1, y1=1:", evaluate(df, {"x1": 1.0, "y1": 1.0}))  # 0.5

d2 = diff(df, "y1")
print("second derivative:", to_string(d2))
print("value at x1=1, y1=1:", evaluate(d2, {"x1": 1.0, "y1": 1.0}))  # -0.5

# Domain faults surface as errors naming the node and the point, never as
# NaN; the one point is point 0, so this prints
# "division by zero in 'x1/x2' at point 0 (x1=1.0, x2=0.0)".
try:
    evaluate(parse_expr("x1/x2"), {"x1": 1.0, "x2": 0.0})
except DomainError as err:
    print("domain error:", err)
