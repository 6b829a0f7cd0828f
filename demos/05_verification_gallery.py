# Running the residual checks across the gallery: every identity the system
# axioms imply, classification flags, and one deliberately broken demo.

import numpy as np

from cgsys import (
    builtin_names, check_axioms, check_bracket_relations, check_commutation,
    check_decompositions, check_level_set, classify, load_builtin,
    sample_points,
)

for name in builtin_names():
    sf = load_builtin(name)
    if sf.system is None:
        continue
    sys_ = sf.system
    tol = sf.config.get("tol", 1e-9)
    rep = check_axioms(sys_, sys_.table.at(sample_points(sys_, 60, 7)), tol)
    cls = classify(sys_, sys_.table.at(sample_points(sys_, 30, 7)), max(tol, 1e-9))
    worst = max(c.max_residual for c in rep)
    passed = all(c.passed for c in rep)
    print(f"{name:<18} axioms {'pass' if passed else 'FAIL'} "
          f"(max {worst:.1e})  holomorphic={cls.holomorphic} "
          f"abelian={cls.abelian} harmonic={cls.harmonic}")

# Consequences come along for free once the axioms hold: bracket closure,
# the dd^c identities, commutation of the complexified fields, and the
# dimension splittings.
heis = load_builtin("heisenberg").system
for c in check_bracket_relations(heis, heis.table.at(sample_points(heis, 60, 7)), 1e-9):
    print(f"  {c.name:<42} max {c.max_residual:.1e}")
c = check_commutation(heis, heis.table.at(sample_points(heis, 60, 7)), 1e-9)
print(f"  {c.name:<42} max {c.max_residual:.1e}")

recs = check_decompositions(heis, heis.table.at(sample_points(heis, 10, seed=7)))
rec = recs[0]
print("splitting ranks (span, gradient, horizontal):",
      rec.rank_span, rec.rank_gradient, rec.dim_horizontal,
      " every point ok:", all(r.ok for r in recs))

# Level sets of the gradient map are CR submanifolds; at level zero this is
# the original real group (all imaginary parts vanish).
rec = check_level_set(heis, [0.0, 0.0, 0.0], n_points=4, seed=7)
print("level-set samples found:", len(rec.points),
      " max |imaginary part|:", float(np.max(np.abs(rec.points[:, 1::2]))))
