"""cgsys: complex gradient systems on chart-described complex manifolds.

A complex gradient system of dimension k on a chart is a family of vector
fields xi_1..xi_k and functions u_1..u_k with du_a(xi_b) = 0 and
d^c u_a(xi_b) = delta_ab, whose frame {xi_a, J xi_a} is pointwise
independent and spans an involutive distribution.  The package

* builds such systems from initial data along CR submanifolds (flows in
  complex time, adapted frames, the P/Q matrix construction),
* verifies every identity the axioms imply as seeded numerical residuals,
* classifies systems (holomorphic / abelian / harmonic) and straightens
  holomorphic abelian ones into their flat normal form, and
* ships a small gallery of closed-form group examples as data files.

All core values are immutable and all operations pure, so everything can be
evaluated concurrently over point batches without synchronization.
"""

from .expr import (
    Atan2, Binary, Const, DomainError, Expr, ParseError, Program,
    UnboundVariableError, Unary, UnknownFunctionError, Var, compile_exprs, diff,
    evaluate, free_vars, parse_expr, to_string,
)
from .geometry import (
    ComplexChart, Span, VectorField, apply_J, is_holomorphic, lie_bracket,
)
from .flow import (
    DivergenceError, EmbeddingError, FlowConfig, FlowError, HolomorphyError,
    ComplexFlow, MatrixGroupSpec, NewtonError, complexified_flow_jacobian,
    complexified_flow_matrix, flow_complex_multi, flow_real,
    left_invariant_fields, matrix_exp, newton_inverse,
)
from .cauchy import (
    AdaptedFrame, CauchyError, CauchySolution, ConstructionError,
    CRInitialData, OutsideDomainError, TransversalityError, build_dF, build_F,
    check_cr_transverse, compute_PQA, construct_fields, grid_queries,
    param_samples, solve,
)
from .verify import (
    Classification, CheckResult, CheckTable, GradientSystem, GridSpec, LevelSetRecord,
    NormalForm, NormalFormRefusal, SamplingError, VerificationReport,
    check_axioms, check_bracket_relations, check_commutation,
    check_decompositions, check_level_set, classify, normal_form,
    sample_points, verify_system,
)
from .dsl import (
    LoadError, SystemFile, builtin_names, builtin_text, dumps, load,
    load_builtin, loads, save,
)

__version__ = "0.1.0"

# removed one-point functions and types and the batched code that replaces each
REMOVED = {
    "d_apply": "CheckTable.at(pts)['d'] (geometry.d_values in a Composition)",
    "dc_apply": "CheckTable.at(pts)['dc'] (geometry.dc_values in a Composition)",
    "ddc_apply": "CheckTable.at(pts)['t1'] - ['t2'] - ['t3'] (geometry.ddc_terms)",
    "distribution_rank": "Span(t['frame']).rank, t = CheckTable.at(pts)",
    "frobenius_defect": "Span(t['frame']).residuals(t['bracket']), t = CheckTable.at(pts)",
    "exp_map": "flow_real(V, p, 1.0, cfg)",
    "flow_complex": "ComplexFlow([V], cfg).rows(P, W) or flow_complex_multi([V], p, [w])",
    "equation_map": "solve(data, queries, cfg): its records carry params, u and U",
    "invariant_lift": "compute_PQA(data, dF, p, u): frame.dF @ frame.lifts.T",
    "ComplexField": "the real VectorField; geometry.cr_residuals reads it complexified off DX",
    "complexify": "is_holomorphic(V, pts), or geometry.cr_residuals of jet_blocks' DX",
    "subst": "parse_expr of the substituted text, or the constructors expr.add, expr.mul, ...",
    "pair_brackets": "CheckTable.at(pts)['bracket'], or lie_bracket(V, W) for one pair",
    "laplacian": "CheckTable.at(pts)['lap']",
    "span_residuals": "Span(S).residuals(V)",
}


def __getattr__(name):
    hint = f"; it was removed, use {REMOVED[name]}" if name in REMOVED else ""
    raise AttributeError(f"module 'cgsys' has no attribute {name!r}{hint}")
