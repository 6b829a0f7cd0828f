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
    evaluate, free_vars, parse_expr, subst, to_string,
)
from .geometry import (
    ComplexChart, ComplexField, VectorField, apply_J, complexify, d_apply,
    dc_apply, ddc_apply, distribution_rank, frobenius_defect, is_holomorphic,
    laplacian, lie_bracket, pair_brackets, span_residuals,
)
from .flow import (
    DivergenceError, EmbeddingError, FlowConfig, FlowError, HolomorphyError,
    ComplexFlow, MatrixGroupSpec, NewtonError, complexified_flow_jacobian,
    complexified_flow_matrix, exp_map, flow_complex, flow_complex_multi,
    flow_real, left_invariant_fields, matrix_exp, newton_inverse,
)
from .cauchy import (
    AdaptedFrame, CauchyError, CauchySolution, ConstructionError,
    CRInitialData, OutsideDomainError, TransversalityError, build_dF, build_F,
    check_cr_transverse, compute_PQA, construct_fields, equation_map,
    grid_queries, invariant_lift, solve,
)
from .verify import (
    Classification, CheckResult, CheckTable, GradientSystem, GridSpec, LevelSetRecord,
    NormalForm, NormalFormRefusal, SamplingError, VerificationReport,
    check_axioms, check_bracket_relations, check_commutation,
    check_decompositions, check_level_set, classify, normal_form,
    sample_points,
)
from .dsl import (
    LoadError, SystemFile, builtin_names, builtin_text, dumps, load,
    load_builtin, loads, save,
)

__version__ = "0.1.0"
