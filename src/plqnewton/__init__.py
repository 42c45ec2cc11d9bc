"""Newton-type local solvers and certificates for PLQ convex-composite problems.

The public surface mirrors the module layout:

  plq        shared-hyperplane PLQ functions, evaluation, validation
  calculus   directional derivatives, subdifferentials, polyhedra, cones
  exprmap    expression-defined smooth maps with exact derivatives
  composite  composite problems, multipliers, qualifications, residuals
  manifold   active-manifold structure, block multipliers, partial smoothness
  certify    second-order and subregularity certificates
  solver     restricted Newton on any active structure, structure enumeration,
             quasi-Newton
  rates      convergence-rate classification
  problems   problem-file loading
  benchmarks built-in functions and benchmark problems
"""

from .calculus import (
    PolyhedronH,
    cone_generators,
    dir_deriv_first,
    dir_deriv_second,
    second_subderivative,
    subdiff_hrep,
    subdiff_hrep_at,
)
from .certify import (
    SOSCReport,
    SubregularityCertificate,
    certify_point,
    certify_sosc,
    certify_subregularity,
)
from .composite import (
    CompositeProblem,
    CQReport,
    KKTResidual,
    MultiplierSet,
    PointAnalysis,
    analyze_point,
    bcq_holds,
    check_cqs,
    kkt_residual,
    multiplier_set,
    nonascent_contains,
    qualification_chain,
)
from .exprmap import Linearization, SmoothMap, parse_expr
from .manifold import (
    ManifoldData,
    MuVector,
    build_manifold,
    certify_partial_smoothness,
    manifold_contains,
    mu_of,
    strictness_check,
)
from .numerics import ExtReal, PLUS_INF
from .plq import (
    ActiveProfile,
    Hyperplane,
    Piece,
    PLQFunction,
    ValidationReport,
    eval_with_active,
    validate_representation,
)
from .problems import ProblemFile, load_problem
from .rates import RateVerdict, classify_rate
from .solver import (
    IterationTrace,
    SolveOptions,
    newton_solve,
    quasi_newton_solve,
    restricted_newton_step,
    solve_subproblem_enum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
