"""arnagg: aggregate Markov chains into small linear systems via Krylov bases.

The package builds an orthonormal Krylov basis of a chain and its start
distribution, uses it as a reduced ("aggregated") linear system, tracks
exact per-step errors with two provable bounds, extracts an approximate
stationary distribution from the LAPACK ``geev`` eigenpairs of the reduced
step matrix, and decides when the reduction is good enough via a stationary
weighted defect criterion.
"""

from .aggregate import (
    ALWAYS,
    CONDITIONAL,
    NEVER,
    ErrorTrace,
    NormalizationPolicy,
    aggregated_step,
    approximate,
    convergence_criterion,
    error_trace,
    exactness_defect,
    normalize,
    parse_policy,
    pipeline_dynamic,
    pipeline_naive,
    pipeline_schur,
)
from .arnoldi import (
    Aggregation,
    ArnoldiBuilder,
    ArnoldiFactorization,
    arnoldi_iterate,
    build_aggregation,
    relation_residual,
)
from .errors import (
    ArnaggError,
    ComplexStationary,
    DimensionMismatch,
    EmptyInput,
    EpsilonOutOfRange,
    GammaTooSmall,
    GeneratorRowSumViolation,
    InputError,
    InvalidCoupling,
    MissingStationary,
    NegativeEntry,
    NoConvergence,
    NumericalError,
    ParseError,
    RowSumViolation,
    ShapeError,
    ZeroInitialVector,
    ZeroVector,
)
from .mchain import (
    Distribution,
    GeneratorMatrix,
    StochasticMatrix,
    inf_norm,
    load_distribution,
    load_matrix,
    save_distribution,
    save_matrix,
    transient,
    uniformize,
    weighted_abs_row_sums,
)
from .models import NcdSpec, counterexample, ncd_compose, random_chain, random_ncd
from .orthonorm import (
    CGS,
    CGS2,
    CGSIR,
    MGS,
    MGS2,
    MGSIR,
    OrthMethod,
    OrthStepResult,
    orthogonality_loss,
    orthogonalize_step,
    parse_method,
)
from .schur import (
    SchurDecomposition,
    aggregated_stationary,
    leading_eigvec,
    schur_decompose,
)

__version__ = "0.1.0"
