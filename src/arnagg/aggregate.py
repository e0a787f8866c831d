"""Aggregated stepping, error traces and bounds, normalization, pipelines.

The error machinery walks the full chain and its aggregation in lockstep
over reusable buffers, recording the 1-norm error at requested step counts
together with two upper bounds: the accumulated per-step bound (a sum of
weighted absolute row sums of the exactness defect) and the closed-form
geometric bound.  The exactness defect ``step_matrix @ A - A @ P`` is
materialized once per trace and reused everywhere it is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arnoldi import (
    Aggregation,
    ArnoldiBuilder,
    ArnoldiFactorization,
    arnoldi_iterate,
    build_aggregation,
)
from .errors import (
    ComplexStationary,
    DimensionMismatch,
    InputError,
    MissingStationary,
    ZeroVector,
)
from .mchain import (
    FLOAT_FORMAT,
    Distribution,
    StochasticMatrix,
    as_vector,
    inf_norm,
    weighted_abs_row_sums,
)
from .orthonorm import CGSIR, OrthMethod
from .schur import aggregated_stationary

# Entry threshold of the "some entry is too large" normalization rule.
ENTRY_CAP = 9.0 / 8.0

# The geometric bound switches to its limit form when the step-matrix norm
# is this close to 1, avoiding catastrophic cancellation in the quotient.
UNIT_NORM_TOL = 1e-12

TRACE_CSV_HEADER = "k,e_k,bound_specific,bound_general"


@dataclass(frozen=True)
class NormalizationPolicy:
    """When to rescale an approximated distribution to unit 1-norm.

    mode 'never' leaves vectors untouched, 'always' rescales every time,
    'conditional' rescales only when one of the sufficient conditions for
    the rescaling not to hurt is met (two of them proven, three sampled
    conjectures; see ``_should_normalize``).
    """

    mode: str
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("never", "conditional", "always"):
            raise InputError(f"unknown normalization mode {self.mode!r}")
        if not self.tolerance > 0.0:
            raise InputError(f"tolerance must be positive, got {self.tolerance!r}")


NEVER = NormalizationPolicy("never")
CONDITIONAL = NormalizationPolicy("conditional")
ALWAYS = NormalizationPolicy("always")


def parse_policy(name: str, tolerance: float | None = None) -> NormalizationPolicy:
    alias = {"never": "never", "cond": "conditional", "conditional": "conditional",
             "always": "always"}
    try:
        mode = alias[name.lower()]
    except KeyError:
        raise InputError(f"unknown normalization policy {name!r}") from None
    if tolerance is None:
        return NormalizationPolicy(mode)
    return NormalizationPolicy(mode, tolerance=tolerance)


def _should_normalize(v: np.ndarray, policy: NormalizationPolicy) -> bool:
    if policy.mode == "never":
        return False
    if policy.mode == "always":
        return True
    eps = policy.tolerance
    if np.any(v <= -1.0 - eps):
        return True
    if np.any(v >= ENTRY_CAP + eps):
        return True
    norm1 = float(np.abs(v).sum())
    if norm1 >= 2.0 - eps:
        return True
    if norm1 >= 1.0 - eps and np.all(v <= eps):
        return True
    # Leaving out the largest entry minimizes the remaining signed sum.
    if float(v.sum() - v.max()) <= -1.0 - eps:
        return True
    return False


def normalize(p, policy: NormalizationPolicy) -> Distribution:
    """Apply a normalization policy to a (possibly non-strict) distribution."""
    v = as_vector(p)
    if _should_normalize(v, policy):
        norm1 = float(np.abs(v).sum())
        if norm1 == 0.0:
            raise ZeroVector("cannot rescale the zero vector to unit 1-norm")
        v = v / norm1
    return Distribution(v, strict=False)


def aggregated_step(agg: Aggregation, pi_k, out: np.ndarray | None = None) -> np.ndarray:
    """One aggregated step, ``pi_k @ step_matrix``."""
    pi_k = as_vector(pi_k)
    if pi_k.shape[0] != agg.size:
        raise DimensionMismatch(f"vector of length {pi_k.shape[0]} against size {agg.size}")
    if out is not None:
        return np.matmul(pi_k, agg.step_matrix, out=out)
    return pi_k @ agg.step_matrix


def approximate(agg: Aggregation, pi_k, policy: NormalizationPolicy = NEVER) -> Distribution:
    """Disaggregate an aggregated vector and apply the normalization policy."""
    pi_k = as_vector(pi_k)
    if pi_k.shape[0] != agg.size:
        raise DimensionMismatch(f"vector of length {pi_k.shape[0]} against size {agg.size}")
    return normalize(pi_k @ agg.disaggregation, policy)


def exactness_defect(p_mat: StochasticMatrix, agg: Aggregation) -> np.ndarray:
    """The matrix ``step_matrix @ A - A @ P`` whose vanishing means exactness."""
    return agg.step_matrix @ agg.disaggregation - p_mat.mat_mul(agg.disaggregation)


def convergence_criterion(p_mat: StochasticMatrix, agg: Aggregation) -> float:
    """Stationary-weighted absolute row sums of the exactness defect."""
    if agg.stationary is None:
        raise MissingStationary("aggregation carries no stationary vector")
    return weighted_abs_row_sums(agg.stationary, exactness_defect(p_mat, agg))


@dataclass(frozen=True)
class ErrorTrace:
    """Per-step approximation errors of an aggregation, with bounds.

    ``errors[i]`` is the 1-norm error at step ``steps[i]``; the two bound
    arrays line up with ``steps``.  ``static_error`` is the max-row-sum
    norm of the exactness defect.  ``criterion`` and ``stationary_residual``
    are present when the aggregation carries a stationary vector.
    """

    steps: np.ndarray
    errors: np.ndarray
    bound_specific: np.ndarray
    bound_general: np.ndarray
    static_error: float
    criterion: float | None = None
    stationary_residual: float | None = None

    def to_csv(self, path) -> None:
        """Write ``k,e_k,bound_specific,bound_general`` rows (17 sig digits)."""
        with open(path, "w") as fh:
            fh.write(format_trace_csv(self))

    def __len__(self):
        return len(self.steps)


def format_trace_csv(trace: ErrorTrace) -> str:
    lines = [TRACE_CSV_HEADER]
    for i, k in enumerate(trace.steps):
        lines.append(
            f"{int(k)},{FLOAT_FORMAT % trace.errors[i]},"
            f"{FLOAT_FORMAT % trace.bound_specific[i]},{FLOAT_FORMAT % trace.bound_general[i]}"
        )
    return "\n".join(lines) + "\n"


def _general_bound_factor(inf_step: float, k: int) -> float:
    if abs(inf_step - 1.0) <= UNIT_NORM_TOL:
        return float(k)
    if k == 0:
        return 0.0
    with np.errstate(over="ignore"):
        powed = inf_step ** k
    return float((powed - 1.0) / (inf_step - 1.0))


def error_trace(p_mat: StochasticMatrix, p0, agg: Aggregation, ks,
                policy: NormalizationPolicy = NEVER) -> ErrorTrace:
    """Walk chain and aggregation in lockstep, recording errors and bounds.

    ``ks`` must be ascending step counts.  The initial error feeding both
    bounds is measured, not assumed zero, which doubles as a check of the
    aggregated start vector.
    """
    ks = [int(k) for k in ks]
    if not ks:
        raise InputError("no step counts requested")
    if any(k < 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise InputError(f"step counts must be ascending and nonnegative: {ks}")
    p = as_vector(p0).copy()
    if p.shape[0] != p_mat.n or agg.n_states != p_mat.n:
        raise DimensionMismatch("chain, start vector, and aggregation disagree on n")
    if not np.isfinite(p).all():
        raise InputError("start vector has non-finite entries")

    a = agg.disaggregation
    step_m = agg.step_matrix
    defect = exactness_defect(p_mat, agg)
    defect_rows = np.abs(defect).sum(axis=1)
    static_error = float(defect_rows.max()) if defect_rows.size else 0.0
    inf_step = inf_norm(step_m)

    pi = agg.initial.copy()
    e0 = float(np.abs(pi @ a - p).sum())

    p_buf = np.empty_like(p)
    pi_buf = np.empty_like(pi)
    abs_pi = np.empty_like(pi)

    errors = np.empty(len(ks))
    specific = np.empty(len(ks))
    general = np.empty(len(ks))

    accumulated = e0
    next_idx = 0
    for k in range(ks[-1] + 1):
        if k == ks[next_idx]:
            approx = normalize(pi @ a, policy).values
            errors[next_idx] = float(np.abs(approx - p).sum())
            specific[next_idx] = accumulated
            general[next_idx] = e0 + float(np.abs(agg.initial).sum()) \
                * static_error * _general_bound_factor(inf_step, k)
            next_idx += 1
            if next_idx == len(ks):
                break
        np.abs(pi, out=abs_pi)
        accumulated += float(abs_pi @ defect_rows)
        np.matmul(pi, step_m, out=pi_buf)
        pi, pi_buf = pi_buf, pi
        p_mat.vec_mul(p, out=p_buf)
        p, p_buf = p_buf, p

    criterion = None
    stationary_residual = None
    if agg.stationary is not None:
        criterion = float(np.abs(agg.stationary) @ defect_rows)
        image = agg.stationary @ a
        stationary_residual = float(np.abs(image - p_mat.vec_mul(image)).sum())

    return ErrorTrace(
        steps=np.array(ks, dtype=int),
        errors=errors,
        bound_specific=specific,
        bound_general=general,
        static_error=static_error,
        criterion=criterion,
        stationary_residual=stationary_residual,
    )


def pipeline_naive(p_mat: StochasticMatrix, p0, size: int,
                   method: OrthMethod = CGSIR) -> Aggregation:
    """Krylov aggregation of the requested size, no stationary vector."""
    fact = arnoldi_iterate(p_mat, p0, size, method=method)
    return build_aggregation(fact, p0)


def pipeline_schur(p_mat: StochasticMatrix, p0, size: int,
                   method: OrthMethod = CGSIR) -> Aggregation:
    """Krylov aggregation plus its Schur-extracted stationary vector."""
    return aggregated_stationary(pipeline_naive(p_mat, p0, size, method=method))


def _relation_criterion(fact: ArnoldiFactorization, stationary: np.ndarray) -> float:
    """The convergence criterion of ``fact``'s aggregation, in O(n).

    The Arnoldi relation ``H Q + E = Q P`` makes the exactness defect
    ``H Q - Q P`` equal to ``-E`` up to rounding, and ``E`` is zero except
    for its last row, ``residual_norm * residual_direction``.  The
    stationary-weighted defect ``sum_i |pi_i| * ||(H Q - Q P)_i||_1`` is
    therefore ``|pi_j| * residual_norm * ||residual_direction||_1``
    (Saad's Arnoldi residual estimate), and 0 once the basis deflated.
    It differs from ``convergence_criterion`` by at most
    ``||pi||_1 * relation_residual(fact, P)``.
    """
    if fact.residual_direction is None:
        return 0.0
    return float(abs(stationary[-1]) * fact.residual_norm
                 * np.abs(fact.residual_direction).sum())


def pipeline_dynamic(p_mat: StochasticMatrix, p0, max_size: int, epsilon: float,
                     step_size: int = 1, method: OrthMethod = CGSIR) -> Aggregation:
    """Grow the aggregation until the convergence criterion drops below epsilon.

    The criterion is evaluated every ``step_size`` expansions, at
    deflation, and at ``max_size``, on the stationary vector of the current
    step matrix (LAPACK ``geev``) and read off the Arnoldi relation in O(n)
    (see ``_relation_criterion``); the first size passing
    ``criterion <= epsilon`` wins, else the final size is returned.  The
    result carries its stationary vector and criterion, and its arrays are
    read-only views of the builder's storage.

    A truncated step matrix can transiently have a complex leading
    eigenpair mid-growth; such sizes simply cannot stop the iteration.
    ComplexStationary is raised only if the final size still has one.
    """
    if step_size < 1:
        raise InputError(f"step_size must be >= 1, got {step_size}")
    if not 0.0 < epsilon < np.inf:
        raise InputError(f"epsilon must be positive and finite, got {epsilon!r}")
    builder = ArnoldiBuilder(p_mat, p0, max_size, method=method)
    while True:
        builder.expand()
        if builder.size % step_size == 0 or builder.done:
            fact = builder.snapshot()
            try:
                agg = aggregated_stationary(build_aggregation(fact, p0))
            except ComplexStationary:
                if builder.done:
                    raise
                continue
            crit = _relation_criterion(fact, agg.stationary)
            agg = replace(agg, criterion=crit)
            if crit <= epsilon or builder.done:
                return agg
