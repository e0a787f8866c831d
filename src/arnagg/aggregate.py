"""Aggregated stepping, error traces and bounds, normalization, pipelines.

The error machinery walks the full chain once and each aggregation next to
it, recording the 1-norm error at requested step counts together with two
upper bounds, both accumulated step by step: the specific bound adds the
current aggregated vector's weighted absolute row sums of the exactness
defect, the general bound adds the geometric majorant
``||pi_0||_1 * ||step_matrix||_inf^i`` of that vector's 1-norm times the
defect's largest row sum.  The exactness defect ``step_matrix @ A - A @ P``
is materialized once per aggregation and only its row sums are kept.
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
    NumericalError,
    ZeroVector,
)
from .mchain import (
    FLOAT_FORMAT,
    Distribution,
    StochasticMatrix,
    _checkpoint_walk,
    as_vector,
    inf_norm,
    weighted_abs_row_sums,
)
from .orthonorm import CGSIR, OrthMethod, orthogonality_loss
from .schur import aggregated_stationary

# Entry threshold of the "some entry is too large" normalization rule.
ENTRY_CAP = 9.0 / 8.0

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


def parse_policy(name: str) -> NormalizationPolicy:
    alias = {"never": "never", "cond": "conditional", "conditional": "conditional",
             "always": "always"}
    try:
        return NormalizationPolicy(alias[name.lower()])
    except KeyError:
        raise InputError(f"unknown normalization policy {name!r}") from None


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
    """Apply a normalization policy to a (possibly non-strict) distribution.

    Raises InputError for a vector with a non-finite entry, whatever the
    policy.
    """
    v = as_vector(p)
    if not np.isfinite(v).all():
        raise InputError("cannot normalize a vector with non-finite entries")
    if _should_normalize(v, policy):
        with np.errstate(over="ignore"):
            norm1 = float(np.abs(v).sum())
        if norm1 == 0.0:
            raise ZeroVector("cannot rescale the zero vector to unit 1-norm")
        if np.isinf(norm1):
            # The 1-norm of a finite vector overflowed: scale by the largest
            # magnitude first, which brings it back into range.
            v = v / np.abs(v).max()
            norm1 = float(np.abs(v).sum())
        v = v / norm1
    return Distribution(v, strict=False)


def aggregated_step(agg: Aggregation, pi_k) -> np.ndarray:
    """One aggregated step, ``pi_k @ step_matrix``."""
    pi_k = as_vector(pi_k)
    if pi_k.shape[0] != agg.size:
        raise DimensionMismatch(f"vector of length {pi_k.shape[0]} against size {agg.size}")
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


def error_trace(p_mat: StochasticMatrix, p0, agg: Aggregation, ks,
                policy: NormalizationPolicy = NEVER) -> ErrorTrace:
    """Walk chain and aggregation in lockstep, recording errors and bounds.

    ``ks`` must be ascending step counts.  The chain is walked once, to
    ``ks[-1]``; the aggregated vector takes the same steps next to it.  The
    exactness defect is materialised once and only its absolute row sums
    are kept.  The initial error feeding both bounds is measured, not
    assumed zero, which doubles as a check of the aggregated start vector.
    This is the one-aggregation case of ``_error_traces``.
    """
    return _error_traces(p_mat, p0, [agg], ks, policy=policy)[0]


def _error_traces(p_mat: StochasticMatrix, p0, aggs, ks,
                  policy: NormalizationPolicy = NEVER) -> list[ErrorTrace]:
    """``[error_trace(p_mat, p0, agg, ks, policy) for agg in aggs]`` on one chain walk.

    At each checkpoint every aggregation's walk catches up with the chain,
    so each trace takes the same steps, in the same order, as on its own.
    """
    ks = [int(k) for k in ks]
    if not ks:
        raise InputError("no step counts requested")
    if any(k < 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise InputError(f"step counts must be ascending and nonnegative: {ks}")
    p = as_vector(p0)
    if p.shape[0] != p_mat.n or any(agg.n_states != p_mat.n for agg in aggs):
        raise DimensionMismatch("chain, start vector, and aggregation disagree on n")
    if not np.isfinite(p).all():
        raise InputError("start vector has non-finite entries")

    # Built one after the other, so one defect is alive at a time.
    walks = [_AggregatedWalk(p_mat, p, agg, len(ks), policy) for agg in aggs]
    done = 0
    # Overflow is not warned about: a bound or error past the float range
    # reads inf, and ``record`` rejects an approximation that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (k, p_k) in enumerate(zip(ks, _checkpoint_walk(p_mat, p, ks))):
            for walk in walks:
                walk.advance(k - done)
                walk.record(i, k, p_k)
            done = k
    return [walk.result(p_mat, ks) for walk in walks]


class _AggregatedWalk:
    """One aggregation's side of an error trace: its walk, bounds and errors.

    Each step allocates the next aggregated vector; the walk starts from
    ``agg.initial`` itself, which it never writes to.
    """

    def __init__(self, p_mat: StochasticMatrix, p0: np.ndarray, agg: Aggregation,
                 checkpoints: int, policy: NormalizationPolicy):
        self.agg = agg
        self.policy = policy
        self.defect_rows = np.abs(exactness_defect(p_mat, agg)).sum(axis=1)
        self.static_error = float(self.defect_rows.max()) if self.defect_rows.size else 0.0
        self.inf_step = inf_norm(agg.step_matrix)
        self.pi = agg.initial
        self.e0 = float(np.abs(self.pi @ agg.disaggregation - p0).sum())
        self.acc_specific = self.acc_general = self.e0
        # Majorant ||initial||_1 * inf_step^i of the current vector's 1-norm.
        self.mass = float(np.abs(self.pi).sum())
        self.errors = np.empty(checkpoints)
        self.specific = np.empty(checkpoints)
        self.general = np.empty(checkpoints)

    def advance(self, steps: int) -> None:
        """Take ``steps`` aggregated steps, accumulating both bounds.

        For size 1 the general term ``mass * static_error`` is the specific
        term ``|pi| @ defect_rows`` float for float, so there the two bounds
        are equal.
        """
        for _ in range(steps):
            self.acc_specific += float(np.abs(self.pi) @ self.defect_rows)
            self.acc_general += self.mass * self.static_error
            self.mass *= self.inf_step
            self.pi = self.pi @ self.agg.step_matrix

    def record(self, i: int, k: int, p_k: np.ndarray) -> None:
        """Record checkpoint ``i`` (step ``k``) against the exact ``p_k``."""
        image = self.pi @ self.agg.disaggregation
        if not np.isfinite(image).all():
            raise NumericalError(f"the size-{self.agg.size} aggregated vector is no "
                                 f"longer finite at step {k}")
        approx = normalize(image, self.policy).values
        self.errors[i] = float(np.abs(approx - p_k).sum())
        self.specific[i] = self.acc_specific
        self.general[i] = self.acc_general

    def result(self, p_mat: StochasticMatrix, ks: list[int]) -> ErrorTrace:
        criterion = None
        stationary_residual = None
        if self.agg.stationary is not None:
            criterion = float(np.abs(self.agg.stationary) @ self.defect_rows)
            image = self.agg.stationary @ self.agg.disaggregation
            stationary_residual = float(np.abs(image - p_mat.vec_mul(image)).sum())
        return ErrorTrace(
            steps=np.array(ks, dtype=int),
            errors=self.errors,
            bound_specific=self.specific,
            bound_general=self.general,
            static_error=self.static_error,
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


def _estimated_criterion(fact: ArnoldiFactorization, x: np.ndarray,
                         row_sums: np.ndarray) -> float | None:
    """``_relation_criterion`` after two inverse-iteration steps on ``H^T - I`` from ``x``.

    Shift 1 is the known eigenvalue (Golub & Van Loan, section 7.6).  The
    iterate ``z`` is scaled by ``|z @ row_sums|``, where ``row_sums`` holds
    the row sums of ``fact.basis``: that is the sum of the image ``z Q``,
    its 1-norm when the image is nonnegative, which it is up to rounding
    near the stop size.  So the estimate costs O(j^2) and reads no basis
    row.  A finite iterate overwrites ``x`` as the next warm start.  None
    when a solve fails or ``|x_j|`` moved by more than half over the second
    step.
    """
    shifted = fact.hessenberg.T - np.eye(fact.size)
    try:
        with np.errstate(all="ignore"):
            y = np.linalg.solve(shifted, x)
            y /= np.sqrt(y @ y)
            z = np.linalg.solve(shifted, y)
            z /= np.sqrt(z @ z)
            estimate = _relation_criterion(fact, z / abs(z @ row_sums))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(z).all():
        return None
    x[:] = z
    settled = abs(abs(z[-1]) - abs(y[-1])) <= 0.5 * abs(y[-1])
    return estimate if settled and np.isfinite(estimate) else None


def pipeline_dynamic(p_mat: StochasticMatrix, p0, max_size: int, epsilon: float,
                     step_size: int = 1, method: OrthMethod = CGSIR) -> Aggregation:
    """Grow the aggregation until the convergence criterion drops below epsilon.

    The criterion is evaluated every ``step_size`` expansions, at
    deflation, and at ``max_size``, on the stationary vector of the current
    step matrix (LAPACK ``geev``) and read off the Arnoldi relation in O(n)
    (see ``_relation_criterion``); the first size passing
    ``criterion <= epsilon`` wins, else the final size is returned.  ``geev``
    runs only where a size can stop: where the warm-started inverse-iteration
    estimate (``_estimated_criterion``) is missing or within ``100 * epsilon``,
    and at the last size.  The estimate is scaled by the basis row sums,
    and each basis row is summed once per run, so a checked size costs no
    j x n product unless ``geev`` runs.  The result carries its stationary
    vector and criterion, and its arrays are read-only views of the
    builder's storage.

    A truncated step matrix can transiently have a complex leading
    eigenpair mid-growth; such sizes simply cannot stop the iteration.
    ComplexStationary is raised only if the final size still has one; its
    message then also gives the orthogonality loss of the final basis.
    """
    if step_size < 1:
        raise InputError(f"step_size must be >= 1, got {step_size}")
    if not 0.0 < epsilon < np.inf:
        raise InputError(f"epsilon must be positive and finite, got {epsilon!r}")
    builder = ArnoldiBuilder(p_mat, p0, max_size, method=method)
    warm = np.zeros(max_size)  # inverse-iteration warm start, zero-padded
    warm[0] = 1.0
    row_sums = np.empty(max_size)  # basis row sums, filled up to ``summed``
    summed = 0
    while True:
        builder.expand()
        if builder.size % step_size == 0 or builder.done:
            fact = builder.snapshot()
            row_sums[summed:fact.size] = fact.basis[summed:].sum(axis=1)
            summed = fact.size
            estimate = _estimated_criterion(fact, warm[:fact.size], row_sums[:fact.size])
            # A size whose estimate is far above epsilon cannot stop the loop.
            if estimate is not None and estimate > 100.0 * epsilon and not builder.done:
                continue
            try:
                agg = aggregated_stationary(build_aggregation(fact, p0))
            except ComplexStationary as exc:
                if builder.done:
                    # A basis that lost its orthogonality (plain CGS on an
                    # ill-conditioned Krylov space) is the usual cause.
                    loss = orthogonality_loss(fact.basis)
                    exc.args = (f"{exc}; the size-{fact.size} {method.variant} basis "
                                f"has orthogonality loss {loss:.3e}",)
                    raise
                continue
            crit = _relation_criterion(fact, agg.stationary)
            agg = replace(agg, criterion=crit)
            if crit <= epsilon or builder.done:
                return agg
