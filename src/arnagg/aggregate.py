"""Aggregated stepping, error traces and bounds, normalization, pipelines.

The error machinery walks the full chain once and each aggregation next to
it, recording the 1-norm error at requested step counts together with two
upper bounds, both accumulated step by step: the specific bound adds the
current aggregated vector's weighted absolute row sums of the exactness
defect, the general bound adds the geometric majorant
``||pi_0||_1 * ||step_matrix||_inf^i`` of that vector's 1-norm times the
defect's largest row sum.  For a Krylov aggregation the exactness defect
``step_matrix @ A - A @ P`` is read off the Arnoldi relation
``H Q + E = Q P``: every row but the last is zero (Saad, Iterative Methods
for Sparse Linear Systems, section 6.3), and the last row's absolute sum is
the aggregation's ``residual`` r.  So a vector v weighs the defect as
``|v_j| * r``, a trace forms no j x n product, and its criterion is the
dynamic pipeline's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arnoldi import Aggregation, ArnoldiBuilder, arnoldi_iterate, build_aggregation
from .errors import (
    ComplexStationary,
    DimensionMismatch,
    InputError,
    MissingStationary,
    NumericalError,
    ZeroVector,
)
from .mchain import (
    Distribution,
    StochasticMatrix,
    _checkpoint_walk,
    _integer,
    _start_vector,
    as_vector,
    inf_norm,
    weighted_abs_row_sums,
)
from .orthonorm import CGSIR, OrthMethod, orthogonality_loss
from .schur import aggregated_stationary

# Largest-entry threshold of condition (b) of the conditional policy.
ENTRY_CAP = 9.0 / 8.0
# Slack on the thresholds of the conditional policy's two conditions.
CONDITION_TOL = 1e-6


@dataclass(frozen=True)
class NormalizationPolicy:
    """When to rescale an approximated distribution to unit 1-norm.

    mode 'never' leaves vectors untouched, 'always' rescales every time,
    'conditional' rescales only when one of two proven sufficient conditions
    for the rescaling not to raise the 1-norm error is met (see
    ``_should_normalize``), each threshold with the fixed slack
    ``CONDITION_TOL``.
    """

    mode: str

    def __post_init__(self):
        if self.mode not in ("never", "conditional", "always"):
            raise InputError(f"unknown normalization mode {self.mode!r}")


NEVER = NormalizationPolicy("never")
CONDITIONAL = NormalizationPolicy("conditional")
ALWAYS = NormalizationPolicy("always")


def parse_policy(name: str) -> NormalizationPolicy:
    """The policy named ``name``, case-insensitively; ``cond`` is short for ``conditional``."""
    name = name.lower()
    return NormalizationPolicy("conditional" if name == "cond" else name)


def _should_normalize(v: np.ndarray, policy: NormalizationPolicy) -> bool:
    """Whether the policy rescales ``v``; under 'conditional', only when that is proven safe.

    With ``c = ||v||_1`` and ``s = sum(v)``, 'conditional' rescales iff

    (a) ``c >= 1`` and ``max(c - 1, 1 - s) >= 1``, or
    (b) ``max(v) >= ENTRY_CAP = 9/8``;

    either way ``||v/c - p||_1 <= ||v - p||_1`` for every distribution p.

    (a) ``max(c - 1, 1 - s)`` is the 1-norm distance from v to the
    probability simplex: ``||v - p||_1`` is at least ``||v||_1 - ||p||_1``
    and at least ``sum(p - v)``.  Since ``v/c - p = (v - p)/c - (1 - 1/c) p``,
    ``||v/c - p||_1 - ||v - p||_1 <= (1 - 1/c)(1 - ||v - p||_1) <= 0``.

    (b) Let ``a = v_1 >= 9/8``, so ``c >= a``.  If ``p_1 >= a/c``, coordinate
    1 changes by ``2 p_1 - a/c - a`` and coordinate i > 1 by at most
    ``2 p_i - |v_i| (1 - 1/c)``; these sum to at most
    ``3 - c - 2a/c <= 3 - 2 sqrt(2a) <= 0``.  Otherwise coordinate 1 changes
    by ``-a (1 - 1/c)`` and coordinate i > 1 by at most ``|v_i| (1 - 1/c)``,
    so the sum is at most ``(1 - 1/c)(c - 2a) <= 0`` when ``c <= 2a``; and
    when ``c > 2a``, ``c - 1 > 1`` and (a) holds.  The cap is tight: at
    ``v = (9/8, -3/8)``, ``p = e_1`` the error is unchanged.

    ``CONDITION_TOL`` widens (a) through c and s only, so rescaling may then
    raise the error by about the tolerance at most, and tightens (b).
    """
    if policy.mode == "never":
        return False
    if policy.mode == "always":
        return True
    tol = CONDITION_TOL
    # A finite vector's sums may overflow; an infinite c rescales through (a).
    with np.errstate(over="ignore", invalid="ignore"):
        c, s = float(np.abs(v).sum()), float(v.sum())
    return (c >= 1.0 - tol and max(c - 1.0, 1.0 - s) >= 1.0 - tol) \
        or float(v.max()) >= ENTRY_CAP + tol


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


def _aggregated_vector(agg: Aggregation, pi_k) -> np.ndarray:
    """``pi_k`` as a finite vector with one entry per aggregated state of ``agg``."""
    pi_k = as_vector(pi_k)
    if pi_k.shape[0] != agg.size:
        raise DimensionMismatch(f"vector of length {pi_k.shape[0]} against size {agg.size}")
    if not np.isfinite(pi_k).all():
        raise InputError("aggregated vector has non-finite entries")
    return pi_k


def aggregated_step(agg: Aggregation, pi_k) -> np.ndarray:
    """One aggregated step, ``pi_k @ step_matrix``, of a finite ``pi_k`` of length ``agg.size``."""
    return _aggregated_vector(agg, pi_k) @ agg.step_matrix


def approximate(agg: Aggregation, pi_k, policy: NormalizationPolicy = NEVER) -> Distribution:
    """Disaggregate an aggregated vector and apply the normalization policy."""
    return normalize(_aggregated_vector(agg, pi_k) @ agg.disaggregation, policy)


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
    arrays line up with ``steps``.  ``static_error`` is the max-row-sum norm
    of the exactness defect.  ``criterion`` is present when the aggregation
    carries a stationary vector.
    """

    steps: np.ndarray
    errors: np.ndarray
    bound_specific: np.ndarray
    bound_general: np.ndarray
    static_error: float
    criterion: float | None = None

    def __len__(self):
        return len(self.steps)


def error_trace(p_mat: StochasticMatrix, p0, agg: Aggregation, ks,
                policy: NormalizationPolicy = NEVER) -> ErrorTrace:
    """Walk chain and aggregation in lockstep, recording errors and bounds.

    ``ks`` must be ascending integers >= 0 and ``p0`` finite.  The chain is
    walked once, to ``ks[-1]``; the aggregated vector takes the same steps
    next to it.  Of the exactness defect only the absolute row sums are used;
    for a Krylov aggregation every one is 0 but the last, ``agg.residual``, so
    ``static_error``, ``criterion`` and the bounds agree with the
    materialised defect up to ``relation_residual``.  The initial error
    feeding both bounds is measured, not assumed zero, which doubles as a
    check of the aggregated start vector.  This is the one-aggregation case
    of ``_error_traces``.
    """
    return _error_traces(p_mat, p0, [agg], ks, policy=policy)[0]


def _error_traces(p_mat: StochasticMatrix, p0, aggs, ks,
                  policy: NormalizationPolicy = NEVER) -> list[ErrorTrace]:
    """``[error_trace(p_mat, p0, agg, ks, policy) for agg in aggs]`` on one chain walk.

    A Krylov aggregation weighs its defect by one number and costs no chain
    product, so the walk is the only work on the chain.  At each checkpoint
    every aggregation's walk catches up with the chain, so each trace takes
    the same steps, in the same order, as on its own.
    """
    ks = [_integer("step count", k, 0) for k in ks]
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise InputError(f"step counts must be nonempty and strictly ascending: {ks}")
    p = _start_vector(p_mat, p0)
    if any(agg.n_states != p_mat.n for agg in aggs):
        raise DimensionMismatch(f"an aggregation and the {p_mat.n}-state chain disagree on n")

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
    return [walk.result(ks) for walk in walks]


class _AggregatedWalk:
    """One aggregation's side of an error trace: its walk, bounds and errors.

    Each step allocates the next aggregated vector; the walk starts from
    ``agg.initial`` itself, which it never writes to.  ``weigh(v)`` is
    ``|v|`` dotted with the absolute row sums of the exactness defect:
    ``|v_j| * agg.residual`` for a Krylov aggregation, whose defect has one
    nonzero row, and, for one built by hand (``residual`` None), against
    the row sums of the materialised defect.  ``static_error``, the
    criterion and the specific bound are read off it.
    """

    def __init__(self, p_mat: StochasticMatrix, p0: np.ndarray, agg: Aggregation,
                 checkpoints: int, policy: NormalizationPolicy):
        self.agg = agg
        self.policy = policy
        if agg.residual is None:
            rows = np.abs(exactness_defect(p_mat, agg)).sum(axis=1)
            self.static_error = float(rows.max())
            self.weigh = lambda v: float(np.abs(v) @ rows)
        else:
            r = self.static_error = float(agg.residual)
            self.weigh = lambda v: abs(float(v[-1])) * r
        self.pi = agg.initial
        self.errors = np.empty(checkpoints)
        self.specific = np.empty(checkpoints)
        self.general = np.empty(checkpoints)
        self.inf_step = inf_norm(agg.step_matrix)
        e0 = float(np.abs(self.pi @ agg.disaggregation - p0).sum())
        self.acc_specific = self.acc_general = e0
        # Majorant ||initial||_1 * inf_step^i of the current vector's 1-norm.
        self.mass = float(np.abs(self.pi).sum())

    def advance(self, steps: int) -> None:
        """Take ``steps`` aggregated steps, accumulating both bounds.

        For size 1 the general term ``mass * static_error`` is the specific
        term ``weigh(pi)`` float for float, so there the two bounds are
        equal.
        """
        for _ in range(steps):
            self.acc_specific += self.weigh(self.pi)
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

    def result(self, ks: list[int]) -> ErrorTrace:
        criterion = None
        if self.agg.stationary is not None:
            criterion = self.weigh(self.agg.stationary)
        return ErrorTrace(
            steps=np.array(ks, dtype=int),
            errors=self.errors,
            bound_specific=self.specific,
            bound_general=self.general,
            static_error=self.static_error,
            criterion=criterion,
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


def _border(inverse: np.ndarray, hessenberg: np.ndarray) -> np.ndarray | None:
    """Grow ``W = (H^T - I)^-1`` by the last row and column of the j x j ``hessenberg``.

    ``inverse`` holds W of the leading (j-1) x (j-1) block, a 0 x 0 array
    at j = 1; the result is a new j x j array holding W of all of it.  In
    the row convention the new column of ``H^T - I`` is the
    step-coefficient row ``u = H[j-1, :j-1]``, and its new row has one
    off-diagonal entry, ``c = H[j-2, j-1]``.  So the bordered inverse
    (Golub & Van Loan, Matrix Computations, on bordered systems) needs the
    Schur complement ``s = H[j-1, j-1] - 1 - c (Wu)[j-2]``, one matvec and
    one rank-1 update: ``W + (Wu)(c W[j-2]) / s`` bordered by the row
    ``-c W[j-2] / s``, the column ``-Wu / s`` and the corner ``1 / s``.
    O(j^2).  None when ``s`` is zero or not finite.
    """
    j = hessenberg.shape[0]
    grown = np.empty((j, j))
    with np.errstate(all="ignore"):
        if j == 1:
            s = hessenberg[0, 0] - 1.0
        else:
            wu = inverse @ hessenberg[j - 1, :j - 1]
            c = hessenberg[j - 2, j - 1]
            s = (hessenberg[j - 1, j - 1] - 1.0) - c * wu[j - 2]
        if s == 0.0 or not np.isfinite(s):
            return None
        if j > 1:
            row = c * inverse[j - 2] / s
            np.add(inverse, np.outer(wu, row), out=grown[:j - 1, :j - 1])
            grown[j - 1, :j - 1] = -row
            grown[:j - 1, j - 1] = wu / -s
        grown[j - 1, j - 1] = 1.0 / s
    return grown


def _estimated_criterion(inverse: np.ndarray, residual: float, x: np.ndarray,
                         row_sums: np.ndarray) -> float | None:
    """The criterion after two inverse-iteration steps on ``H^T - I`` from ``x``.

    ``inverse`` is ``(H^T - I)^-1``, grown by ``_border``, so a step is one
    matvec.  ``residual`` is ``residual_norm * ||residual_direction||_1``,
    the one nonzero defect row sum.  Shift 1 is the known eigenvalue
    (Golub & Van Loan, section 7.6).  The iterate ``z`` is scaled by
    ``|z @ row_sums|``, where ``row_sums`` holds the row sums of the basis:
    that is the sum of the image ``z Q``, its 1-norm when the image is
    nonnegative, which it is up to rounding near the stop size.  So the
    estimate costs O(j^2) and reads no basis row.  A finite iterate
    overwrites ``x`` as the next warm start.  None when the iterate is not
    finite or ``|x_j|`` moved by more than half over the second step.
    """
    with np.errstate(all="ignore"):
        y = inverse @ x
        y /= np.sqrt(y @ y)
        z = inverse @ y
        z /= np.sqrt(z @ z)
        estimate = float(abs(z[-1] / (z @ row_sums)) * residual)
    if not np.isfinite(z).all():
        return None
    x[:] = z
    settled = abs(abs(z[-1]) - abs(y[-1])) <= 0.5 * abs(y[-1])
    return estimate if settled and np.isfinite(estimate) else None


# A size whose criterion estimate exceeds this many epsilons gets no geev.
_GEEV_MARGIN = 2.0


def pipeline_dynamic(p_mat: StochasticMatrix, p0, max_size: int, epsilon: float,
                     step_size: int = 1, method: OrthMethod = CGSIR) -> Aggregation:
    """Grow the aggregation until the convergence criterion drops below epsilon.

    The criterion is evaluated every ``step_size`` expansions, at
    deflation, and at ``max_size``, on the stationary vector of the current
    step matrix (LAPACK ``geev``) and read off the Arnoldi relation as
    ``|stationary_j| * residual``, the expression a trace of the same
    aggregation reads, so the two agree bit for bit; the first size passing
    ``criterion <= epsilon`` wins, else the final size is returned.

    ``geev`` runs only where a size can stop: where the warm-started
    inverse-iteration estimate (``_estimated_criterion``) is missing or
    within ``2 * epsilon``, and at the last size.  The margin is safe
    because near the stop size the estimate is the criterion to rounding:
    the Ritz value is then within the criterion of 1, so two steps at
    shift 1 converge to the stationary vector, and its image is
    nonnegative, so the row-sum scaling is its 1-norm.  On a 6 x 10-state
    NCD chain ``geev`` then runs 1 to 4 times per run, not at about 39
    checked sizes.  The estimate reads ``W = (H^T - I)^-1``, which
    ``_border`` grows by one row and column at every size, checked or not,
    in O(j^2); a zero or non-finite Schur complement there ends the
    estimates, and every later checked size runs ``geev``.  It also reads
    the residual norm and one sum of ``|residual_direction|`` per checked
    size, and each basis row is summed once per run; a skipped size takes
    no snapshot and no j x n product.  W, the warm start and the row sums
    are as long as the size reached, so ``max_size`` is only the builder's
    cap.  The result carries its stationary vector and criterion, and its
    arrays are read-only views of the builder's storage.

    A truncated step matrix can transiently have a complex leading
    eigenpair mid-growth; such sizes simply cannot stop the iteration.
    ComplexStationary is raised only if the final size still has one; its
    message then also gives the orthogonality loss of the final basis.
    """
    _integer("step_size", step_size, 1)
    if not 0.0 < epsilon < np.inf:
        raise InputError(f"epsilon must be positive and finite, got {epsilon!r}")
    builder = ArnoldiBuilder(p_mat, p0, max_size, method=method)
    # (H^T - I)^-1, bordered at every size; None once a border broke down.
    inverse = np.empty((0, 0))
    warm = np.ones(1)  # inverse-iteration warm start, zero-padded at each checked size
    row_sums = np.empty(0)  # basis row sums, one per row summed so far
    while True:
        builder.expand()
        j = builder.size
        if not builder.done:
            if inverse is not None:
                inverse = _border(inverse, builder.hessenberg)
            if j % step_size:
                continue
            if inverse is not None:
                row_sums = np.append(row_sums, builder.basis[len(row_sums):].sum(axis=1))
                warm = np.append(warm, np.zeros(j - len(warm)))
                residual = builder.residual_norm * np.abs(builder.residual_direction).sum()
                estimate = _estimated_criterion(inverse, residual, warm, row_sums)
                # A size whose estimate is above the margin cannot stop the loop.
                if estimate is not None and estimate > _GEEV_MARGIN * epsilon:
                    continue
        fact = builder.snapshot()
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
        crit = abs(float(agg.stationary[-1])) * agg.residual
        agg = replace(agg, criterion=crit)
        if crit <= epsilon or builder.done:
            return agg
