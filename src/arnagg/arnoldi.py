"""Krylov basis construction over a transition matrix and its aggregation.

The iteration repeatedly orthogonalizes ``q_j @ P`` against the basis built
so far, collecting the projection coefficients in a compact step matrix.
Everything is in the row convention: basis vectors are rows, the step
matrix acts from the right on aggregated row vectors, and the defining
relation is ``H @ Q + E = Q @ P`` with ``E`` zero except for its last row,
which holds the scaled residual direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InputError, ZeroInitialVector
from .mchain import StochasticMatrix, as_vector, inf_norm
from .orthonorm import CGSIR, OrthMethod, orthogonalize_step

DEFLATION_TOL = 1e-12


@dataclass(frozen=True)
class ArnoldiFactorization:
    """Completed (or deflated) Krylov factorization of size j.

    Factorizations from ``ArnoldiBuilder.snapshot()`` (and so from
    ``arnoldi_iterate``) hold read-only views of the builder's storage.

    basis: (j, n) orthonormal rows spanning the Krylov subspace.
    hessenberg: (j, j) step matrix, zero above the first superdiagonal.
    residual_norm: norm of the next, not yet accepted direction.
    residual_direction: that direction as a unit vector, None once deflated.
    """

    basis: np.ndarray
    hessenberg: np.ndarray
    residual_norm: float
    residual_direction: np.ndarray | None
    deflated: bool

    @property
    def size(self) -> int:
        return self.hessenberg.shape[0]


@dataclass(frozen=True)
class Aggregation:
    """A reduced linear system (step matrix, disaggregation map, start vector).

    ``stationary`` is attached by the Schur path and is scaled so that its
    disaggregated image has unit 1-norm.  ``criterion`` carries the
    convergence-criterion value for aggregations built by the dynamic
    pipeline.  ``build_aggregation`` aliases the factorization's arrays, so
    on a snapshot ``step_matrix`` and ``disaggregation`` are read-only
    views of the builder's storage.
    """

    step_matrix: np.ndarray
    disaggregation: np.ndarray
    initial: np.ndarray
    stationary: np.ndarray | None = None
    criterion: float | None = None

    @property
    def size(self) -> int:
        return self.step_matrix.shape[0]

    @property
    def n_states(self) -> int:
        return self.disaggregation.shape[1]

    def with_stationary(self, stationary: np.ndarray, criterion: float | None = None):
        return replace(self, stationary=stationary, criterion=criterion)


class ArnoldiBuilder:
    """Grows a Krylov factorization one direction at a time.

    Single-owner while growing; ``snapshot()`` hands out read-only views of
    the storage, which is preallocated at ``max_size`` so expansion never
    reallocates.  The views stay valid as the builder grows: step j' writes
    only basis row j' and step-coefficient row j' - 1, and a size-j
    snapshot reads neither.
    """

    def __init__(self, p_mat: StochasticMatrix, p0, max_size: int,
                 method: OrthMethod = CGSIR):
        v = as_vector(p0)
        n = p_mat.n
        if v.shape[0] != n:
            raise DimensionMismatch(f"p0 has length {v.shape[0]}, chain has {n} states")
        if not np.isfinite(v).all():
            raise InputError("start vector has non-finite entries")
        if not 1 <= max_size <= n:
            raise InputError(f"target size {max_size} outside 1..{n}")
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ZeroInitialVector("initial vector has zero 2-norm")
        self.p_mat = p_mat
        self.max_size = max_size
        self.method = method
        self.deflated = False
        self._q = np.zeros((max_size + 1, n))
        self._h = np.zeros((max_size, max_size + 1))
        self._q[0] = v / nrm
        self._steps = 0

    @property
    def size(self) -> int:
        """Current factorization size (completed orthogonalization steps)."""
        return self._steps

    @property
    def done(self) -> bool:
        return self.deflated or self._steps >= self.max_size

    def expand(self) -> None:
        """Run one orthogonalization step, growing the basis unless it deflates."""
        if self.done:
            raise InputError("factorization is complete; cannot expand further")
        j = self._steps + 1
        w = self.p_mat.vec_mul(self._q[j - 1])
        step = orthogonalize_step(w, self._q[:j], self.method)
        self._h[j - 1, :j] = step.coefficients
        self._h[j - 1, j] = step.residual_norm
        self._steps = j
        if step.residual_norm <= DEFLATION_TOL * float(np.linalg.norm(w)):
            self.deflated = True
        else:
            self._q[j] = step.residual_vector / step.residual_norm

    def snapshot(self) -> ArnoldiFactorization:
        if self._steps == 0:
            raise InputError("no steps taken yet; nothing to snapshot")
        j = self._steps
        direction = None if self.deflated else _read_only(self._q[j])
        return ArnoldiFactorization(
            basis=_read_only(self._q[:j]),
            hessenberg=_read_only(self._h[:j, :j]),
            residual_norm=float(self._h[j - 1, j]),
            residual_direction=direction,
            deflated=self.deflated,
        )


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def arnoldi_iterate(p_mat: StochasticMatrix, p0, m: int,
                    method: OrthMethod = CGSIR) -> ArnoldiFactorization:
    """Krylov factorization of (p0, P), stopping early on deflation.

    Returns a factorization of size ``m``, or smaller if the residual norm
    fell below ``DEFLATION_TOL`` times the norm of the propagated vector.
    """
    builder = ArnoldiBuilder(p_mat, p0, m, method=method)
    while not builder.done:
        builder.expand()
    return builder.snapshot()


def build_aggregation(fact: ArnoldiFactorization, p0) -> Aggregation:
    """Package a factorization as an aggregation of its chain.

    The step matrix and disaggregation map are the factorization's arrays,
    not copies.  The aggregated start vector puts the whole 2-norm of
    ``p0`` on the first coordinate, which makes the disaggregated start
    exact.
    """
    v = as_vector(p0)
    initial = np.zeros(fact.size)
    initial[0] = float(np.linalg.norm(v))
    return Aggregation(
        step_matrix=fact.hessenberg,
        disaggregation=fact.basis,
        initial=initial,
    )


def relation_residual(fact: ArnoldiFactorization, p_mat: StochasticMatrix) -> float:
    """Max-row-sum norm of ``H @ Q + E - Q @ P``.

    Zero in exact arithmetic; its growth measures orthogonalization decay.
    """
    lhs = fact.hessenberg @ fact.basis
    if fact.residual_direction is not None:
        lhs[-1] += fact.residual_norm * fact.residual_direction
    rhs = p_mat.mat_mul(fact.basis)
    return inf_norm(lhs - rhs)
