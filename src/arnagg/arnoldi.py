"""Krylov basis construction over a transition matrix and its aggregation.

The iteration repeatedly orthogonalizes ``q_j @ P`` against the basis built
so far, collecting the projection coefficients in a compact step matrix.
Everything is in the row convention: basis vectors are rows, the step
matrix acts from the right on aggregated row vectors, and the defining
relation is ``H @ Q + E = Q @ P`` with ``E`` zero except for its last row,
which holds the scaled residual direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError, ShapeError, ZeroInitialVector
from .mchain import StochasticMatrix, _integer, _start_vector, as_vector, inf_norm
# ``orthogonalize_step`` stays importable from this module, where callers
# have looked it up; ``expand`` calls the helper behind it.
from .orthonorm import CGSIR, OrthMethod, _orthogonalize, orthogonalize_step

DEFLATION_TOL = 1e-12

# Steps a builder holds before it first grows; no benchmark run outgrows it.
_FIRST_CAPACITY = 256


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

    ``stationary`` is attached by ``aggregated_stationary``: the real left
    eigenvector that LAPACK returns for the step matrix's eigenvalue
    closest to one, scaled so that its disaggregated image has unit 1-norm.
    No stationary vector is attached when that eigenvalue is complex.
    ``criterion`` carries the convergence-criterion value for aggregations
    built by the dynamic pipeline.  ``residual`` is the 1-norm of the last
    row of ``E`` in the Arnoldi relation, ``residual_norm *
    ||residual_direction||_1`` (0 once the basis deflated): the one row of
    the exactness defect that is not zero in exact arithmetic.  It is None
    for an aggregation built by hand, whose defect has no such structure; a
    copy with another step matrix or disaggregation must reset it to None.
    ``build_aggregation`` aliases the factorization's arrays, so on a
    snapshot ``step_matrix`` and ``disaggregation`` are read-only views of
    the builder's storage.  Construction checks shapes, in O(1), and no
    entry: a step matrix that is not square j x j with j >= 1 raises
    ShapeError, and a disaggregation that is not 2-D with j rows, or an
    ``initial`` or ``stationary`` not of length j, raises DimensionMismatch.
    """

    step_matrix: np.ndarray
    disaggregation: np.ndarray
    initial: np.ndarray
    stationary: np.ndarray | None = None
    criterion: float | None = None
    residual: float | None = None

    def __post_init__(self):
        shape = np.shape(self.step_matrix)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise ShapeError(f"step matrix must be square and nonempty, got shape {shape}")
        j = shape[0]
        for name, ndim in (("disaggregation", 2), ("initial", 1), ("stationary", 1)):
            part = getattr(self, name)
            if part is not None and (np.ndim(part) != ndim or len(part) != j):
                raise DimensionMismatch(f"{name} of shape {np.shape(part)} against size {j}")

    @property
    def size(self) -> int:
        return self.step_matrix.shape[0]

    @property
    def n_states(self) -> int:
        return self.disaggregation.shape[1]


class ArnoldiBuilder:
    """Grows a Krylov factorization one direction at a time.

    Single-owner while growing; ``snapshot()`` and the ``basis``,
    ``hessenberg`` and ``residual_direction`` properties hand out read-only
    views of the storage.  The storage holds ``min(max_size, 256)`` steps
    at first and doubles, up to ``max_size``, when a step would overrun it,
    so it follows the size reached.  The views stay valid as the builder
    grows: step j' writes only basis row j' and step-coefficient row j' - 1,
    which a size-j view does not read, and a view taken before a doubling
    keeps the old buffer, which no later step writes.
    """

    def __init__(self, p_mat: StochasticMatrix, p0, max_size: int,
                 method: OrthMethod = CGSIR):
        v = _start_vector(p_mat, p0)
        if _integer("target size", max_size, 1) > p_mat.n:
            raise InputError(f"target size {max_size} outside 1..{p_mat.n}")
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ZeroInitialVector("initial vector has zero 2-norm")
        self.p_mat = p_mat
        self.max_size = max_size
        self.method = method
        self.deflated = False
        capacity = min(max_size, _FIRST_CAPACITY)
        self._q = np.zeros((capacity + 1, p_mat.n))
        self._h = np.zeros((capacity, capacity + 1))
        self._q[0] = v / nrm
        self._steps = 0

    @property
    def size(self) -> int:
        """Current factorization size (completed orthogonalization steps)."""
        return self._steps

    @property
    def done(self) -> bool:
        return self.deflated or self._steps >= self.max_size

    @property
    def basis(self) -> np.ndarray:
        """Read-only view of the current basis rows."""
        return _read_only(self._q[:self._steps])

    @property
    def hessenberg(self) -> np.ndarray:
        """Read-only view of the current step matrix."""
        return _read_only(self._h[:self._steps, :self._steps])

    @property
    def residual_norm(self) -> float:
        """Norm of the last step's residual, before it became the next direction."""
        return float(self._h[self._steps - 1, self._steps])

    @property
    def residual_direction(self) -> np.ndarray | None:
        """Read-only view of the next direction, None once deflated."""
        return None if self.deflated else _read_only(self._q[self._steps])

    def expand(self) -> None:
        """Run one orthogonalization step, growing the basis unless it deflates."""
        if self.done:
            raise InputError("factorization is complete; cannot expand further")
        j = self._steps + 1
        if j > len(self._h):
            self._grow()
        # vec_mul returns a new vector, so it is orthogonalized in place.
        w = self.p_mat.vec_mul(self._q[j - 1])
        coefficients, r_norm, w_norm = _orthogonalize(w, self._q[:j], self.method)
        self._h[j - 1, :j] = coefficients
        self._h[j - 1, j] = r_norm
        self._steps = j
        if r_norm <= DEFLATION_TOL * w_norm:
            self.deflated = True
        else:
            np.divide(w, r_norm, out=self._q[j])

    def _grow(self) -> None:
        """Double the storage, up to ``max_size``, copying the rows written so far."""
        old = len(self._h)
        capacity = min(2 * old, self.max_size)
        q = np.zeros((capacity + 1, self._q.shape[1]))
        h = np.zeros((capacity, capacity + 1))
        q[:old + 1] = self._q
        h[:old, :old + 1] = self._h
        self._q, self._h = q, h

    def snapshot(self) -> ArnoldiFactorization:
        if self._steps == 0:
            raise InputError("no steps taken yet; nothing to snapshot")
        return ArnoldiFactorization(
            basis=self.basis,
            hessenberg=self.hessenberg,
            residual_norm=self.residual_norm,
            residual_direction=self.residual_direction,
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
    exact.  ``residual`` is read off the factorization's residual, one sum
    over ``residual_direction``.
    """
    v = as_vector(p0)
    initial = np.zeros(fact.size)
    initial[0] = float(np.linalg.norm(v))
    residual = 0.0
    if fact.residual_direction is not None:
        residual = float(fact.residual_norm * np.abs(fact.residual_direction).sum())
    return Aggregation(
        step_matrix=fact.hessenberg,
        disaggregation=fact.basis,
        initial=initial,
        residual=residual,
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
