"""Gram-Schmidt orthonormalization strategies.

Six variants of the same projection step: classical (``cgs``) batches all
inner products against the current basis, modified (``mgs``) subtracts one
projection at a time.  The ``*2`` forms always run the projection pass a
second time with coefficient accumulation; the ``*ir`` forms re-run it only
when the first pass removed most of the vector's mass, which is the usual
selective reorthogonalization compromise between speed and orthogonality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InputError, RankDeficient

DEFAULT_KAPPA = 1.0 / math.sqrt(2.0)

# Residual norms at or below this fraction of the input norm mean the vector
# was numerically in the span of the basis.  The exact-zero test from the
# textbook algorithm never fires in floating point.
RANK_TOL = 1e-13

VARIANTS = ("cgs", "mgs", "cgs2", "mgs2", "cgsir", "mgsir")


@dataclass(frozen=True)
class OrthMethod:
    """An orthogonalization strategy: variant tag plus *ir re-pass threshold.

    ``kappa`` only matters for the ``cgsir``/``mgsir`` variants: the second
    pass runs iff the residual norm after pass one drops below
    ``kappa * norm(v)``.
    """

    variant: str
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown orthogonalization variant {self.variant!r}")
        if not 0.0 < self.kappa < 1.0:
            raise InputError(f"kappa must be in (0, 1), got {self.kappa!r}")

    @property
    def classical(self) -> bool:
        return self.variant.startswith("cgs")

    @property
    def always_twice(self) -> bool:
        return self.variant in ("cgs2", "mgs2")

    @property
    def selective(self) -> bool:
        return self.variant in ("cgsir", "mgsir")


CGS = OrthMethod("cgs")
MGS = OrthMethod("mgs")
CGS2 = OrthMethod("cgs2")
MGS2 = OrthMethod("mgs2")
CGSIR = OrthMethod("cgsir")
MGSIR = OrthMethod("mgsir")


def parse_method(name: str) -> OrthMethod:
    """Build an OrthMethod from its tag, in any case, e.g. for CLI flags."""
    return OrthMethod(name.lower())


@dataclass(frozen=True)
class OrthStepResult:
    """Outcome of orthogonalizing one vector against a basis.

    ``v = coefficients @ basis + residual_vector`` and ``residual_norm``
    is the 2-norm of the residual.
    """

    residual_vector: np.ndarray
    coefficients: np.ndarray
    residual_norm: float


def _as_basis(basis, n: int) -> np.ndarray:
    if isinstance(basis, np.ndarray) and basis.ndim == 2:
        q = basis
    elif len(basis) == 0:
        return np.empty((0, n))
    else:
        q = np.vstack(basis)
    if q.shape[1] != n:
        raise DimensionMismatch(f"basis vectors of length {q.shape[1]}, input of length {n}")
    return q


def _pass_classical(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    h = q @ r
    r -= h @ q
    return h


def _pass_modified(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    h = np.empty(q.shape[0])
    for i in range(q.shape[0]):
        h[i] = q[i] @ r
        r -= h[i] * q[i]
    return h


def orthogonalize_step(v, basis, method: OrthMethod = CGSIR) -> OrthStepResult:
    """Orthogonalize ``v`` against an orthonormal basis.

    ``basis`` is a sequence of unit row vectors (or a 2-D array with one
    vector per row).  At most two projection passes are run, with the
    coefficient vectors of both passes summed.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if v.shape[0] == 0:
        raise EmptyInput("cannot orthogonalize a length-0 vector")
    q = _as_basis(basis, v.shape[0])

    one_pass = _pass_classical if method.classical else _pass_modified
    v_norm = float(np.linalg.norm(v))
    r = v.copy()
    h = one_pass(r, q)
    if q.shape[0]:
        second = method.always_twice or (
            method.selective and float(np.linalg.norm(r)) < method.kappa * v_norm
        )
        if second:
            h = h + one_pass(r, q)
    return OrthStepResult(r, h, float(np.linalg.norm(r)))


def orthonormalize_all(vectors, method: OrthMethod = CGSIR):
    """Orthonormalize a sequence of vectors, returning (basis, R).

    ``R`` is upper triangular with ``R[i, k]`` the coefficient of basis
    vector i in input vector k and ``R[k, k]`` the residual norm, so that
    stacking inputs and basis as rows gives ``V = R.T @ Q``.

    Raises RankDeficient(k) when input k is numerically dependent on its
    predecessors.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if not vectors:
        raise EmptyInput("no vectors to orthonormalize")
    m = len(vectors)
    n = vectors[0].shape[0]
    basis = np.empty((m, n))
    r = np.zeros((m, m))
    for k, v in enumerate(vectors):
        if v.shape != (n,):
            raise DimensionMismatch(f"vector {k} has shape {v.shape}, expected ({n},)")
        step = orthogonalize_step(v, basis[:k], method)
        r[:k, k] = step.coefficients
        r[k, k] = step.residual_norm
        if step.residual_norm <= RANK_TOL * np.linalg.norm(v):
            raise RankDeficient(k)
        basis[k] = step.residual_vector / step.residual_norm
    return [basis[k] for k in range(m)], r


def orthogonality_loss(basis) -> float:
    """Largest deviation of the basis Gram matrix from the identity."""
    if isinstance(basis, np.ndarray) and basis.ndim == 2:
        q = basis
    else:
        if len(basis) == 0:
            raise EmptyInput("empty basis")
        q = np.vstack([np.asarray(v, dtype=float) for v in basis])
    if q.shape[0] == 0:
        raise EmptyInput("empty basis")
    gram = q @ q.T
    return float(np.max(np.abs(gram - np.eye(q.shape[0]))))
