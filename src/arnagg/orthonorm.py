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

from .errors import DimensionMismatch, EmptyInput, InputError
from .mchain import as_vector

# Re-pass threshold of the *ir variants: the second pass runs iff the
# residual norm after pass one drops below KAPPA * norm(v).
KAPPA = 1.0 / math.sqrt(2.0)

VARIANTS = ("cgs", "mgs", "cgs2", "mgs2", "cgsir", "mgsir")


@dataclass(frozen=True)
class OrthMethod:
    """An orthogonalization strategy, named by its variant tag."""

    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown orthogonalization variant {self.variant!r}")

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


def _as_basis(basis, n: int = 0) -> np.ndarray:
    """``basis``, a 2-D array or a sequence of rows (of length ``n``, if given), as a 2-D array."""
    q = np.asarray(basis, dtype=float) if len(basis) else np.empty((0, n))
    if q.ndim != 2:
        raise DimensionMismatch(f"a basis is a 2-D array of rows, got shape {q.shape}")
    if n and q.shape[1] != n:
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


def _orthogonalize(r: np.ndarray, q: np.ndarray, method: OrthMethod):
    """Project ``r`` in place off the rows of ``q``, for ``orthogonalize_step`` and ``expand``.

    Returns ``(coefficients, residual_norm, input_norm)``: the summed
    coefficients of at most two passes and the 2-norms of ``r`` after and
    before.  Each norm is taken as ``sqrt(r.dot(r))``, the value
    ``np.linalg.norm`` gives a 1-D float vector, without its wrapper; the
    residual norm is taken after each pass that runs.
    """
    one_pass = _pass_classical if method.classical else _pass_modified
    v_norm = math.sqrt(r.dot(r))
    h = one_pass(r, q)
    r_norm = math.sqrt(r.dot(r))
    if q.shape[0] and (method.always_twice or method.selective and r_norm < KAPPA * v_norm):
        h = h + one_pass(r, q)
        r_norm = math.sqrt(r.dot(r))
    return h, r_norm, v_norm


def orthogonalize_step(v, basis, method: OrthMethod = CGSIR) -> OrthStepResult:
    """Orthogonalize ``v`` against an orthonormal basis.

    ``basis`` is a sequence of unit row vectors (or a 2-D array with one
    vector per row).  At most two projection passes are run, with the
    coefficient vectors of both passes summed.
    """
    r = as_vector(v).copy()
    if r.shape[0] == 0:
        raise EmptyInput("cannot orthogonalize a length-0 vector")
    h, r_norm, _ = _orthogonalize(r, _as_basis(basis, r.shape[0]), method)
    return OrthStepResult(r, h, r_norm)


def orthogonality_loss(basis) -> float:
    """Largest deviation of the basis Gram matrix from the identity.

    ``basis`` is a 2-D array of rows or a list of rows; a 1-D array is no basis.
    """
    q = _as_basis(basis)
    if q.shape[0] == 0:
        raise EmptyInput("empty basis")
    return float(np.max(np.abs(q @ q.T - np.eye(q.shape[0]))))
