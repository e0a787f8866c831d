"""Sorted complex Schur forms and stationary extraction.

The numerics are LAPACK's: the complex Schur form (Hessenberg reduction
plus shifted QR iteration) and ``ztrexc`` reordering for
:func:`schur_decompose` and :func:`leading_eigvec`, and the general
eigensolver ``geev`` for :func:`aggregated_stationary`.  Conventions:

* ``M = U @ T @ U^H`` with unitary ``U`` (columns are Schur vectors) and
  upper-triangular ``T``.
* Eigenvalues on ``diag(T)`` are sorted by descending real part, ties by
  ascending imaginary magnitude, realized through unitary adjacent swaps,
  so sorting never changes the eigenvalue multiset.
* Stationary vectors of a step matrix are its left eigenvectors; they are
  read as right eigenvectors of the transposed matrix.  For a real
  eigenvalue of a real matrix LAPACK returns a real eigenvector, so no
  rounding-level imaginary mass enters the stationary vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arnoldi import Aggregation
from .errors import ComplexStationary, NoConvergence, ShapeError, ZeroVector

# Imaginary mass left after phase alignment is rounding noise up to this
# threshold and dropped; above it the stationary vector is genuinely complex.
IMAG_ERROR_TOL = 1e-8


@dataclass(frozen=True)
class SchurDecomposition:
    """Unitary/triangular pair with eigenvalue-sorted diagonal."""

    unitary: np.ndarray
    triangular: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.triangular).copy()

    @property
    def n(self) -> int:
        return self.triangular.shape[0]


def _closest_to_one(evs) -> int:
    """Index of the eigenvalue whose real part is closest to one.

    Ties on the real part go to the smaller imaginary magnitude, then to the
    lower index.
    """
    return min(range(len(evs)), key=lambda i: (abs(evs[i].real - 1.0), abs(evs[i].imag), i))


def schur_decompose(m) -> SchurDecomposition:
    """Sorted complex Schur decomposition ``M = U @ T @ U^H``.

    Raises NoConvergence when LAPACK's QR iteration fails.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ShapeError("empty matrix")
    # Imported here: scipy.linalg costs about 8 MB of RSS the pipelines never use.
    import scipy.linalg
    from scipy.linalg.lapack import ztrexc

    try:
        t, u = scipy.linalg.schur(a.astype(complex), output="complex")
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"complex Schur form: {exc}") from exc
    evs = np.diag(t)
    order = sorted(range(n), key=lambda i: (-evs[i].real, abs(evs[i].imag), i))
    perm = list(range(n))
    for target, orig in enumerate(order):
        cur = perm.index(orig)
        if cur != target:
            t, u, _ = ztrexc(t, u, cur + 1, target + 1)
            perm.insert(target, perm.pop(cur))
    return SchurDecomposition(u, t)


def leading_eigvec(s: SchurDecomposition):
    """Eigenpair whose eigenvalue has real part closest to one.

    Ties on the real part are broken by the smaller imaginary magnitude.
    Returns ``(lam, v)`` with unit-2-norm ``v`` satisfying ``M v = lam v``
    for the decomposed matrix.  With the sorted convention the winner is
    usually the first Schur vector; otherwise one ``ztrexc`` reorder of a
    copy of the form moves it to the front, where the first Schur vector
    is its eigenvector.
    """
    t, u = s.triangular, s.unitary
    idx = _closest_to_one(np.diag(t))
    lam = complex(t[idx, idx])
    if idx:
        from scipy.linalg.lapack import ztrexc

        t, u, _ = ztrexc(t, u, idx + 1, 1)
    return lam, u[:, 0].copy()


def aggregated_stationary(agg: Aggregation) -> Aggregation:
    """Attach the aggregated stationary vector to an aggregation.

    The stationary vector is a left eigenvector of the step matrix, taken
    from the eigenpairs of its transpose with the selection rule of
    :func:`leading_eigvec`, phase-aligned, cast to real, and scaled so its
    disaggregated image has unit 1-norm.
    """
    try:
        evs, vecs = np.linalg.eig(agg.step_matrix.T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration: {exc}") from exc
    v = vecs[:, _closest_to_one(evs)]
    j = int(np.argmax(np.abs(v)))
    v = v * np.conj(v[j] / abs(v[j]))
    imag = float(np.max(np.abs(v.imag)))
    if imag > IMAG_ERROR_TOL:
        raise ComplexStationary(imag)
    pi = v.real.copy()
    image = pi @ agg.disaggregation
    if image.sum() < 0.0:
        pi = -pi
        image = -image
    nrm = float(np.abs(image).sum())
    if nrm == 0.0:
        raise ZeroVector("stationary candidate disaggregates to the zero vector")
    return agg.with_stationary(pi / nrm, criterion=agg.criterion)
