"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: transient
distributions come from explicit matrix powers, eigenvalues from
characteristic polynomials built with the trace recursion, stationary
vectors from plain power iteration, and conditioning from numpy's SVD.
The one exception is ``dynamic_geev_every_size``, the library's own
dynamic loop before it skipped sizes, kept as the reference for that
optimisation.
"""

import itertools
from dataclasses import replace

import numpy as np

from arnagg.aggregate import _relation_criterion
from arnagg.arnoldi import ArnoldiBuilder, build_aggregation
from arnagg.errors import ComplexStationary
from arnagg.orthonorm import CGSIR, orthogonality_loss
from arnagg.schur import aggregated_stationary


def transient_by_power(p_dense: np.ndarray, p0: np.ndarray, k: int) -> np.ndarray:
    """p0 @ P^k via an explicit dense matrix power."""
    return p0 @ np.linalg.matrix_power(p_dense, k)


def char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - M) by the Faddeev-LeVerrier recursion."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.zeros_like(m)
    for k in range(1, n + 1):
        aux = m @ aux + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ aux) / k
    return coeffs


def eigenvalues_by_char_poly(m: np.ndarray) -> np.ndarray:
    """Eigenvalues as the roots of the characteristic polynomial."""
    return np.roots(char_poly_coeffs(m))


def multiset_distance(a, b) -> float:
    """Best max pairing distance between two small eigenvalue multisets."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b) <= 8, "brute-force matching is for small multisets"
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        worst = max(abs(a[i] - b[p]) for i, p in enumerate(perm))
        best = min(best, worst)
    return float(best)


def power_iteration_stationary(p_dense: np.ndarray, tol: float = 1e-13,
                               max_iter: int = 200000) -> np.ndarray:
    """Stationary distribution of an irreducible aperiodic chain, v @ P = v."""
    n = p_dense.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = v @ p_dense
        w /= w.sum()
        if np.abs(w - v).sum() < tol:
            return w
        v = w
    raise AssertionError("power iteration did not converge; oracle misuse")


def ill_conditioned_vectors(count: int, dim: int, cond: float, seed=0) -> list:
    """Vectors with prescribed condition number via an SVD construction."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    w, _ = np.linalg.qr(rng.standard_normal((count, count)))
    sing = cond ** (-np.arange(count) / (count - 1))
    v = (u * sing) @ w.T
    return [v[:, i].copy() for i in range(count)]


def krylov_matrix(p_dense: np.ndarray, p0: np.ndarray, count: int) -> np.ndarray:
    """Rows p0, p0 @ P, ..., p0 @ P^(count-1), unnormalized."""
    rows = np.empty((count, p_dense.shape[0]))
    v = p0.copy()
    for i in range(count):
        rows[i] = v
        v = v @ p_dense
    return rows


def dynamic_geev_every_size(p_mat, p0, max_size, epsilon, step_size=1, method=CGSIR):
    """``pipeline_dynamic`` with LAPACK ``geev`` at every checked size.

    The pipeline skips ``geev`` at sizes whose inverse-iteration criterion
    estimate is far above epsilon; its stop size, stationary vector,
    criterion and ``ComplexStationary`` must equal this loop's bit for bit.
    """
    builder = ArnoldiBuilder(p_mat, p0, max_size, method=method)
    while True:
        builder.expand()
        if builder.size % step_size == 0 or builder.done:
            fact = builder.snapshot()
            try:
                agg = aggregated_stationary(build_aggregation(fact, p0))
            except ComplexStationary as exc:
                if builder.done:
                    loss = orthogonality_loss(fact.basis)
                    exc.args = (f"{exc}; the size-{fact.size} {method.variant} basis "
                                f"has orthogonality loss {loss:.3e}",)
                    raise
                continue
            crit = _relation_criterion(fact, agg.stationary)
            if crit <= epsilon or builder.done:
                return replace(agg, criterion=crit)
