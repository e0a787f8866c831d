"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: transient
distributions come from explicit matrix powers, eigenvalues from
characteristic polynomials built with the trace recursion, stationary
vectors from plain power iteration, and conditioning from numpy's SVD.
The exceptions are ``dynamic_geev_every_size``, the library's own
dynamic loop before it skipped sizes, and ``stream_parse_matrixmarket``,
its Matrix Market reader before entries went through ``np.loadtxt``; each
is kept as the reference for the change that replaced it.  Matrix
validation is checked against ``dense_validation_verdict``, plain loops
over a dense array.
"""

import itertools
from array import array
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from arnagg.aggregate import _relation_criterion
from arnagg.arnoldi import ArnoldiBuilder, build_aggregation
from arnagg.errors import (
    ComplexStationary,
    GeneratorRowSumViolation,
    InputError,
    NegativeEntry,
    ParseError,
    RowSumViolation,
    ShapeError,
)
from arnagg.mchain import _MM_HEADER, _MM_UNBACKED_MAX
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


def stream_parse_matrixmarket(path):
    """The Matrix Market reader before it parsed entries with ``np.loadtxt``.

    Entries are tokenised one by one with Python's ``int`` and ``float``.
    ``mchain._parse_matrixmarket`` must accept and reject the same files and
    build the same CSR, apart from the documented contract changes.
    """
    # Streamed line by line into typed arrays: a Python list of boxed
    # floats costs several times the file size.  The arrays grow as entries
    # arrive; the declared nnz is untrusted and only checked at the end.
    rows, cols, vals = array("q"), array("q"), array("d")
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ParseError(1, "empty file")
        header = first.strip().split()
        want = _MM_HEADER.split()
        if len(header) != len(want) or header[0] != want[0] or [h.lower() for h in header[1:]] != want[1:]:
            raise ParseError(1, f"unsupported or malformed header {first.strip()!r}")
        lineno = 1
        dims = None
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text or text.startswith("%"):
                continue
            parts = text.split()
            if dims is None:
                if len(parts) != 3:
                    raise ParseError(lineno, "size line must be 'rows cols nnz'")
                try:
                    dims = tuple(int(p) for p in parts)
                except ValueError:
                    raise ParseError(lineno, f"non-integer size line {text!r}") from None
                if min(dims) < 0:
                    raise ParseError(lineno, f"negative size {text!r}")
                if max(dims) > np.iinfo(np.int64).max or max(dims[:2]) > dims[2] + _MM_UNBACKED_MAX:
                    raise ShapeError(f"size line {text!r} (line {lineno}) must fit 64-bit indices "
                                     f"and exceed its entry count by at most {_MM_UNBACKED_MAX}")
                continue
            if len(parts) != 3:
                raise ParseError(lineno, "entry line must be 'row col value'")
            try:
                i, j = int(parts[0]), int(parts[1])
                x = float(parts[2])
            except ValueError:
                raise ParseError(lineno, f"malformed entry {text!r}") from None
            if not (1 <= i <= dims[0]) or not (1 <= j <= dims[1]):
                raise ShapeError(
                    f"entry ({i}, {j}) outside declared {dims[0]}x{dims[1]} shape (line {lineno})"
                )
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(x)
    if dims is None:
        raise ParseError(lineno, "missing size line")
    if len(vals) != dims[2]:
        raise ShapeError(f"header declares {dims[2]} entries, file has {len(vals)}")
    index = (np.frombuffer(rows, dtype=np.int64), np.frombuffer(cols, dtype=np.int64))
    return sp.coo_array((np.frombuffer(vals), index), shape=(dims[0], dims[1])).tocsr()


def dense_validation_verdict(m: np.ndarray, tol: float, generator: bool):
    """What validating the square dense array ``m`` must give, by plain loops.

    Returns ``(error class, fields)`` for the first failing check, in the
    order: a non-finite entry ``(row, col, value)``, an entry below -tol
    (off the diagonal only, for a generator) ``(row, col, value)``, a row
    sum farther than tol from 1 (from 0, for a generator) ``(row, sum)``.
    Entries and rows are scanned in row-major order.  An accepted matrix
    gives ``(None, array)``, a transition matrix with its entries in
    ``(-tol, 0)`` set to zero.
    """
    n = m.shape[0]
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in cells:
        if not np.isfinite(m[i, j]):
            return InputError, (i, j, m[i, j])
    for i, j in cells:
        if m[i, j] < -tol and not (generator and i == j):
            return NegativeEntry, (i, j, m[i, j])
    for i in range(n):
        total = sum(m[i])
        if abs(total - (0.0 if generator else 1.0)) > tol:
            return (GeneratorRowSumViolation if generator else RowSumViolation), (i, total)
    out = m.copy()
    if not generator:
        for i, j in cells:
            if -tol < out[i, j] < 0.0:
                out[i, j] = 0.0
    return None, out
