"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: transient
distributions come from explicit matrix powers, eigenvalues from
characteristic polynomials built with the trace recursion, stationary
vectors from plain power iteration, and conditioning from numpy's SVD.
The exceptions are ``dynamic_geev_every_size``, the library's own
dynamic loop before it skipped sizes, ``arnoldi_by_orthogonalize_step``,
its Krylov loop before ``ArnoldiBuilder.expand`` orthogonalized in place,
``stream_parse_matrixmarket``, its Matrix Market reader before entries
went through ``np.loadtxt``, ``stationary_by_phase_alignment``, its
stationary extraction before LAPACK's real/complex verdict decided alone,
``defect_rows_by_gemm``, its defect row sums before they were read
off the Arnoldi relation, ``trace_by_padded_rows``, its error trace before
it weighed a Krylov aggregation's defect by one number, and
``conditional_by_five_rules``, its conditional normalization rules before
two proven conditions replaced them, and ``estimate_by_solve``, its
criterion estimate before ``(H^T - I)^-1`` was grown by bordering; each is
kept as the reference for the change that replaced it.
``orthonormalize_rows`` is a test harness, not a reference: it runs the
library's ``orthogonalize_step`` over a sequence of vectors.  Matrix
validation is checked against ``dense_validation_verdict``, plain loops
over a dense array.
"""

import itertools
from array import array
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from arnagg.aggregate import (
    CONDITION_TOL,
    ENTRY_CAP,
    NEVER,
    ErrorTrace,
    exactness_defect,
    normalize,
)
from arnagg.arnoldi import DEFLATION_TOL, ArnoldiBuilder, build_aggregation
from arnagg.errors import (
    ComplexStationary,
    GeneratorRowSumViolation,
    InputError,
    NegativeEntry,
    NoConvergence,
    ParseError,
    RowSumViolation,
    ShapeError,
    ZeroVector,
)
from arnagg.mchain import _MM_HEADER, _MM_UNBACKED_MAX, _checkpoint_walk, inf_norm
from arnagg.orthonorm import CGSIR, orthogonality_loss, orthogonalize_step
from arnagg.schur import _closest_to_one, aggregated_stationary


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


def orthonormalize_rows(vectors, method=CGSIR):
    """Gram-Schmidt over ``vectors`` with ``orthogonalize_step``; returns (basis, R).

    ``R`` is upper triangular with ``R[i, k]`` the coefficient of basis
    vector i in input vector k and ``R[k, k]`` the residual norm, so that
    stacking inputs and basis as rows gives ``V = R.T @ Q``.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    basis = np.empty((len(vectors), vectors[0].shape[0]))
    r = np.zeros((len(vectors), len(vectors)))
    for k, v in enumerate(vectors):
        step = orthogonalize_step(v, basis[:k], method)
        r[:k, k] = step.coefficients
        r[k, k] = step.residual_norm
        basis[k] = step.residual_vector / step.residual_norm
    return list(basis), r


def krylov_matrix(p_dense: np.ndarray, p0: np.ndarray, count: int) -> np.ndarray:
    """Rows p0, p0 @ P, ..., p0 @ P^(count-1), unnormalized."""
    rows = np.empty((count, p_dense.shape[0]))
    v = p0.copy()
    for i in range(count):
        rows[i] = v
        v = v @ p_dense
    return rows


def arnoldi_by_orthogonalize_step(p_mat, p0, m, method=CGSIR):
    """``arnoldi_iterate`` as a loop over the public ``orthogonalize_step``.

    Returns ``(basis, hessenberg)`` of the factorization, of size ``m`` or
    smaller on deflation.  ``ArnoldiBuilder.expand`` must give the same
    arrays byte for byte.
    """
    v = np.asarray(p0, dtype=float)
    q = np.zeros((m + 1, v.shape[0]))
    h = np.zeros((m, m + 1))
    q[0] = v / np.linalg.norm(v)
    for j in range(1, m + 1):
        w = p_mat.vec_mul(q[j - 1])
        step = orthogonalize_step(w, q[:j], method)
        h[j - 1, :j] = step.coefficients
        h[j - 1, j] = step.residual_norm
        if step.residual_norm <= DEFLATION_TOL * float(np.linalg.norm(w)):
            return q[:j], h[:j, :j]
        q[j] = step.residual_vector / step.residual_norm
    return q[:m], h[:m, :m]


def dynamic_geev_every_size(p_mat, p0, max_size, epsilon, step_size=1, method=CGSIR):
    """``pipeline_dynamic`` with LAPACK ``geev`` at every checked size.

    The pipeline skips ``geev`` at sizes whose inverse-iteration criterion
    estimate is far above epsilon; its stop size, stationary vector,
    criterion and ``ComplexStationary`` must equal this loop's bit for bit.
    The criterion is the one a trace by padded rows reads.
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
            crit = float(np.abs(agg.stationary) @ padded_defect_rows(p_mat, agg))
            if crit <= epsilon or builder.done:
                return replace(agg, criterion=crit)


def estimate_by_solve(hessenberg, residual, x, row_sums):
    """``_estimated_criterion`` with two LU solves on ``H^T - I`` per size.

    The pipeline took its two inverse-iteration steps this way before it
    grew ``(H^T - I)^-1`` by bordering.  Same contract: a finite iterate
    overwrites ``x``; None when a solve fails, the iterate is not finite or
    ``|x_j|`` moved by more than half over the second step.
    """
    shifted = hessenberg.T - np.eye(hessenberg.shape[0])
    try:
        with np.errstate(all="ignore"):
            y = np.linalg.solve(shifted, x)
            y /= np.sqrt(y @ y)
            z = np.linalg.solve(shifted, y)
            z /= np.sqrt(z @ z)
            estimate = float(abs(z[-1] / (z @ row_sums)) * residual)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(z).all():
        return None
    x[:] = z
    settled = abs(abs(z[-1]) - abs(y[-1])) <= 0.5 * abs(y[-1])
    return estimate if settled and np.isfinite(estimate) else None


def defect_rows_by_gemm(p_mat, agg) -> np.ndarray:
    """Absolute row sums of ``agg``'s exactness defect, materialised per size.

    ``_error_traces`` took them this way, one j x n defect per aggregation,
    before it read them off the Arnoldi relation; it still does for an
    aggregation built by hand.
    """
    return np.abs(exactness_defect(p_mat, agg)).sum(axis=1)


def padded_defect_rows(p_mat, agg) -> np.ndarray:
    """Absolute row sums of ``agg``'s exactness defect, one per aggregated state.

    A Krylov aggregation's rows are zero but the last, its ``residual``; an
    aggregation built by hand (``residual`` None) gets the GEMM rows.
    """
    if agg.residual is None:
        return defect_rows_by_gemm(p_mat, agg)
    rows = np.zeros(agg.size)
    rows[-1] = agg.residual
    return rows


def trace_by_padded_rows(p_mat, p0, agg, ks, policy=NEVER) -> ErrorTrace:
    """``error_trace`` as it was when every step dotted ``|pi|`` with the defect rows.

    The rows are ``padded_defect_rows``.  ``error_trace`` must give every
    field of this trace byte for byte: dotting with a vector that is zero
    but its last entry only adds exact zeros.
    """
    rows = padded_defect_rows(p_mat, agg)
    p = np.asarray(getattr(p0, "values", p0), dtype=float)
    static_error = float(rows.max())
    inf_step = inf_norm(agg.step_matrix)
    pi = agg.initial
    specific = general = float(np.abs(pi @ agg.disaggregation - p).sum())
    mass = float(np.abs(pi).sum())
    errors, bound_specific, bound_general = [], [], []
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p_k in zip(ks, _checkpoint_walk(p_mat, p, ks)):
            for _ in range(k - done):
                specific += float(np.abs(pi) @ rows)
                general += mass * static_error
                mass *= inf_step
                pi = pi @ agg.step_matrix
            done = k
            approx = normalize(pi @ agg.disaggregation, policy).values
            errors.append(float(np.abs(approx - p_k).sum()))
            bound_specific.append(specific)
            bound_general.append(general)
    criterion = None
    if agg.stationary is not None:
        criterion = float(np.abs(agg.stationary) @ rows)
    return ErrorTrace(steps=np.array(ks, dtype=int), errors=np.array(errors),
                      bound_specific=np.array(bound_specific),
                      bound_general=np.array(bound_general),
                      static_error=static_error, criterion=criterion)


def conditional_by_five_rules(v: np.ndarray) -> bool:
    """Whether the 'conditional' policy rescaled ``v`` under its five rules.

    Two rules were proven (1-norm at least 2; no positive entry and 1-norm
    at least 1) and three sampled conjectures (an entry at most -1, an entry
    at least ``ENTRY_CAP``, the sum without the largest entry at most -1),
    each threshold with the slack ``CONDITION_TOL``, the nonpositivity test
    per entry.
    """
    eps = CONDITION_TOL
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


# Imaginary mass left after phase alignment is rounding noise up to this
# threshold and dropped; above it the stationary vector is genuinely complex.
IMAG_ERROR_TOL = 1e-8


def stationary_by_phase_alignment(agg):
    """``aggregated_stationary`` before it read LAPACK's real/complex verdict.

    The selected eigenvector is phase-aligned on its largest entry and its
    imaginary part dropped when below ``IMAG_ERROR_TOL``.  The library must
    give the same ``ComplexStationary`` verdict at every size, and a
    stationary vector equal to this one up to rounding.
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
    return replace(agg, stationary=pi / nrm)


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
