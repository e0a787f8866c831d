"""Reference results computed with numpy and scipy alone, and the checks that use them.

Nothing here imports arnagg: each check compares the library's output with
an independent computation of the same quantity.
"""

from __future__ import annotations

import math

import numpy as np


def dense_stationary(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of a dense chain: solve ``pi (P - I) = 0``, ``sum(pi) = 1``."""
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def power_stationary(p_csr, tol: float = 1e-15, max_iter: int = 10_000) -> np.ndarray:
    """Stationary distribution of a sparse chain by power iteration with scipy."""
    pt = p_csr.T.tocsr()
    x = np.full(p_csr.shape[0], 1.0 / p_csr.shape[0])
    for _ in range(max_iter):
        y = pt @ x
        y /= y.sum()
        if np.abs(y - x).sum() <= tol:
            return y
        x = y
    raise RuntimeError(f"power iteration did not reach {tol} in {max_iter} steps")


def random_start(n: int, key) -> np.ndarray:
    """A random start distribution: normalised exponential draws from ``default_rng(key)``.

    This is also what ``arnagg sweep --p0 random`` draws for sample ``i``
    with ``key = [seed, i]``.
    """
    v = np.random.default_rng(key).exponential(size=n)
    return v / v.sum()


def krylov_errors(p_csr, p0: np.ndarray, sizes, ks) -> dict[int, list[float]]:
    """1-norm errors at steps ``ks`` of the Krylov aggregation of each size.

    Arnoldi in the row convention with two classical Gram-Schmidt passes,
    run once to the largest size (Krylov bases nest, so each size's step
    matrix is a leading block), then each aggregated walk ``pi @ H``
    against one shared exact walk ``p @ P``.
    """
    pt = p_csr.T.tocsr()
    top = max(sizes)
    q = np.zeros((top, p0.shape[0]))
    h = np.zeros((top, top))
    q[0] = p0 / np.linalg.norm(p0)
    for j in range(top):
        w = pt @ q[j]
        c = q[:j + 1] @ w
        w -= c @ q[:j + 1]
        c2 = q[:j + 1] @ w
        w -= c2 @ q[:j + 1]
        h[j, :j + 1] = c + c2
        if j + 1 < top:
            h[j, j + 1] = np.linalg.norm(w)
            q[j + 1] = w / h[j, j + 1]
    pis = {j: np.zeros(j) for j in sizes}
    for pi in pis.values():
        pi[0] = np.linalg.norm(p0)
    p = p0.copy()
    wanted = set(int(k) for k in ks)
    errors = {j: [] for j in sizes}
    for k in range(max(wanted) + 1):
        for j, pi in pis.items():
            if k in wanted:
                errors[j].append(float(np.abs(pi @ q[:j] - p).sum()))
            pis[j] = pi @ h[:j, :j]
        p = pt @ p
    return errors


def stationary_ok(image: np.ndarray, reference: np.ndarray, tol: float) -> bool:
    """The disaggregated stationary vector lies within ``tol`` of the reference in 1-norm."""
    image = np.asarray(image, dtype=float)
    return (image.shape == reference.shape and bool(np.all(np.isfinite(image)))
            and float(np.abs(image - reference).sum()) <= tol)


def dynamic_ok(stationary, disaggregation, criterion, size, reference,
               epsilon: float, max_size: int, tol: float) -> bool:
    """Check a dynamic-pipeline result against the chain's stationary distribution.

    The criterion must have met ``epsilon`` unless the size hit ``max_size``.
    """
    if stationary is None or criterion is None or not math.isfinite(criterion):
        return False
    if not (criterion <= epsilon or size == max_size):
        return False
    return stationary_ok(np.asarray(stationary) @ np.asarray(disaggregation), reference, tol)


def sweep_ok(files: dict[str, str], reference: dict[str, str], header: str, sizes, ks,
             oracle: dict[str, dict[int, list[float]]], atol: float, rtol: float) -> bool:
    """Check the CSV files of one ``arnagg sweep`` run.

    ``files`` and ``reference`` map file names to contents; ``oracle`` maps
    each per-sample file to ``{size: errors at ks}``.  Every file must have
    the exact header, one row per size in order and only finite values;
    all columns but ``wall_time`` must be byte-identical to the reference
    run; the errors of every size, the largest included, must match the
    oracle.
    """
    if sorted(files) != sorted(reference):
        return False
    for name, text in files.items():
        lines = text.splitlines()
        if not lines or lines[0] != header:
            return False
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != [str(j) for j in sizes]:
            return False
        if [line.rpartition(",")[0] for line in lines] \
                != [line.rpartition(",")[0] for line in reference[name].splitlines()]:
            return False
        for row in rows:
            try:
                values = [float(x) for x in row]
            except ValueError:
                return False
            if not all(math.isfinite(x) for x in values):
                return False
            if name in oracle:
                want = oracle[name][int(row[0])]
                got = values[3:3 + len(ks)]
                if any(abs(g - w) > atol + rtol * abs(w) for g, w in zip(got, want)):
                    return False
    return True
