"""Markov chain core: matrix types, norms, transient stepping, and I/O.

Everything follows the row-vector convention: a distribution is a row
vector ``p`` and one step of the chain is ``p @ P``, ``P.vec_mul(p)``.
Transition matrices are row stochastic, generator matrices have zero row
sums.  Each wrapper is built only by its constructor, which copies a dense
``numpy.ndarray`` or a CSR ``scipy.sparse`` matrix from its input and
validates it through one routine, ``_validated_storage``, so the dense and
the sparse form of a matrix are accepted or rejected alike.  The I/O reads
every text file with one numpy loadtxt call and writes every CSV table with
one writer, so all files share one number grammar and one float format.

``scipy.sparse`` is imported only where a sparse matrix is built, read or
written: a dense chain never loads it, and ``_issparse`` answers False
without it, since no object can be a scipy sparse matrix before that
module is loaded.
"""

from __future__ import annotations

import operator
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GammaTooSmall,
    GeneratorRowSumViolation,
    InputError,
    NegativeEntry,
    ParseError,
    RowSumViolation,
    ShapeError,
)

STOCHASTIC_TOL = 1e-12
GENERATOR_TOL = 1e-10

# Full round-trip precision for float64 text serialization.
FLOAT_FORMAT = "%.17g"


def _issparse(m) -> bool:
    """``scipy.sparse.issparse(m)``, without importing ``scipy.sparse``."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(m)


def _unwrap(m):
    """Return the underlying array of a wrapper, or the input unchanged."""
    return m.raw if isinstance(m, (StochasticMatrix, GeneratorMatrix)) else m


def as_vector(p) -> np.ndarray:
    """Extract a 1-D float array from a Distribution or array-like."""
    if isinstance(p, Distribution):
        return p.values
    v = np.asarray(p, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    return v


def _start_vector(p_mat: StochasticMatrix, p0) -> np.ndarray:
    """``p0`` as a finite vector with one entry per state of ``p_mat``."""
    v = as_vector(p0)
    if v.shape[0] != p_mat.n:
        raise DimensionMismatch(f"p0 has length {v.shape[0]}, chain has {p_mat.n} states")
    if not np.isfinite(v).all():
        raise InputError("start vector has non-finite entries")
    return v


def _integer(name: str, value, low: int) -> int:
    """``value`` as an int >= ``low``; a float or a string is an InputError, never truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


class _MatrixBase:
    """Shared dense/sparse plumbing for the two validated matrix types."""

    # ndarray @ wrapper and ndarray * wrapper raise TypeError instead of
    # building an object array; products go through vec_mul and mat_mul.
    __array_ufunc__ = None

    def __init__(self, storage):
        self._m = storage
        # A view sharing the storage: the ndarray's transpose, or the CSC
        # matrix on the CSR arrays.
        self._mt = storage.T
        self.n = storage.shape[0]

    @property
    def raw(self):
        """Underlying ndarray or scipy CSR matrix.

        Its entries may be read, not restructured in place: ``vec_mul``
        runs on a transposed view built from the same arrays at
        construction.
        """
        return self._m

    @property
    def is_sparse(self) -> bool:
        return _issparse(self._m)

    @property
    def shape(self):
        return self._m.shape

    def toarray(self) -> np.ndarray:
        return self._m.toarray() if self.is_sparse else np.array(self._m)

    def vec_mul(self, v: np.ndarray) -> np.ndarray:
        """Row-vector product ``v @ M``, as ``M.T @ v``, in a new vector.

        For sparse storage this is scipy's CSC matrix-vector kernel on the
        transposed view; for dense storage it is the same product numpy
        gives for ``v @ M``, bit for bit.
        """
        if v.shape[0] != self.n:
            raise DimensionMismatch(f"vector of length {v.shape[0]} against {self.n} states")
        return self._mt @ v

    def mat_mul(self, a: np.ndarray) -> np.ndarray:
        """Dense product ``a @ M`` for a 2-D array of row vectors."""
        if a.shape[1] != self.n:
            raise DimensionMismatch(f"matrix with {a.shape[1]} columns against {self.n} states")
        r = a @ self._m
        return np.asarray(r)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"{type(self).__name__}(n={self.n}, {kind})"


class StochasticMatrix(_MatrixBase):
    """Row-stochastic transition matrix, dense or CSR.

    Construction copies the input and validates it with
    ``_validated_storage``: every entry finite and >= -tol, every row
    summing to 1 within ``tol``.  Entries in ``(-tol, 0)`` are then
    clamped to 0.
    """

    def __init__(self, m, tol: float = STOCHASTIC_TOL):
        m = _validated_storage(m, tol, generator=False)
        values = m.data if _issparse(m) else m
        small = (values > -tol) & (values < 0.0)
        if small.any():
            values[small] = 0.0
            if _issparse(m):
                m.eliminate_zeros()
        super().__init__(m)


class GeneratorMatrix(_MatrixBase):
    """CTMC rate matrix, dense or CSR.

    Construction copies the input and validates it with
    ``_validated_storage``: every entry finite, every off-diagonal entry
    >= -tol, every row summing to 0 within ``tol``.
    """

    def __init__(self, m, tol: float = GENERATOR_TOL):
        super().__init__(_validated_storage(m, tol, generator=True))

    @property
    def max_diag_magnitude(self) -> float:
        d = self._m.diagonal()
        return float(np.max(np.abs(d))) if d.size else 0.0


def _validated_storage(m, tol: float, generator: bool):
    """Copy a transition or generator matrix and check its invariants.

    Dense input becomes a float ndarray.  Sparse input becomes a float CSR
    matrix, in the caller's scipy API (a ``*_matrix`` stays one), with
    duplicate entries summed.  The matrix must be square.  Each entry
    check reads the stored values in row-major order and reports the first
    offending entry, so a dense matrix and its sparse form get the same
    verdict: entries must be finite and >= -tol (off the diagonal only,
    for a generator), and rows must sum to 1 (0, for a generator) within
    ``tol``.
    """
    kind, target = ("generator", 0.0) if generator else ("transition", 1.0)
    m = _unwrap(m)
    sparse = _issparse(m)
    if not sparse:
        m = np.array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{kind} matrix must be square, got {m.shape}")
    if sparse:
        m = m.astype(float).tocsr()
        m.sum_duplicates()
    values = m.data if sparse else m
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        r, c = _entry_position(m, bad[0])
        raise InputError(f"entry ({r}, {c}) is {float(values.flat[bad[0]])!r}, not finite")
    neg = np.flatnonzero(values < -tol)
    if generator:
        r, c = _entry_position(m, neg)
        neg = neg[r != c]
    if neg.size:
        r, c = _entry_position(m, neg[0])
        raise NegativeEntry(int(r), int(c), float(values.flat[neg[0]]))
    sums = np.asarray(m.sum(axis=1)).ravel()
    bad = np.flatnonzero(np.abs(sums - target) > tol)
    if bad.size:
        violation = GeneratorRowSumViolation if generator else RowSumViolation
        raise violation(int(bad[0]), float(sums[bad[0]]))
    return m


def _entry_position(m, k):
    """Row and column of the stored value(s) at row-major index ``k``."""
    if _issparse(m):
        return np.searchsorted(m.indptr, k, side="right") - 1, m.indices[k]
    return np.unravel_index(k, m.shape)


@dataclass(frozen=True)
class Distribution:
    """Probability mass per state, or an approximation of one.

    With ``strict=True`` the entries must be finite, >= -1e-12 and sum to 1
    within 1e-10.  Approximated transient distributions live in the same
    type with ``strict`` off; they may carry negative entries.
    """

    values: np.ndarray
    strict: bool = True

    def __post_init__(self):
        v = as_vector(self.values).copy()
        object.__setattr__(self, "values", v)
        if self.strict:
            if v.size == 0:
                raise InputError("empty distribution")
            if not np.isfinite(v).all():
                raise InputError("strict distribution has non-finite entries")
            if v.min() < -1e-12:
                raise InputError(f"strict distribution has entry {float(v.min())!r} < -1e-12")
            # Finite entries may still overflow their sum; inf is reported below.
            with np.errstate(over="ignore"):
                s = float(v.sum())
            if abs(s - 1.0) > 1e-10:
                raise InputError(f"strict distribution sums to {s!r}")

    def __len__(self):
        return self.values.shape[0]

    @classmethod
    def point(cls, n: int, i: int) -> "Distribution":
        if not 0 <= i < n:
            raise InputError(f"point index {i} outside 0..{n - 1}")
        v = np.zeros(n)
        v[i] = 1.0
        return cls(v)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise InputError(f"need at least one state, got n={n}")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def random(cls, n: int, seed=0) -> "Distribution":
        if n < 1:
            raise InputError(f"need at least one state, got n={n}")
        rng = np.random.default_rng(seed)
        v = rng.exponential(size=n)
        return cls(v / v.sum())


def uniformize(q: GeneratorMatrix, gamma: float | None = None) -> StochasticMatrix:
    """Turn a generator into a transition matrix via ``I + Q / gamma``.

    ``gamma`` defaults to the largest diagonal magnitude of ``Q`` (1 for the
    zero generator) and must not be smaller than that magnitude.
    """
    if not isinstance(q, GeneratorMatrix):
        q = GeneratorMatrix(q)
    required = q.max_diag_magnitude
    if gamma is None:
        gamma = required if required > 0.0 else 1.0
    elif not np.isfinite(gamma):
        raise InputError(f"gamma must be finite, got {gamma!r}")
    elif gamma < required or gamma <= 0.0:
        raise GammaTooSmall(gamma, required)
    if q.is_sparse:
        import scipy.sparse as sp

        p = sp.eye_array(q.n, format="csr") + q.raw * (1.0 / gamma)
    else:
        p = np.eye(q.n) + q.raw / gamma
    return StochasticMatrix(p)


def transient(p_mat: StochasticMatrix, p0, k: int) -> Distribution:
    """k-step transient distribution ``p0 @ P^k``, for an integer k >= 0 and a finite p0.

    Computed as k successive vector-matrix products (``_checkpoint_walk``),
    never through matrix powers, from a ``p0`` strict or not.
    """
    k = _integer("step count", k, 0)
    v = _start_vector(p_mat, p0)
    strict = p0.strict if isinstance(p0, Distribution) else True
    return Distribution(next(_checkpoint_walk(p_mat, v, [k])), strict=strict)


def _checkpoint_walk(p_mat: StochasticMatrix, p0, ks):
    """Yield ``p0 @ P^k`` at each of the ascending step counts ``ks``.

    One walk of ``ks[-1]`` vector-matrix products.  Each step allocates
    its result, so a yielded vector stays valid as the walk moves on.
    """
    v = as_vector(p0)
    done = 0
    for k in ks:
        for _ in range(k - done):
            v = p_mat.vec_mul(v)
        done = k
        yield v


def inf_norm(m) -> float:
    """Maximum absolute row sum norm."""
    rows = abs_row_sums(m)
    return float(rows.max()) if rows.size else 0.0


def abs_row_sums(m) -> np.ndarray:
    """Vector of row sums of ``|M|``, i.e. ``|M| @ 1``."""
    m = _unwrap(m)
    if not _issparse(m):
        m = np.asarray(m)
    return np.asarray(abs(m).sum(axis=1)).ravel()


def weighted_abs_row_sums(v, m) -> float:
    """Inner product of ``|v|`` with the absolute row sums of ``M``.

    Sits between the two norms it interpolates:
    ``norm1(v @ M) <= result <= norm1(v) * inf_norm(M)``.
    """
    v = as_vector(v)
    rows = abs_row_sums(m)
    if v.shape[0] != rows.shape[0]:
        raise DimensionMismatch(f"vector of length {v.shape[0]} against {rows.shape[0]} rows")
    return float(np.abs(v) @ rows)


# ---------------------------------------------------------------------------
# Matrix and distribution I/O.
#
# The suffix picks the format: Matrix Market coordinate (.mtx; sparse,
# 1-based indices) or dense CSV (.csv), one matrix row a line.
# Distributions are single-column CSV.  _write_csv writes every CSV table,
# floats at 17 significant digits, so load(save(M)) reproduces M bit for bit.
#
# Every reader parses numbers through one loadtxt call (_loadtxt), so both
# formats share numpy's grammar: no "_" digit separators, ASCII digits only.
# Only on failure, _rejected_line reads the lines again, one at a time, to
# name the first one numpy rejects.
#
# Matrix Market: "coordinate real general" only; "%" comments before the
# size line only, blank lines anywhere.  Header and size line are checked
# in Python before anything is allocated; the file object then goes to
# numpy as it is.  A bad entry is a ParseError at the section's first
# line, naming the entry by its 1-based number in the section, blank lines
# not counted.
#
# CSV: blank and whitespace-only lines are dropped first, since with a
# delimiter numpy reads one as a row.  A bad value is a ParseError at its
# line, a row of another width a ShapeError naming its line.
#
# All readers decode UTF-8 whatever the locale, an undecodable byte as
# U+FFFD, which no numeric field accepts: it ends in a ParseError.
# ---------------------------------------------------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"
_MM_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])

# Rows and columns beyond the entry count are backed by nothing in the file;
# capping them keeps a bad size line from sizing tocsr()'s row pointer.
_MM_UNBACKED_MAX = 1 << 24


def _is_csv(path) -> bool:
    s = str(path).lower()
    if not s.endswith((".mtx", ".csv")):
        raise InputError(f"cannot infer format from {path!r}; name the file .mtx or .csv")
    return s.endswith(".csv")


def _write_csv(path, rows, header=None) -> None:
    """Write ``rows`` as CSV lines: strings as they are, numbers at ``FLOAT_FORMAT``."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else FLOAT_FORMAT % x for x in row) + "\n")


def save_matrix(m, path) -> None:
    """Write a matrix as Matrix Market coordinate (.mtx) or dense CSV (.csv)."""
    m = _unwrap(m)
    if not _is_csv(path):
        import scipy.sparse as sp

        coo = sp.coo_array(m)
        with open(path, "w") as fh:
            fh.write(_MM_HEADER + "\n")
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, j, x in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i + 1} {j + 1} {FLOAT_FORMAT % x}\n")
    else:
        _write_csv(path, np.atleast_2d(m.toarray() if _issparse(m) else np.asarray(m)))


def _parse_matrixmarket(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
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
            break
        if dims is None:
            raise ParseError(lineno, "missing size line")
        try:
            entries = _loadtxt(fh, _MM_ENTRY)
        except (ValueError, DeprecationWarning):
            entry, _, text = _rejected_line(fh, lineno, _MM_ENTRY)
            raise ParseError(lineno + 1, f"malformed entry section: entry {entry} {text.strip()!r} "
                                         "is not 'row col value'") from None
    i, j = entries["row"], entries["col"]
    outside = (i < 1) | (i > dims[0]) | (j < 1) | (j > dims[1])
    if outside.any():
        k = int(outside.argmax())
        raise ShapeError(f"entry ({i[k]}, {j[k]}) outside declared {dims[0]}x{dims[1]} shape "
                         f"(entry {k + 1} of the file)")
    if len(entries) != dims[2]:
        raise ShapeError(f"header declares {dims[2]} entries, file has {len(entries)}")
    import scipy.sparse as sp

    return sp.coo_array((entries["value"], (i - 1, j - 1)), shape=(dims[0], dims[1])).tocsr()


def _loadtxt(lines, dtype, delimiter=None, ndmin=1):
    """Read text lines with numpy's grammar: one record, or one row of values, a line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # Older numpy only warned, and truncated, when an int field read "1.0".
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=ndmin, dtype=dtype)


def _rejected_line(fh, skip: int, dtype, delimiter=None):
    """Find the first non-blank line after line ``skip`` of ``fh`` that ``_loadtxt`` rejects.

    Returns its 1-based number among the non-blank lines after ``skip``,
    its line number in the file and its text.  The lines are read again,
    one at a time, so the grammar is numpy's.
    """
    fh.seek(0)
    lines = ((n, line) for n, line in enumerate(fh, 1) if n > skip and not line.isspace())
    found = (0, 0, "")
    try:
        # numpy fails on the last line handed over; the walrus binds ``found`` here.
        _loadtxt(((found := (k, *e))[2] for k, e in enumerate(lines, 1)), dtype, delimiter)
    except (ValueError, DeprecationWarning):
        pass
    return found


def _parse_csv_matrix(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        try:
            m = _loadtxt((line for line in fh if not line.isspace()), float, ",", ndmin=2)
        except ValueError:
            _, lineno, line = _rejected_line(fh, 0, float, ",")
            try:
                _loadtxt([line], float, ",")
            except ValueError:
                raise ParseError(lineno, f"malformed value in {line.strip()!r}") from None
            raise ShapeError(f"row {lineno} has {line.count(',') + 1} columns, "
                             "unlike the rows before it") from None
    if not m.size:
        raise ParseError(1, "empty file")
    return m


def load_matrix(path, kind: str = "stochastic"):
    """Load a .mtx or .csv matrix and validate it as the requested kind.

    kind is one of 'stochastic', 'generator', or 'raw' (no validation,
    returns the bare ndarray or CSR matrix), and is checked before the file
    is read.
    """
    kinds = {"raw": lambda m: m, "stochastic": StochasticMatrix, "generator": GeneratorMatrix}
    if kind not in kinds:
        raise InputError(f"unknown matrix kind {kind!r}")
    return kinds[kind](_parse_csv_matrix(path) if _is_csv(path) else _parse_matrixmarket(path))


def save_distribution(d, path) -> None:
    """Write a distribution as single-column CSV."""
    _write_csv(path, as_vector(d)[:, None])


def load_distribution(path, strict: bool = True) -> Distribution:
    """Read a single-column CSV distribution with the CSV matrix reader."""
    m = _parse_csv_matrix(path)
    if m.shape[1] != 1:
        raise ShapeError(f"distribution file has {m.shape[1]} columns, expected 1")
    return Distribution(m[:, 0], strict=strict)
