"""Markov chain core: matrix types, norms, transient stepping, and I/O.

Everything follows the row-vector convention: a distribution is a row
vector ``p`` and one step of the chain is ``p @ P``.  Transition matrices
are row stochastic, generator matrices have zero row sums.  Both wrappers
carry either a dense ``numpy.ndarray`` or a CSR ``scipy.sparse`` matrix,
copied from their input, and validate their defining invariants on
construction through one routine, ``_validated_storage``, so the dense and
the sparse form of a matrix are accepted or rejected alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


class _MatrixBase:
    """Shared dense/sparse plumbing for the two validated matrix types."""

    # Make ndarray @ wrapper defer to __rmatmul__ instead of broadcasting.
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
        return sp.issparse(self._m)

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

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=float)
        if other.ndim == 1:
            return self.vec_mul(other)
        return self.mat_mul(other)

    def with_storage(self, storage: str):
        """Return the same matrix with 'dense' or 'sparse' backing."""
        if storage == "dense":
            m = self.toarray()
        elif storage == "sparse":
            m = self._m if self.is_sparse else sp.csr_array(self._m)
        else:
            raise ValueError(f"unknown storage {storage!r}")
        clone = object.__new__(type(self))
        _MatrixBase.__init__(clone, m)
        return clone

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
        values = m.data if sp.issparse(m) else m
        small = (values > -tol) & (values < 0.0)
        if small.any():
            values[small] = 0.0
            if sp.issparse(m):
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
    sparse = sp.issparse(m)
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
    if sp.issparse(m):
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
        v = np.array(np.asarray(self.values, dtype=float), copy=True)
        if v.ndim != 1:
            raise DimensionMismatch(f"distribution must be 1-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)
        if self.strict:
            if v.size == 0:
                raise InputError("empty distribution")
            if not np.isfinite(v).all():
                raise InputError("strict distribution has non-finite entries")
            if v.min() < -1e-12:
                raise InputError(f"strict distribution has entry {v.min()!r} < -1e-12")
            s = float(v.sum())
            if abs(s - 1.0) > 1e-10:
                raise InputError(f"strict distribution sums to {s!r}")

    def __len__(self):
        return self.values.shape[0]

    def norm1(self) -> float:
        return float(np.abs(self.values).sum())

    @classmethod
    def point(cls, n: int, i: int) -> "Distribution":
        v = np.zeros(n)
        v[i] = 1.0
        return cls(v)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def random(cls, n: int, seed=0) -> "Distribution":
        rng = np.random.default_rng(seed)
        v = rng.exponential(size=n)
        return cls(v / v.sum())


def validate_stochastic(m, tol: float = STOCHASTIC_TOL) -> StochasticMatrix:
    """Wrap ``m`` as a validated row-stochastic matrix."""
    return StochasticMatrix(m, tol=tol)


def validate_generator(m, tol: float = GENERATOR_TOL) -> GeneratorMatrix:
    """Wrap ``m`` as a validated generator (rate) matrix."""
    return GeneratorMatrix(m, tol=tol)


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
        p = sp.eye_array(q.n, format="csr") + q.raw * (1.0 / gamma)
    else:
        p = np.eye(q.n) + q.raw / gamma
    return StochasticMatrix(p)


def transient(p_mat: StochasticMatrix, p0, k: int) -> Distribution:
    """k-step transient distribution ``p0 @ P^k``.

    Computed as k successive vector-matrix products (``_checkpoint_walk``),
    never through matrix powers.
    """
    if k < 0:
        raise InputError(f"step count must be >= 0, got {k}")
    v = as_vector(p0)
    if v.shape[0] != p_mat.n:
        raise DimensionMismatch(f"p0 has length {v.shape[0]}, chain has {p_mat.n} states")
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
    if not sp.issparse(m):
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
# Two interchange formats: Matrix Market coordinate (sparse, 1-based
# indices) and dense CSV with one matrix row per line.  Distributions are
# single-column CSV.  All floats are written with 17 significant digits so
# that load(save(M)) reproduces M bit for bit.
#
# Matrix Market: "coordinate real general" only; "%" comments before the
# size line only, blank lines anywhere.  Header and size line are checked
# in Python before anything is allocated; one np.loadtxt call reads the
# entries, three fields a line in numpy's integer and float grammar.  A bad
# entry is a ParseError at the section's first line; the message carries
# numpy's row and column.
#
# All readers decode UTF-8 whatever the locale, an undecodable byte as
# U+FFFD, which no numeric field accepts: it ends in a ParseError.
# ---------------------------------------------------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"

# Rows and columns beyond the entry count are backed by nothing in the file;
# capping them keeps a bad size line from sizing tocsr()'s row pointer.
_MM_UNBACKED_MAX = 1 << 24


def _detect_format(path, fmt):
    if fmt is not None:
        if fmt not in ("matrixmarket", "csv"):
            raise InputError(f"unknown matrix format {fmt!r}")
        return fmt
    s = str(path).lower()
    if s.endswith(".mtx"):
        return "matrixmarket"
    if s.endswith(".csv"):
        return "csv"
    raise InputError(f"cannot infer format from {path!r}; pass format explicitly")


def save_matrix(m, path, fmt: str | None = None) -> None:
    """Write a matrix as Matrix Market coordinate or dense CSV."""
    fmt = _detect_format(path, fmt)
    m = _unwrap(m)
    if fmt == "matrixmarket":
        coo = sp.coo_array(m)
        with open(path, "w") as fh:
            fh.write(_MM_HEADER + "\n")
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, j, x in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i + 1} {j + 1} {FLOAT_FORMAT % x}\n")
    else:
        dense = m.toarray() if sp.issparse(m) else np.asarray(m)
        with open(path, "w") as fh:
            for row in np.atleast_2d(dense):
                fh.write(",".join(FLOAT_FORMAT % x for x in row) + "\n")


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
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # Older numpy only warned, and truncated, when an int field read "1.0".
                warnings.simplefilter("error", DeprecationWarning)
                entries = np.loadtxt(fh, comments=None, ndmin=1, dtype=[
                    ("row", np.int64), ("col", np.int64), ("value", np.float64)])
        except (ValueError, DeprecationWarning) as err:
            raise ParseError(lineno + 1, f"malformed entry section: {err}") from None
    i, j = entries["row"], entries["col"]
    outside = (i < 1) | (i > dims[0]) | (j < 1) | (j > dims[1])
    if outside.any():
        k = int(outside.argmax())
        raise ShapeError(f"entry ({i[k]}, {j[k]}) outside declared {dims[0]}x{dims[1]} shape "
                         f"(entry {k + 1} of the file)")
    if len(entries) != dims[2]:
        raise ShapeError(f"header declares {dims[2]} entries, file has {len(entries)}")
    return sp.coo_array((entries["value"], (i - 1, j - 1)), shape=(dims[0], dims[1])).tocsr()


def _parse_csv_matrix(path):
    rows = []
    width = None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise ParseError(lineno, f"malformed value in {text!r}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ShapeError(f"row {lineno} has {len(row)} columns, expected {width}")
            rows.append(row)
    if not rows:
        raise ParseError(1, "empty file")
    return np.array(rows)


def load_matrix(path, fmt: str | None = None, kind: str = "stochastic", tol: float | None = None):
    """Load a matrix and validate it as the requested kind.

    kind is one of 'stochastic', 'generator', or 'raw' (no validation,
    returns the bare ndarray or CSR matrix).
    """
    fmt = _detect_format(path, fmt)
    m = _parse_matrixmarket(path) if fmt == "matrixmarket" else _parse_csv_matrix(path)
    if kind == "raw":
        return m
    if kind == "stochastic":
        return StochasticMatrix(m, tol=STOCHASTIC_TOL if tol is None else tol)
    if kind == "generator":
        return GeneratorMatrix(m, tol=GENERATOR_TOL if tol is None else tol)
    raise InputError(f"unknown matrix kind {kind!r}")


def save_distribution(d, path) -> None:
    """Write a distribution as single-column CSV."""
    v = as_vector(d)
    with open(path, "w") as fh:
        for x in v:
            fh.write(FLOAT_FORMAT % x + "\n")


def load_distribution(path, strict: bool = True) -> Distribution:
    """Read a single-column CSV distribution."""
    vals = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                vals.append(float(text))
            except ValueError:
                raise ParseError(lineno, f"malformed value {text!r}") from None
    if not vals:
        raise ParseError(1, "empty file")
    return Distribution(np.array(vals), strict=strict)
