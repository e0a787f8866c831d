"""Synthetic chain generators: coupled block compositions and random chains.

The block composition assembles nearly decoupled chains: a block-diagonal
stack of smaller transition matrices plus a small multiple of an integer
coupling matrix with zero row sums.  The random generators are seeded and
reproducible; they exist to feed property tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EpsilonOutOfRange, InputError, InvalidCoupling, ShapeError
from .mchain import Distribution, StochasticMatrix


@dataclass(frozen=True)
class NcdSpec:
    """Blocks, integer coupling matrix, and coupling strength epsilon."""

    blocks: tuple
    coupling: np.ndarray
    epsilon: float

    def __post_init__(self):
        blocks = tuple(
            b if isinstance(b, StochasticMatrix) else StochasticMatrix(b)
            for b in self.blocks
        )
        if not blocks:
            raise InputError("need at least one block")
        object.__setattr__(self, "blocks", blocks)
        c = np.asarray(self.coupling)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeError(f"coupling matrix must be square, got {c.shape}")
        if not np.array_equal(c, np.round(c)):
            raise InvalidCoupling("coupling matrix must be integer-valued")
        c = c.astype(float)
        object.__setattr__(self, "coupling", c)
        total = sum(b.n for b in blocks)
        if total != c.shape[0]:
            raise ShapeError(
                f"blocks cover {total} states, coupling matrix is {c.shape[0]}x{c.shape[0]}"
            )
        if np.any(np.abs(c.sum(axis=1)) > 0):
            bad = int(np.nonzero(np.abs(c.sum(axis=1)) > 0)[0][0])
            raise InvalidCoupling(f"row {bad} of the coupling matrix does not sum to 0")
        if not 0.0 < self.epsilon < 1.0:
            raise EpsilonOutOfRange(f"epsilon must be in (0, 1), got {self.epsilon!r}")

    @property
    def n(self) -> int:
        return self.coupling.shape[0]


def ncd_compose(spec: NcdSpec) -> StochasticMatrix:
    """Assemble blockdiag(blocks) + epsilon * coupling as a validated chain."""
    n = spec.n
    p = np.zeros((n, n))
    at = 0
    for b in spec.blocks:
        p[at:at + b.n, at:at + b.n] = b.toarray()
        at += b.n
    p += spec.epsilon * spec.coupling
    if np.any(p < 0.0) or np.any(p > 1.0):
        r, c = np.unravel_index(int(np.argmin(np.minimum(p, 1.0 - p))), p.shape)
        raise InvalidCoupling(
            f"entry ({int(r)}, {int(c)}) = {float(p[r, c])!r} falls outside [0, 1]"
        )
    return StochasticMatrix(p)


def counterexample(epsilon: float):
    """The 3-state coupled chain on which the geometric error bound is tight.

    Returns ``(P, p0)`` with ``p0`` the point mass on the last state.  Any
    size-1 aggregation of it has zero initial error and error exactly 1
    from the first step on.
    """
    spec = NcdSpec(
        blocks=(np.array([[1.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])),
        coupling=np.array([[-1, 1, 0], [0, 0, 0], [0, 0, 0]]),
        epsilon=epsilon,
    )
    return ncd_compose(spec), Distribution.point(3, 2)


def random_chain(n: int, density: float = 1.0, seed=0, sparse: bool = False) -> StochasticMatrix:
    """Random row-stochastic matrix, reproducible per seed.

    Each row places mass on ``round(density * n)`` distinct columns (at
    least one), with exponential weights normalized to sum 1.
    """
    if n < 1:
        raise InputError(f"need at least one state, got n={n}")
    if not 0.0 < density <= 1.0:
        raise InputError(f"density must be in (0, 1], got {density!r}")
    rng = np.random.default_rng(seed)
    per_row = max(1, int(round(density * n)))
    rows = np.repeat(np.arange(n), per_row)
    cols = np.empty(n * per_row, dtype=int)
    vals = np.empty(n * per_row)
    for i in range(n):
        sel = slice(i * per_row, (i + 1) * per_row)
        cols[sel] = rng.choice(n, size=per_row, replace=False)
        w = rng.exponential(size=per_row)
        vals[sel] = w / w.sum()
    if sparse:
        import scipy.sparse as sp

        m = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    else:
        m = np.zeros((n, n))
        m[rows, cols] = vals
    return StochasticMatrix(m)


def random_ncd(n_blocks: int, block_size: int, epsilon: float, seed=0) -> StochasticMatrix:
    """Random nearly decoupled chain built through ``ncd_compose``.

    Blocks are random chains blended with the identity so their diagonals
    can absorb the coupling; roughly half the rows of each block receive a
    transition of weight epsilon into the next block, and one such row per
    block is guaranteed so the composition stays connected.
    """
    if n_blocks < 1 or block_size < 1:
        raise InputError("need at least one block of at least one state")
    rng = np.random.default_rng(seed)
    blocks = []
    for b in range(n_blocks):
        r = random_chain(block_size, 1.0, seed=rng.integers(2 ** 63)).toarray()
        blocks.append(0.5 * np.eye(block_size) + 0.5 * r)
    n = n_blocks * block_size
    coupling = np.zeros((n, n))
    if n_blocks > 1:
        for b in range(n_blocks):
            base = b * block_size
            target_base = ((b + 1) % n_blocks) * block_size
            coupled = rng.random(block_size) < 0.5
            coupled[rng.integers(block_size)] = True
            for i in np.nonzero(coupled)[0]:
                row = base + i
                coupling[row, target_base + rng.integers(block_size)] += 1
                coupling[row, row] -= 1
    spec = NcdSpec(blocks=tuple(blocks), coupling=coupling, epsilon=epsilon)
    return ncd_compose(spec)
