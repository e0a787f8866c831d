"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed, in repetitions
that the set-up timer measures, computes its oracle references untimed,
and then serves ops: ``make_input(i)`` (untimed), ``run`` (the timed call
into arnagg) and ``check`` (the oracle comparison).  The library only ever
sees the generated chains and start vectors.

Calls go through module attributes (``aggregate.pipeline_dynamic``,
``cli.main``, ``models.random_chain``) so that a traced run's wrappers,
installed at those names, see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import numpy as np
import scipy.io

import arnagg.aggregate as aggregate
import arnagg.cli as cli
import arnagg.mchain as mchain
import arnagg.models as models

from . import oracles
from .tracer import FLOAT_BYTES, defect_bytes, matrix_bytes

# Set-up repetitions; setup_s reports their median.
SETUP_REPS = 3

# Tolerance of sweep_cli's per-size errors against the oracle walk.
EK_ATOL = 1e-10
EK_RTOL = 1e-6


def working_set_bytes(chain_nbytes: int, n: int, size: int, copies: int = 1) -> int:
    """Computed bytes an op touches: the chain, plus per concurrent run a
    Krylov basis of ``size + 1`` rows and the materialised defect."""
    return chain_nbytes + copies * ((size + 1) * n * FLOAT_BYTES + defect_bytes(size, n))


def _collect(out_dir: str) -> dict[str, str]:
    """Read every file a sweep wrote, then remove its directory."""
    files = {}
    for entry in os.scandir(out_dir):
        with open(entry.path) as fh:
            files[entry.name] = fh.read()
    shutil.rmtree(out_dir)
    return files


class _Dynamic:
    """``pipeline_dynamic`` on a seeded pool of chains; op ``i`` uses chain ``i mod pool``.

    Each set-up repetition generates ``chains_per_rep`` chains of the pool.
    A larger pool averages the chain-to-chain spread of the op cost.
    """

    name = ""
    epsilon = 0.0
    max_size = 0
    chains_per_rep = 1
    # 1-norm distance allowed between the disaggregated stationary vector
    # and the oracle's.  A vector scaled by 1.01 misses by 1e-2.
    stationary_tol = 0.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.chains = []
        self.references = []

    def generate(self, key):
        raise NotImplementedError

    def oracle(self, chain) -> np.ndarray:
        raise NotImplementedError

    def build(self, rep: int) -> None:
        for c in range(rep * self.chains_per_rep, (rep + 1) * self.chains_per_rep):
            self.chains.append(self.generate([self.seed, c]))
        chain = self.chains[-1]
        aggregate.pipeline_dynamic(chain, np.full(chain.n, 1.0 / chain.n), 4, self.epsilon)

    def prepare(self) -> None:
        self.references = [self.oracle(c) for c in self.chains]

    def make_input(self, i: int):
        k = i % len(self.chains)
        return k, oracles.random_start(self.chains[k].n, [self.seed, 1, i])

    def run(self, inp):
        k, p0 = inp
        return aggregate.pipeline_dynamic(self.chains[k], p0, self.max_size, self.epsilon,
                                          step_size=1)

    def check(self, inp, agg) -> bool:
        return oracles.dynamic_ok(agg.stationary, agg.disaggregation, agg.criterion, agg.size,
                                  self.references[inp[0]], self.epsilon, self.max_size,
                                  self.stationary_tol)

    def agg_size(self, agg) -> int:
        return agg.size

    def working_set(self, size: int) -> int:
        chain = self.chains[0]
        return working_set_bytes(matrix_bytes(chain.raw), chain.n, size)


class NcdDynamic(_Dynamic):
    """The paper's nearly decoupled setting: the criterion picks the size.

    Six blocks of ten states (n=60) coupled by 1e-3 stop at size 37 to 41
    in about 1 s, so a run holds enough ops for a steady median; n=100
    took 7 to 11 s per op with the same Schur share.

    Coupling 1e-4 is not used: there, a few ops in a hundred raise
    ComplexStationary for a chain whose stationary vector is real (see
    ``test_known_defects.py``).
    """

    name = "ncd_dynamic"
    epsilon = 1e-8
    max_size = 60
    coupling = 1e-3
    chains_per_rep = 4  # the op cost grows with the stopping size, which varies by chain
    stationary_tol = 1e-3  # the seed sits at 1e-6 to 3e-6

    def generate(self, key):
        return models.random_ncd(6, 10, self.coupling, seed=key)

    def oracle(self, chain) -> np.ndarray:
        return oracles.dense_stationary(np.asarray(chain.raw))


class SparseDynamic(_Dynamic):
    """A large sparse chain whose CSR (about 12 MB) fits L3 but not L2.

    100k states with ten nonzeros a row stop at size 33 or 34 in about
    5 s; 200k states took 9 to 12 s per op, too few for a steady median.
    """

    name = "sparse_dynamic"
    epsilon = 1e-12
    max_size = 200
    stationary_tol = 1e-8  # the seed sits near 1e-12

    def generate(self, key):
        return models.random_chain(100_000, 1e-4, seed=key, sparse=True)

    def oracle(self, chain) -> np.ndarray:
        return oracles.power_stationary(chain.raw)


class SweepCli:
    """``arnagg sweep`` in-process: file parsing, a thread pool and CSV writing.

    Every op runs the same command on the same chain file, so every op's
    files must equal those of the reference run made at set-up.  10k
    states with ten nonzeros a row take about 5 s per op; 20k took 8 to
    12 s, too few ops for a steady median.
    """

    name = "sweep_cli"
    n = 10_000
    density = 1e-3
    sizes = list(range(4, 41, 4))
    ks = [100, 1000]
    samples = 2
    threads = "2"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.chains = []
        self.workdir = workdir
        self.chain_path = os.path.join(workdir, "chain.mtx")
        self.header = "j,static_error,criterion," + ",".join(f"e_k_{k}" for k in self.ks) \
            + ",wall_time"
        self.reference = {}
        self.oracle_errors = {}
        self._runs = 0
        # Read by arnagg.cli at each call; the other workloads start no threads.
        os.environ["ARNAGG_THREADS"] = self.threads

    def build(self, rep: int) -> None:
        chain = models.random_chain(self.n, self.density, seed=[self.seed, 0], sparse=True)
        mchain.save_matrix(chain, self.chain_path)
        self.chains = [chain]
        uniform = np.full(chain.n, 1.0 / chain.n)
        agg = aggregate.pipeline_schur(chain, uniform, 4)
        aggregate.error_trace(chain, uniform, agg, [1])

    def prepare(self) -> None:
        p_csr = scipy.io.mmread(self.chain_path).tocsr()
        for i in range(self.samples):
            p0 = oracles.random_start(self.n, [0, i])
            self.oracle_errors[f"out_s{i:03d}.csv"] = oracles.krylov_errors(
                p_csr, p0, self.sizes, self.ks)
        rc, out_dir = self.run(None)
        if rc != 0:
            raise RuntimeError(f"reference sweep exited with {rc}")
        self.reference = _collect(out_dir)

    def make_input(self, i: int):
        return None

    def argv(self, out_dir: str) -> list[str]:
        return ["sweep", "--input", self.chain_path, "--p0", "random",
                "--sizes", f"{self.sizes[0]}..{self.sizes[-1]}..{self.sizes[1] - self.sizes[0]}",
                "--ks", ",".join(str(k) for k in self.ks),
                "--samples", str(self.samples),
                "--out", os.path.join(out_dir, "out.csv")]

    def run(self, inp):
        """Run one sweep into a fresh directory; return its exit code and the directory."""
        self._runs += 1
        out_dir = os.path.join(self.workdir, f"op{self._runs}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(out_dir)), out_dir

    def check(self, inp, result) -> bool:
        rc, out_dir = result
        files = _collect(out_dir)
        return rc == 0 and oracles.sweep_ok(files, self.reference, self.header, self.sizes,
                                            self.ks, self.oracle_errors, EK_ATOL, EK_RTOL)

    def agg_size(self, result) -> float:
        return sum(self.sizes) / len(self.sizes)

    def working_set(self, size: int) -> int:
        chain = self.chains[0]
        return working_set_bytes(matrix_bytes(chain.raw), chain.n, max(self.sizes),
                                 copies=int(self.threads))


WORKLOADS = {w.name: w for w in (NcdDynamic, SparseDynamic, SweepCli)}
