"""Span recording around the public functions of arnagg, installed from outside.

A traced run replaces each function below, at the name its caller looks it
up by, with a wrapper that records a span: name, op id, thread id, parent
span, start and end.  Nothing in ``src/`` changes, and ``installed`` puts
every original back when the traced op ends, so measured ops run the
library untouched.  A target that a later version of the library no longer
has is skipped; its metrics then read zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import scipy.sparse as sp

FLOAT_BYTES = 8
# Arrays exactness_defect materialises per call: step_matrix @ A,
# the chain product A @ P, and their difference, each j x n.
DEFECT_ARRAYS = 3


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    op: str
    tid: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Holds the spans of one benchmark run in memory.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a worker of arnagg's thread pool) gets the
    innermost open span of the thread that began the op as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._anchor: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: str) -> None:
        self.op = op
        self._anchor = self._stack()

    def open(self, name: str) -> Span:
        stack = self._stack()
        try:
            parent = (stack or self._anchor)[-1].sid
        except IndexError:
            parent = None
        span = Span(next(self._ids), parent, name, self.op, threading.get_ident(),
                    time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children running on several threads at once are merged before the
    subtraction, so overlapping workers are not counted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {s.sid: s.duration - covered(children.get(s.sid, ()), s.t0, s.t1)
            for s in spans}


# ---------------------------------------------------------------------------
# Computed bytes.  These come from array sizes, not hardware counters.
# ---------------------------------------------------------------------------


def matrix_bytes(raw) -> int:
    """Bytes of a chain's storage: the CSR arrays, or the dense array."""
    if sp.issparse(raw):
        return raw.data.nbytes + raw.indices.nbytes + raw.indptr.nbytes
    return raw.nbytes


def vec_mul_bytes(matrix_nbytes: int, n: int) -> int:
    """One row-vector product streams the matrix, reads v and writes v @ P."""
    return matrix_nbytes + 2 * FLOAT_BYTES * n


def defect_bytes(j: int, n: int) -> int:
    """Bytes exactness_defect materialises for a size-j aggregation of n states."""
    return DEFECT_ARRAYS * j * n * FLOAT_BYTES


def snapshot_bytes(fact) -> int:
    """Bytes ArnoldiBuilder.snapshot copies: basis, step matrix, residual direction."""
    direction = fact.residual_direction
    return fact.basis.nbytes + fact.hessenberg.nbytes + (0 if direction is None else direction.nbytes)


# ---------------------------------------------------------------------------
# Targets.  Each measure function fills span attributes after the call.
# ---------------------------------------------------------------------------


def _vec_mul(attrs, args, kwargs, result):
    chain = args[0]
    attrs["bytes"] = vec_mul_bytes(matrix_bytes(chain.raw), chain.n)


def _mat_mul(attrs, args, kwargs, result):
    attrs["rows"] = args[1].shape[0]


def _load_matrix(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(args[0])


def _orthogonalize(attrs, args, kwargs, result):
    attrs["basis_rows"] = len(args[1])


def _snapshot(attrs, args, kwargs, result):
    attrs["bytes"] = snapshot_bytes(result)


def _schur(attrs, args, kwargs, result):
    attrs["dim"] = len(args[0])


def _defect(attrs, args, kwargs, result):
    attrs["bytes"] = defect_bytes(*result.shape)


def _error_trace(attrs, args, kwargs, result):
    ks = kwargs["ks"] if "ks" in kwargs else args[3]
    attrs["steps"] = max(int(k) for k in ks)


def _cli_main(attrs, args, kwargs, result):
    argv = list(args[0])
    out_dir = os.path.dirname(os.path.abspath(argv[argv.index("--out") + 1]))
    attrs["bytes"] = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


# (owner, attribute, span name, measure).  The owner is where the caller
# looks the name up: "module" or "module:Class".
TARGETS = (
    ("arnagg.mchain:StochasticMatrix", "vec_mul", "mchain.vec_mul", _vec_mul),
    ("arnagg.mchain:StochasticMatrix", "mat_mul", "mchain.mat_mul", _mat_mul),
    ("arnagg.cli", "load_matrix", "mchain.load_matrix", _load_matrix),
    ("arnagg.arnoldi", "orthogonalize_step", "orthonorm.orthogonalize_step", _orthogonalize),
    ("arnagg.arnoldi:ArnoldiBuilder", "expand", "arnoldi.expand", None),
    ("arnagg.arnoldi:ArnoldiBuilder", "snapshot", "arnoldi.snapshot", _snapshot),
    ("arnagg.aggregate", "arnoldi_iterate", "arnoldi.arnoldi_iterate", None),
    ("arnagg.aggregate", "build_aggregation", "arnoldi.build_aggregation", None),
    ("arnagg.schur", "schur_decompose", "schur.schur_decompose", _schur),
    ("arnagg.aggregate", "aggregated_stationary", "schur.aggregated_stationary", None),
    ("arnagg.aggregate", "exactness_defect", "aggregate.exactness_defect", _defect),
    ("arnagg.aggregate", "convergence_criterion", "aggregate.convergence_criterion", None),
    ("arnagg.aggregate", "pipeline_naive", "aggregate.pipeline_naive", None),
    ("arnagg.aggregate", "pipeline_dynamic", "aggregate.pipeline_dynamic", None),
    ("arnagg.cli", "pipeline_naive", "aggregate.pipeline_naive", None),
    ("arnagg.cli", "pipeline_schur", "aggregate.pipeline_schur", None),
    ("arnagg.cli", "error_trace", "aggregate.error_trace", _error_trace),
    ("arnagg.cli", "main", "cli.main", _cli_main),
    ("arnagg.models", "random_chain", "models.random_chain", None),
    ("arnagg.models", "random_ncd", "models.random_ncd", None),
)

# Spans that also record the process CPU time they took.
CPU_TIMED = frozenset({"cli.main"})


def _wrap(tracer: Tracer, name: str, fn, measure):
    cpu = name in CPU_TIMED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cpu0 = time.process_time() if cpu else 0.0
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["raised"] = type(exc).__name__
            raise
        finally:
            tracer.close(span)
        if cpu:
            span.attrs["cpu"] = time.process_time() - cpu0
        if measure is not None:
            measure(span.attrs, args, kwargs, result)
        return result

    return wrapper


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target that exists; return what ``uninstall`` needs."""
    saved = []
    for owner_name, attr, name, measure in TARGETS:
        owner = _resolve(owner_name)
        if owner is None or not hasattr(owner, attr):
            continue
        own = vars(owner).get(attr)  # None when a class inherits the method
        saved.append((owner, attr, own))
        setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), measure))
    return saved


def uninstall(saved) -> None:
    for owner, attr, own in reversed(saved):
        if own is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = install(tracer)
    try:
        yield
    finally:
        uninstall(saved)


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

# (metric, unit, better).  A metric is "<span name>.<quantity>".  Every span
# name has a self_s metric, so that the self times of an op add up to its
# wall time.
PER_LAYER = (
    ("mchain.vec_mul.calls", "count", "lower"),
    ("mchain.vec_mul.self_s", "s", "lower"),
    ("mchain.vec_mul.self_share", "ratio", "lower"),
    ("mchain.vec_mul.gbps_computed", "GB/s", "higher"),
    ("mchain.mat_mul.calls", "count", "lower"),
    ("mchain.mat_mul.rows", "count", "lower"),
    ("mchain.mat_mul.self_s", "s", "lower"),
    ("mchain.load_matrix.self_s", "s", "lower"),
    ("mchain.load_matrix.mb_read", "MB", "lower"),
    ("orthonorm.orthogonalize_step.calls", "count", "lower"),
    ("orthonorm.orthogonalize_step.self_s", "s", "lower"),
    ("orthonorm.orthogonalize_step.basis_rows", "count", "lower"),
    ("arnoldi.expand.calls", "count", "lower"),
    ("arnoldi.expand.self_s", "s", "lower"),
    ("arnoldi.snapshot.calls", "count", "lower"),
    ("arnoldi.snapshot.self_s", "s", "lower"),
    ("arnoldi.snapshot.mb_copied_computed", "MB", "lower"),
    ("arnoldi.build_aggregation.self_s", "s", "lower"),
    ("arnoldi.arnoldi_iterate.self_s", "s", "lower"),
    ("schur.schur_decompose.calls", "count", "lower"),
    ("schur.schur_decompose.self_s", "s", "lower"),
    ("schur.schur_decompose.self_share", "ratio", "lower"),
    ("schur.schur_decompose.max_dim", "count", "lower"),
    ("schur.aggregated_stationary.calls", "count", "lower"),
    ("schur.aggregated_stationary.self_s", "s", "lower"),
    ("schur.aggregated_stationary.complex_ratio", "ratio", "lower"),
    ("aggregate.convergence_criterion.calls", "count", "lower"),
    ("aggregate.convergence_criterion.self_s", "s", "lower"),
    ("aggregate.exactness_defect.calls", "count", "lower"),
    ("aggregate.exactness_defect.self_s", "s", "lower"),
    ("aggregate.exactness_defect.tree_share", "ratio", "lower"),
    ("aggregate.exactness_defect.mb_materialised_computed", "MB", "lower"),
    ("aggregate.error_trace.calls", "count", "lower"),
    ("aggregate.error_trace.self_s", "s", "lower"),
    ("aggregate.error_trace.steps", "count", "lower"),
    ("aggregate.pipeline_dynamic.checks_per_result", "ratio", "lower"),
    ("aggregate.pipeline_dynamic.self_s", "s", "lower"),
    ("aggregate.pipeline_schur.self_s", "s", "lower"),
    ("aggregate.pipeline_naive.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.mb_written", "MB", "lower"),
    ("cli.main.cpu_over_wall", "ratio", "higher"),
    ("models.random_ncd.self_s", "s", "lower"),
    ("models.random_chain.self_s", "s", "lower"),
    ("trace.op_wall_s", "s", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_computed", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
)


@dataclass
class _NameStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    sums: Counter = field(default_factory=Counter)
    dim: int = 0
    raised: Counter = field(default_factory=Counter)


def _group(spans, selfs) -> dict[str, _NameStats]:
    out: dict[str, _NameStats] = defaultdict(_NameStats)
    for s in spans:
        st = out[s.name]
        st.calls += 1
        st.self_s += selfs[s.sid]
        st.incl_s += s.duration
        for key in ("bytes", "rows", "basis_rows", "steps", "cpu"):
            if key in s.attrs:
                st.sums[key] += s.attrs[key]
        st.dim = max(st.dim, s.attrs.get("dim", 0))
        if "raised" in s.attrs:
            st.raised[s.attrs["raised"]] += 1
    return out


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, timed on a no-op function."""
    def noop(x):
        return x

    def record(attrs, args, kwargs, result):
        attrs["bytes"] = len(args)

    wrapped = _wrap(Tracer(), "calibrate", noop, record)
    t0 = time.perf_counter()
    for i in range(calls):
        noop(i)
    t1 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def layer_metrics(spans, op_walls: dict[str, float], setup_ops,
                  untraced_walls: dict[str, float], cost_per_span: float = 0.0) -> dict[str, float]:
    """Every PER_LAYER metric, per traced op (models: per set-up repetition).

    ``op_walls`` maps each traced op id to its wall time measured outside
    the library, and ``untraced_walls`` maps it to the wall time of the same
    input run without wrappers; ``setup_ops`` lists the op ids of set-up
    repetitions; ``cost_per_span`` is what ``span_cost`` measured.
    """
    selfs = self_times(spans)
    op_spans = [s for s in spans if s.op in op_walls]
    ops = _group(op_spans, selfs)
    setup_ops = set(setup_ops)
    setups = _group([s for s in spans if s.op in setup_ops], selfs)
    n_ops = max(len(op_walls), 1)
    n_setups = max(len(setup_ops), 1)
    wall = sum(op_walls.values())
    overheads = [op_walls[op] / untraced_walls[op] - 1.0 for op in op_walls if op in untraced_walls]
    out = {
        "trace.op_wall_s": statistics.median(op_walls.values()) if op_walls else 0.0,
        "trace.self_sum_ratio": sum(selfs[s.sid] for s in op_spans) / wall if wall else 0.0,
        "trace.overhead_ratio": statistics.median(overheads) if overheads else 0.0,
        "trace.overhead_computed": len(op_spans) * cost_per_span / wall if wall else 0.0,
        "trace.spans_per_op": len(op_spans) / n_ops,
    }
    for metric, _, _ in PER_LAYER:
        if metric in out:
            continue
        name, _, qty = metric.rpartition(".")
        st = (setups if name.startswith("models.") else ops).get(name, _NameStats())
        if qty == "calls":
            value = st.calls / n_ops
        elif qty == "self_s":
            value = st.self_s / (n_setups if name.startswith("models.") else n_ops)
        elif qty == "self_share":
            value = st.self_s / wall if wall else 0.0
        elif qty == "tree_share":
            value = st.incl_s / wall if wall else 0.0
        elif qty == "gbps_computed":
            value = st.sums["bytes"] / st.self_s / 1e9 if st.self_s else 0.0
        elif qty.startswith("mb_"):
            value = st.sums["bytes"] / 1e6 / n_ops
        elif qty == "max_dim":
            value = float(st.dim)
        elif qty == "complex_ratio":
            value = st.raised["ComplexStationary"] / st.calls if st.calls else 0.0
        elif qty == "cpu_over_wall":
            value = st.sums["cpu"] / st.incl_s if st.incl_s else 0.0
        elif qty == "checks_per_result":
            returned = st.calls - sum(st.raised.values())
            checks = ops.get("aggregate.convergence_criterion", _NameStats()).calls
            value = checks / returned if returned else 0.0
        else:
            value = st.sums[qty] / n_ops
        out[metric] = float(value)
    return out
