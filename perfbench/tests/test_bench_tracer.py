import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

import arnagg.aggregate as aggregate
import arnagg.cli as cli
import arnagg.mchain as mchain
import arnagg.models as models
import arnagg.schur as schur
from arnagg.arnoldi import ArnoldiBuilder, ArnoldiFactorization
from perfbench import tracer
from perfbench.tracer import (
    PER_LAYER,
    Span,
    Tracer,
    covered,
    defect_bytes,
    installed,
    layer_metrics,
    matrix_bytes,
    self_times,
    snapshot_bytes,
    vec_mul_bytes,
)


def _span(sid, parent, t0, t1, tid=1, name="x", op="op0"):
    return Span(sid, parent, name, op, tid, t0, t1)


def test_covered_merges_overlapping_intervals_and_clips():
    assert covered([(1, 6), (3, 8)], 0, 10) == 7
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_does_not_double_count_children_on_two_threads():
    spans = [
        _span(0, None, 0.0, 10.0, tid=1),
        _span(1, 0, 1.0, 6.0, tid=2),   # worker thread A
        _span(2, 0, 3.0, 8.0, tid=3),   # worker thread B, overlapping A
        _span(3, 1, 2.0, 4.0, tid=2),   # child of A
    ]
    selfs = self_times(spans)
    assert selfs == {0: pytest.approx(3.0), 1: pytest.approx(3.0),
                     2: pytest.approx(5.0), 3: pytest.approx(2.0)}


def test_worker_thread_spans_hang_under_the_op_threads_open_span():
    tr = Tracer()
    tr.begin_op("op0")
    root = tr.open("cli.main")
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=10)
        tr.close(tr.open("aggregate.error_trace"))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tr.close(root)
    workers = [s for s in tr.spans if s.name == "aggregate.error_trace"]
    assert len(workers) == 2
    assert {s.parent for s in workers} == {root.sid}
    assert len({s.tid for s in workers}) == 2
    assert all(s.op == "op0" for s in tr.spans)


def test_computed_bytes_formulas():
    csr = sp.csr_array(np.array([[0.5, 0.5, 0, 0], [0, 1.0, 0, 0],
                                 [0, 0, 1.0, 0], [0, 0, 0.5, 0.5]]))
    assert csr.nnz == 6
    idx = csr.indices.itemsize
    assert matrix_bytes(csr) == 6 * 8 + 6 * idx + 5 * idx
    assert matrix_bytes(np.zeros((4, 4))) == 128
    assert vec_mul_bytes(128, 4) == 128 + 2 * 8 * 4
    assert defect_bytes(3, 10) == 3 * 3 * 10 * 8
    fact = ArnoldiFactorization(np.zeros((3, 10)), np.zeros((3, 3)), 0.5, np.zeros(10), False)
    assert snapshot_bytes(fact) == 3 * 10 * 8 + 3 * 3 * 8 + 10 * 8
    deflated = ArnoldiFactorization(np.zeros((3, 10)), np.zeros((3, 3)), 0.0, None, True)
    assert snapshot_bytes(deflated) == 3 * 10 * 8 + 3 * 3 * 8


def _targets_now():
    out = {}
    for owner_name, attr, _, _ in tracer.TARGETS:
        owner = tracer._resolve(owner_name)
        out[(owner_name, attr)] = (getattr(owner, attr), attr in vars(owner))
    return out


def test_span_cost_is_small_and_positive():
    assert 0.0 <= tracer.span_cost(2000) < 1e-3


def test_every_span_name_has_a_self_time_metric():
    names = {name for name, _, _ in PER_LAYER}
    for _, _, span_name, _ in tracer.TARGETS:
        assert f"{span_name}.self_s" in names


def test_every_wrapper_is_removed_after_a_traced_run():
    before = _targets_now()
    assert "vec_mul" not in vars(mchain.StochasticMatrix)
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert aggregate.pipeline_dynamic is not before[("arnagg.aggregate", "pipeline_dynamic")][0]
            assert "vec_mul" in vars(mchain.StochasticMatrix)
            raise RuntimeError("an op that fails must still uninstall")
    after = _targets_now()
    for key, (obj, own) in before.items():
        assert after[key][0] is obj, key
        assert after[key][1] == own, key
    assert "vec_mul" not in vars(mchain.StochasticMatrix)
    assert cli.main is before[("arnagg.cli", "main")][0]


def test_a_target_the_library_no_longer_has_is_skipped(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("arnagg.schur", "no_such_function", "schur.no_such_function", None),
        ("arnagg.no_such_module", "f", "gone.f", None),
    ))
    with installed(Tracer()):
        pass
    assert not hasattr(schur, "no_such_function")


def test_traced_dynamic_pipeline_reports_every_layer_metric():
    tr = Tracer()
    tr.begin_op("setup0")
    with installed(tr):
        chain = models.random_ncd(3, 5, 1e-3, seed=1)
    p0 = np.full(chain.n, 1.0 / chain.n)
    tr.begin_op("op0")
    with installed(tr):
        t0 = time.perf_counter()
        agg = aggregate.pipeline_dynamic(chain, p0, chain.n, 1e-10)
        wall = time.perf_counter() - t0
    values = layer_metrics(tr.spans, {"op0": wall}, ["setup0"], {"op0": wall})
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["arnoldi.expand.calls"] == agg.size
    assert values["mchain.vec_mul.calls"] == agg.size
    assert values["schur.aggregated_stationary.calls"] >= values["aggregate.convergence_criterion.calls"]
    assert values["schur.schur_decompose.max_dim"] == agg.size
    assert values["aggregate.exactness_defect.calls"] == values["aggregate.convergence_criterion.calls"]
    assert values["aggregate.pipeline_dynamic.checks_per_result"] \
        == values["aggregate.convergence_criterion.calls"]
    assert values["orthonorm.orthogonalize_step.basis_rows"] == agg.size * (agg.size + 1) / 2
    assert values["models.random_chain.self_s"] > 0
    assert values["models.random_ncd.self_s"] > 0
    assert values["cli.main.self_s"] == 0.0          # a span that never ran reads zero
    assert values["mchain.load_matrix.mb_read"] == 0.0
    assert values["trace.overhead_ratio"] == 0.0
    assert values["trace.overhead_computed"] == 0.0  # no span cost given
    assert 0.9 < values["trace.self_sum_ratio"] <= 1.0
    layer_sum = sum(v for k, v in values.items()
                    if k.endswith(".self_s") and not k.startswith("models."))
    assert layer_sum == pytest.approx(values["trace.self_sum_ratio"] * wall)
    assert not tr._stack()
