import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from arnagg import Distribution, error_trace, pipeline_naive, random_chain
from perfbench import oracles, tracer
from perfbench.run import measure

ROOT = Path(__file__).resolve().parents[2]


def test_dense_and_power_oracles_agree():
    chain = random_chain(40, 0.2, seed=3, sparse=True)
    dense = oracles.dense_stationary(chain.toarray())
    power = oracles.power_stationary(chain.raw)
    assert np.abs(dense - power).sum() < 1e-12
    assert np.abs(dense @ chain.toarray() - dense).sum() < 1e-12


def test_krylov_oracle_matches_the_library_error_trace():
    chain = random_chain(300, 0.05, seed=4, sparse=True)
    p0 = oracles.random_start(chain.n, [0, 1])
    assert np.array_equal(p0, Distribution.random(chain.n, seed=[0, 1]).values)
    got = oracles.krylov_errors(chain.raw, p0, [3, 6], [10, 50])
    for size in (3, 6):
        trace = error_trace(chain, p0, pipeline_naive(chain, p0, size), [10, 50])
        assert got[size] == pytest.approx(list(trace.errors), rel=1e-8, abs=1e-12)


def test_a_stationary_vector_scaled_by_one_percent_fails():
    ref = oracles.dense_stationary(random_chain(30, 0.3, seed=5).toarray())
    assert oracles.stationary_ok(ref.copy(), ref, 1e-3)
    assert not oracles.stationary_ok(1.01 * ref, ref, 1e-3)
    assert not oracles.stationary_ok(np.full_like(ref, np.nan), ref, 1e-3)


def test_dynamic_result_needs_the_criterion_or_the_full_size():
    ref = np.array([0.25, 0.75])
    eye = np.eye(2)
    assert oracles.dynamic_ok(ref, eye, 1e-9, 1, ref, 1e-8, 2, 1e-6)
    assert oracles.dynamic_ok(ref, eye, 1e-3, 2, ref, 1e-8, 2, 1e-6)
    assert not oracles.dynamic_ok(ref, eye, 1e-3, 1, ref, 1e-8, 2, 1e-6)
    assert not oracles.dynamic_ok(None, eye, 1e-9, 1, ref, 1e-8, 2, 1e-6)


HEADER = "j,static_error,criterion,e_k_10,wall_time"


def _sweep_files(e4=0.5, wall="0.1", crit="0.25"):
    text = f"{HEADER}\n4,1.5,{crit},{e4},{wall}\n8,1.25,0.125,0.001,{wall}\n"
    return {"out_s000.csv": text}


def test_sweep_check_ignores_only_wall_time():
    ref = _sweep_files()
    oracle = {"out_s000.csv": {4: [0.5], 8: [0.001]}}
    args = ([4, 8], [10], oracle, 1e-10, 1e-6)
    assert oracles.sweep_ok(_sweep_files(wall="9.5"), ref, HEADER, *args)
    assert not oracles.sweep_ok(_sweep_files(crit="0.26"), ref, HEADER, *args)
    assert not oracles.sweep_ok(_sweep_files(crit="nan"), _sweep_files(crit="nan"), HEADER, *args)
    assert not oracles.sweep_ok(_sweep_files(e4=0.505), _sweep_files(e4=0.505), HEADER, *args)
    assert not oracles.sweep_ok({}, ref, HEADER, *args)
    short = {"out_s000.csv": ref["out_s000.csv"].rsplit("8,", 1)[0]}
    assert not oracles.sweep_ok(short, short, HEADER, *args)
    assert not oracles.sweep_ok(ref, ref, HEADER.replace("j,", "size,"), *args)


class _Perturbed:
    """A workload whose second op returns its stationary vector scaled by 1.01."""

    def __init__(self):
        self.ref = np.array([0.2, 0.3, 0.5])

    def make_input(self, i):
        return i

    def run(self, i):
        if i == 2:
            raise RuntimeError("an op that raises")
        return self.ref * (1.01 if i == 1 else 1.0)

    def check(self, i, result):
        return oracles.stationary_ok(result, self.ref, 1e-3)

    def agg_size(self, result):
        return 3


def test_measure_counts_perturbed_and_raising_ops_as_failed():
    m = measure(_Perturbed(), seconds=0.05)
    assert len(m.walls) >= 3
    assert m.failed == 2
    assert len(m.sizes) == len(m.walls) - 2


def test_traced_measure_runs_each_input_traced_and_untraced():
    m = measure(_Perturbed(), seconds=0.0, tr=tracer.Tracer())
    assert len(m.walls) == 2
    assert set(m.traced_walls) == set(m.untraced_walls) == {"op0"}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.run import END_TO_END, WORKLOAD_NAMES
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
