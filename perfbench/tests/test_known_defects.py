"""Library defects the benchmark's workloads are sized around.

Each test states the correct behaviour and is marked as a strict expected
failure, so it turns into a failure of its own once the library is fixed.
Then the workload it concerns can go back to the input the test uses.
"""

import numpy as np
import pytest

from arnagg import ComplexStationary, models, pipeline_dynamic
from perfbench import oracles


@pytest.mark.xfail(raises=ComplexStationary, strict=True, reason=(
    "at coupling 1e-4 the hand-rolled Schur form leaves about 1.3e-8 of imaginary "
    "mass in the real stationary eigenvector, above the 1e-8 the library accepts"))
def test_ncd_chain_with_coupling_1e_4_returns_its_stationary_vector():
    # Chain 7 and op 19 of ncd_dynamic's pool for seed 664729460, at coupling 1e-4.
    chain = models.random_ncd(6, 10, 1e-4, seed=[664729460, 7])
    p0 = oracles.random_start(chain.n, [664729460, 1, 19])
    agg = pipeline_dynamic(chain, p0, 60, 1e-8, step_size=1)
    reference = oracles.dense_stationary(np.asarray(chain.raw))
    assert oracles.dynamic_ok(agg.stationary, agg.disaggregation, agg.criterion, agg.size,
                              reference, 1e-8, 60, 1e-3)
