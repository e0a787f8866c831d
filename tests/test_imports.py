"""``scipy.sparse`` and ``scipy.linalg`` load only when a call needs them.

Each check runs in a fresh interpreter, since this test process has long
imported both modules.
"""

import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import arnagg
from arnagg.mchain import GeneratorMatrix, _issparse, save_matrix
from arnagg.models import random_chain

# The arnagg this process imported, so the child runs the same code.
SRC = str(Path(arnagg.__file__).resolve().parents[1])

# Run in the child, which imports arnagg from ``sys.argv[1]``: reports which
# of the two scipy modules are loaded before and after exec'ing ``sys.argv[3]``
# with the directory ``sys.argv[2]`` bound to ``d``, and the bytes it leaves
# in ``result``.
CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import arnagg, arnagg.cli
loaded = lambda: sorted(m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules)
before = loaded()
ns = {"d": sys.argv[2]}
exec(sys.argv[3], ns)
print(json.dumps({"before": before, "after": loaded(),
                  "digest": hashlib.sha256(ns.get("result", b"")).hexdigest()}))
"""


def in_fresh_interpreter(code, d):
    out = subprocess.run([sys.executable, "-c", CHILD, SRC, str(d), code], check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def in_process(code, d):
    ns = {"d": str(d)}
    exec(code, ns)
    return hashlib.sha256(ns["result"]).hexdigest()


CSR_BYTES = "csr_bytes = lambda m: m.data.tobytes() + m.indices.tobytes() + m.indptr.tobytes()\n"

DENSE_WORK = """
import arnagg.cli
from arnagg import Distribution, error_trace, pipeline_dynamic, pipeline_schur, random_ncd
p = random_ncd(3, 4, 1e-3, seed=2)
p0 = Distribution.random(p.n, seed=2)
pipeline_dynamic(p, p0, 12, 1e-8, step_size=2)
error_trace(p, p0, pipeline_schur(p, p0, 6), [0, 5, 20])
code = arnagg.cli.main(["aggregate", "--gen", "ncd:blocks=3,block_size=4,epsilon=1e-3",
                        "--p0", "random", "--seed", "2", "--size", "6", "--out", d + "/agg"])
assert code == 0, code
"""

# Each case leaves its output's bytes in ``result``: the CSR arrays of a
# matrix, or the text of a written file.
SPARSE_ENTRY_POINTS = {
    "load_matrix_mtx": CSR_BYTES + """
from arnagg import load_matrix
result = csr_bytes(load_matrix(d + "/chain.mtx").raw)
""",
    "save_matrix_dense_to_mtx": """
from pathlib import Path
from arnagg import random_chain, save_matrix
save_matrix(random_chain(6, 0.5, seed=3), d + "/saved.mtx")
result = Path(d, "saved.mtx").read_bytes()
""",
    "random_chain_sparse": CSR_BYTES + """
from arnagg import random_chain
result = csr_bytes(random_chain(8, 0.4, seed=5, sparse=True).raw)
""",
    "uniformize_sparse_generator": CSR_BYTES + """
from arnagg import load_matrix, uniformize
q = load_matrix(d + "/gen.mtx", kind="generator")
assert q.is_sparse
result = csr_bytes(uniformize(q, gamma=4.0).raw)
""",
}


def test_dense_work_loads_neither_sparse_nor_linalg(tmp_path):
    report = in_fresh_interpreter(DENSE_WORK, tmp_path)
    assert report["before"] == [] and report["after"] == []
    assert (tmp_path / "agg.stationary.csv").exists()


@pytest.mark.parametrize("name", sorted(SPARSE_ENTRY_POINTS))
def test_sparse_entry_point_loads_scipy_sparse_on_demand(tmp_path, name):
    save_matrix(random_chain(7, 0.5, seed=11, sparse=True), tmp_path / "chain.mtx")
    q = np.array([[-2.0, 2.0, 0.0], [0.0, -1.0, 1.0], [3.0, 0.0, -3.0]])
    save_matrix(GeneratorMatrix(q), tmp_path / "gen.mtx")
    code = SPARSE_ENTRY_POINTS[name]
    report = in_fresh_interpreter(code, tmp_path)
    assert report["before"] == []
    assert "scipy.sparse" in report["after"]
    assert report["digest"] == in_process(code, tmp_path)


def as_np_matrix(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(a)


@pytest.mark.parametrize("make", [
    np.asarray, lambda a: a.tolist(), as_np_matrix, sp.csr_array, sp.csr_matrix, sp.coo_array,
], ids=["ndarray", "list", "np_matrix", "csr_array", "csr_matrix", "coo_array"])
def test_issparse_agrees_with_scipy(make):
    m = make(np.eye(3))
    assert _issparse(m) is sp.issparse(m)
