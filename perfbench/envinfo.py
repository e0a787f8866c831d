"""The environment a result was measured in.

Results from different machines, library versions or thread settings are
not comparable; every result carries this record so that the difference
shows.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess

import numpy as np
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ARNAGG_THREADS")


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        return {"show_config": buf.getvalue()}


def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              env={**os.environ, "LC_ALL": "C"}, check=False).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    wanted = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in wanted:
            out[wanted[key.strip()]] = value.strip()
    return out


def environment(working_set_bytes: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_count": os.cpu_count(),
        **_lscpu(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "working_set_bytes_computed": working_set_bytes,
    }
