"""Run one arnagg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ncd_dynamic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload is a closed loop with one
client: the next op starts once the previous one has returned and been
checked, until ``--seconds`` have passed.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is the result as one JSON object; the
line before it holds the details (environment, op times, tail rule).
"""

from __future__ import annotations

import os
import sys

# One BLAS thread in every process, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
WORKLOAD_NAMES = ("ncd_dynamic", "sparse_dynamic", "sweep_cli")
# (metric, unit, better) of the untraced run.
END_TO_END = (
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("agg_size_mean", "count", "lower"),
)


# Fresh interpreters timed importing arnagg; setup_s takes their median.
IMPORT_REPS = 3
IMPORT_CODE = ("import time; t = time.perf_counter(); import arnagg, arnagg.cli; "
               "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def attempt(wl, inp):
    """Time one op; return ``(wall_seconds, result)``, result None if it raised."""
    t0 = time.perf_counter()
    try:
        result = wl.run(inp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, result


def passed(wl, inp, result) -> bool:
    if result is None:
        return False
    try:
        return bool(wl.check(inp, result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


@dataclass
class Measurement:
    walls: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    failed: int = 0
    elapsed: float = 0.0
    traced_walls: dict = field(default_factory=dict)
    untraced_walls: dict = field(default_factory=dict)


def measure(wl, seconds: float, tr=None) -> Measurement:
    """Closed loop with one client until ``seconds`` have passed.

    With a tracer, each input runs twice, traced and untraced, alternating
    which goes first, so that the gap between them is the tracing overhead.
    """
    from perfbench import tracer

    m = Measurement()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        inp = wl.make_input(i)
        op = f"op{i}"
        modes = (False,) if tr is None else ((True, False) if i % 2 == 0 else (False, True))
        for traced in modes:
            if traced:
                tr.begin_op(op)
                with tracer.installed(tr):
                    wall, result = attempt(wl, inp)
                m.traced_walls[op] = wall
            else:
                wall, result = attempt(wl, inp)
                m.untraced_walls[op] = wall
            m.walls.append(wall)
            if passed(wl, inp, result):
                m.sizes.append(wl.agg_size(result))
            else:
                m.failed += 1
        i += 1
    m.elapsed = time.perf_counter() - start
    return m


def import_times() -> list[float]:
    """Seconds each of IMPORT_REPS fresh interpreters takes to import arnagg."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": path})
        times.append(float(proc.stdout))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "arnagg" / "__init__.py").is_file():
        print(f"error: no arnagg sources in {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != HERE]

    imports = import_times()
    from perfbench import envinfo, stats, tracer, workloads

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    tr = tracer.Tracer() if args.trace else None

    setup_ops, reps = [], []
    for rep in range(workloads.SETUP_REPS):
        start = time.perf_counter()
        if tr is None:
            wl.build(rep)
        else:
            setup_ops.append(f"setup{rep}")
            tr.begin_op(setup_ops[-1])
            with tracer.installed(tr):
                wl.build(rep)
        reps.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(reps)
    wl.prepare()

    m = measure(wl, args.seconds, tr)
    attempted = len(m.walls)
    ok = attempted - m.failed
    tail_value, tail_pct, tail_beyond = stats.tail(m.walls)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op_walls_s": m.walls, "fail_ratio": m.failed / attempted,
        "op_tail_percentile": tail_pct, "op_tail_samples_beyond": tail_beyond,
        "samples": attempted, "import_reps_s": imports, "setup_reps_s": reps,
        "environment": envinfo.environment(wl.working_set(max(m.sizes, default=1))),
    }
    if tr is None:
        values = {
            "op_p50_s": statistics.median(m.walls),
            "op_tail_s": tail_value,
            "ops_per_s": ok / m.elapsed,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_ratio": ok / attempted,
            "agg_size_mean": statistics.mean(m.sizes) if m.sizes else 0.0,
        }
        specs = END_TO_END
    else:
        values = tracer.layer_metrics(tr.spans, m.traced_walls, setup_ops, m.untraced_walls,
                                      tracer.span_cost())
        specs = tracer.PER_LAYER
        with open(WORKDIR / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
            for s in tr.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name, "op": s.op,
                                     "tid": s.tid, "t0": s.t0, "t1": s.t1, **s.attrs}) + "\n")
    detail["metrics"] = {name: values[name] for name, _, _ in specs}
    with open(WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
