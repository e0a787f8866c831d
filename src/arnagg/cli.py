"""Command-line front end.

Subcommands: gen | uniformize | aggregate | trace | sweep | bench.  Every
command emits CSV (or Matrix Market for matrices) with a header row and
floats at 17 significant digits, so identical configuration and seed give
byte-identical files apart from wall-time columns.  Exit codes: 0 success,
2 configuration or validation problems, 3 numerical failures.

``trace`` and ``sweep`` run one job per (sample, size) on a thread pool;
ARNAGG_THREADS caps how many of those jobs run concurrently.  A sweep row's
wall_time is the wall time of the one job that produced it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .aggregate import (
    NEVER,
    TRACE_CSV_HEADER,
    NormalizationPolicy,
    error_trace,
    parse_policy,
    pipeline_dynamic,
    pipeline_naive,
    pipeline_schur,
)
from .errors import ComplexStationary, InputError, NumericalError
from .mchain import (
    FLOAT_FORMAT,
    Distribution,
    StochasticMatrix,
    load_distribution,
    load_matrix,
    save_distribution,
    save_matrix,
    uniformize,
)
from .models import counterexample, random_chain, random_ncd
from .orthonorm import CGSIR, VARIANTS, OrthMethod, parse_method
from .schur import aggregated_stationary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

POLICY_CHOICES = ("never", "cond", "always")


def _fmt(x) -> str:
    return FLOAT_FORMAT % float(x)


def _parse_int_list(text: str, what: str) -> list[int]:
    """Expand '0,5,10' / '1..30' / '1..30..5' (and mixes) into an int list."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            parts = token.split("..")
            if len(parts) not in (2, 3):
                raise InputError(f"bad {what} range {token!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
                step = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise InputError(f"bad {what} range {token!r}") from None
            if step < 1 or b < a:
                raise InputError(f"bad {what} range {token!r}")
            out.extend(range(a, b + 1, step))
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise InputError(f"bad {what} value {token!r}") from None
    if not out:
        raise InputError(f"empty {what} list")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InputError(f"{what} list must be strictly ascending: {out}")
    return out


def _parse_gen_spec(spec: str, seed) -> StochasticMatrix:
    """Build a chain from 'name:key=value,...' generator syntax."""
    name, _, rest = spec.partition(":")
    kv = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise InputError(f"bad generator parameter {item!r}")
            kv[key.strip()] = value.strip()
    try:
        if name == "counterexample":
            p, _ = counterexample(float(kv.get("epsilon", "0.5")))
            return p
        if name == "random":
            return random_chain(
                int(kv["n"]),
                density=float(kv.get("density", "1.0")),
                seed=seed,
                sparse=kv.get("sparse", "0") in ("1", "true", "yes"),
            )
        if name == "ncd":
            return random_ncd(
                int(kv["blocks"]),
                int(kv["block_size"]),
                float(kv.get("epsilon", "1e-4")),
                seed=seed,
            )
    except KeyError as exc:
        raise InputError(f"generator {name!r} is missing parameter {exc}") from None
    except ValueError as exc:
        raise InputError(f"bad generator parameter in {spec!r}: {exc}") from None
    raise InputError(f"unknown generator {name!r}")


def _load_chain(args) -> StochasticMatrix:
    if getattr(args, "gen", None):
        return _parse_gen_spec(args.gen, args.seed)
    if getattr(args, "input", None):
        return load_matrix(args.input, kind="stochastic")
    raise InputError("need --input FILE or --gen SPEC")


def _make_p0(source: str, n: int, rng_key) -> Distribution:
    if source == "uniform":
        return Distribution.uniform(n)
    if source == "random":
        return Distribution.random(n, seed=rng_key)
    if source.startswith("point:"):
        try:
            idx = int(source.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad point index in p0 source {source!r}") from None
        if not 0 <= idx < n:
            raise InputError(f"point index {idx} outside 0..{n - 1}")
        return Distribution.point(n, idx)
    if source.startswith("file:"):
        return load_distribution(source.split(":", 1)[1])
    raise InputError(f"unknown p0 source {source!r} (file:PATH|uniform|point:I|random)")


def _check_sizes(sizes: list[int], n: int) -> None:
    for j in sizes:
        if not 1 <= j <= n:
            raise InputError(f"size {j} outside 1..{n}")


@dataclass
class RunConfig:
    """Validated parameters of one experiment family."""

    chain: StochasticMatrix
    p0_source: str
    method: OrthMethod = CGSIR
    policy: NormalizationPolicy = NEVER
    sizes: list[int] = field(default_factory=list)
    ks: list[int] = field(default_factory=list)
    samples: int = 1
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise InputError(f"samples must be >= 1, got {self.samples}")
        _check_sizes(self.sizes, self.chain.n)
        if self.samples > 1 and self.p0_source != "random":
            raise InputError("--samples > 1 requires --p0 random")

    def p0_for_sample(self, i: int) -> Distribution:
        if self.p0_source == "random":
            return _make_p0("random", self.chain.n, [self.seed, i])
        return _make_p0(self.p0_source, self.chain.n, self.seed)


def _run_config(args, sizes: list[int]) -> RunConfig:
    return RunConfig(
        chain=_load_chain(args),
        p0_source=args.p0,
        method=parse_method(args.method),
        policy=parse_policy(args.policy),
        sizes=sizes,
        ks=_parse_int_list(args.ks, "k"),
        samples=args.samples,
        seed=args.seed,
        out=args.out,
    )


def _workers(njobs: int) -> int:
    cap = os.environ.get("ARNAGG_THREADS")
    if not cap:
        return max(1, min(njobs, os.cpu_count() or 1))
    try:
        limit = int(cap)
    except ValueError:
        raise InputError(f"ARNAGG_THREADS must be an integer, got {cap!r}") from None
    if limit < 1:
        raise InputError(f"ARNAGG_THREADS must be >= 1, got {limit}")
    return min(njobs, limit)


def _sample_paths(out: str, samples: int) -> list[str]:
    stem, dot, ext = out.rpartition(".")
    if not dot:
        stem, ext = out, "csv"
    return [f"{stem}_s{i:03d}.{ext}" for i in range(samples)] + [f"{stem}_mean.{ext}"]


def _write_rows(path: str, header: str, rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    out = args.out
    if args.model == "counterexample":
        p, p0 = counterexample(args.epsilon)
        save_matrix(p, f"{out}.mtx")
        save_distribution(p0, f"{out}.p0.csv")
        print(f"wrote {out}.mtx and {out}.p0.csv (n=3)")
        return EXIT_OK
    if args.model == "random":
        p = random_chain(args.n, density=args.density, seed=args.seed, sparse=args.sparse)
    else:
        p = random_ncd(args.blocks, args.block_size, args.epsilon, seed=args.seed)
    save_matrix(p, f"{out}.mtx")
    print(f"wrote {out}.mtx (n={p.n})")
    return EXIT_OK


def _cmd_uniformize(args) -> int:
    q = load_matrix(args.input, kind="generator")
    p = uniformize(q, gamma=args.gamma)
    save_matrix(p, args.out)
    print(f"wrote {args.out} (n={p.n})")
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    chain = _load_chain(args)
    p0 = _make_p0(args.p0, chain.n, args.seed)
    method = parse_method(args.method)
    if args.pipeline == "dynamic":
        if args.epsilon is None:
            raise InputError("dynamic pipeline needs --epsilon")
        agg = pipeline_dynamic(chain, p0, args.size, args.epsilon,
                               step_size=args.step_size, method=method)
    elif args.pipeline == "schur":
        agg = pipeline_schur(chain, p0, args.size, method=method)
    else:
        agg = pipeline_naive(chain, p0, args.size, method=method)
    out = args.out
    save_matrix(agg.step_matrix, f"{out}.step_matrix.csv")
    save_matrix(agg.disaggregation, f"{out}.disaggregation.csv")
    save_distribution(agg.initial, f"{out}.initial.csv")
    written = ["step_matrix", "disaggregation", "initial"]
    if agg.stationary is not None:
        save_distribution(agg.stationary, f"{out}.stationary.csv")
        written.append("stationary")
    crit = "" if agg.criterion is None else f" criterion={_fmt(agg.criterion)}"
    print(f"size={agg.size}{crit} files={','.join(written)}")
    return EXIT_OK


def _mean_rows(per_sample: list[list[list]]) -> list[list]:
    out = []
    for rows in zip(*per_sample):
        key = rows[0][0]
        cols = len(rows[0])
        out.append([key] + [
            float(np.mean([float(r[c]) for r in rows])) for c in range(1, cols)
        ])
    return out


def _run_jobs(cfg: RunConfig, header: str, job_rows) -> int:
    """Run ``job_rows(cfg, sample, size)`` for every (sample, size) and write the CSVs.

    Jobs run on a thread pool; each sample's rows are joined in size order.
    One sample writes ``cfg.out``; several write one ``_s###`` file each plus
    a ``_mean`` file.
    """
    jobs = [(s, j) for s in range(cfg.samples) for j in cfg.sizes]
    with ThreadPoolExecutor(max_workers=_workers(len(jobs))) as pool:
        results = list(pool.map(lambda job: job_rows(cfg, *job), jobs))
    per_sample = [[] for _ in range(cfg.samples)]
    for (sample, _), rows in zip(jobs, results):
        per_sample[sample].extend(rows)
    if cfg.samples == 1:
        _write_rows(cfg.out, header, per_sample[0])
        print(f"wrote {cfg.out}")
        return EXIT_OK
    paths = _sample_paths(cfg.out, cfg.samples)
    for path, rows in zip(paths, per_sample + [_mean_rows(per_sample)]):
        _write_rows(path, header, rows)
    print(f"wrote {len(paths)} files ({paths[0]} .. {paths[-1]})")
    return EXIT_OK


def _trace_rows(cfg: RunConfig, sample: int, size: int) -> list[list]:
    p0 = cfg.p0_for_sample(sample)
    agg = pipeline_naive(cfg.chain, p0, size, method=cfg.method)
    trace = error_trace(cfg.chain, p0, agg, cfg.ks, policy=cfg.policy)
    return [
        [str(int(k)), trace.errors[i], trace.bound_specific[i], trace.bound_general[i]]
        for i, k in enumerate(trace.steps)
    ]


def _sweep_rows(cfg: RunConfig, sample: int, size: int) -> list[list]:
    p0 = cfg.p0_for_sample(sample)
    start = time.perf_counter()
    agg = pipeline_naive(cfg.chain, p0, size, method=cfg.method)
    # A size whose leading eigenpair is complex has no usable stationary
    # vector; its criterion is reported as nan instead of aborting the sweep.
    try:
        agg = aggregated_stationary(agg)
    except ComplexStationary:
        pass
    trace = error_trace(cfg.chain, p0, agg, cfg.ks, policy=cfg.policy)
    criterion = float("nan") if trace.criterion is None else trace.criterion
    wall = time.perf_counter() - start
    return [[str(size), trace.static_error, criterion, *trace.errors, wall]]


def _cmd_trace(args) -> int:
    return _run_jobs(_run_config(args, [args.size]), TRACE_CSV_HEADER, _trace_rows)


def _cmd_sweep(args) -> int:
    cfg = _run_config(args, _parse_int_list(args.sizes, "size"))
    header = "j,static_error,criterion," \
        + ",".join(f"e_k_{k}" for k in cfg.ks) + ",wall_time"
    return _run_jobs(cfg, header, _sweep_rows)


def _cmd_bench(args) -> int:
    if args.warmup < 1:
        raise InputError(f"warmup must be >= 1, got {args.warmup}")
    if args.reps < 1:
        raise InputError(f"reps must be >= 1, got {args.reps}")
    chain = _load_chain(args) if (args.input or args.gen) else random_chain(
        args.n, density=args.density, seed=args.seed, sparse=True
    )
    sizes = _parse_int_list(args.sizes, "size")
    _check_sizes(sizes, chain.n)
    p0 = Distribution.random(chain.n, seed=args.seed)
    method = parse_method(args.method)

    def run(mode: str, j: int) -> None:
        if mode == "arnoldi":
            pipeline_naive(chain, p0, j, method=method)
        elif mode == "arnoldi+schur":
            pipeline_schur(chain, p0, j, method=method)
        else:
            agg = pipeline_schur(chain, p0, j, method=method)
            error_trace(chain, p0, agg, [args.trace_k])

    rows = []
    for mode in ("arnoldi", "arnoldi+schur", "arnoldi+schur+trace"):
        for j in sizes:
            for _ in range(args.warmup):
                run(mode, j)
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                run(mode, j)
                times.append(time.perf_counter() - t0)
            rows.append([str(chain.n), str(j), mode, str(args.reps),
                         statistics.median(times)])
    _write_rows(args.out, "n,j,mode,reps,median_seconds", rows)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_chain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="chain file (.mtx or .csv)")
    p.add_argument("--gen", help="generator spec, e.g. ncd:blocks=3,block_size=10,epsilon=1e-4")
    p.add_argument("--p0", default="uniform",
                   help="start distribution: file:PATH | uniform | point:I | random")
    p.add_argument("--method", default="cgsir", choices=VARIANTS)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arnagg",
        description="Aggregate Markov chains into small linear systems via Krylov bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate model chains")
    gen_sub = gen.add_subparsers(dest="model", required=True)
    g_cx = gen_sub.add_parser("counterexample", help="3-state tight-bound chain with its p0")
    g_cx.add_argument("--epsilon", type=float, required=True)
    g_cx.add_argument("--out", required=True, help="output prefix")
    g_rand = gen_sub.add_parser("random", help="random dense/sparse chain")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--density", type=float, default=1.0)
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("--sparse", action="store_true")
    g_rand.add_argument("--out", required=True, help="output prefix")
    g_ncd = gen_sub.add_parser("ncd", help="random nearly decoupled chain")
    g_ncd.add_argument("--blocks", type=int, required=True)
    g_ncd.add_argument("--block-size", type=int, required=True, dest="block_size")
    g_ncd.add_argument("--epsilon", type=float, required=True)
    g_ncd.add_argument("--seed", type=int, default=0)
    g_ncd.add_argument("--out", required=True, help="output prefix")
    gen.set_defaults(func=_cmd_gen)

    uni = sub.add_parser("uniformize", help="turn a generator matrix into a chain")
    uni.add_argument("--input", required=True)
    uni.add_argument("--gamma", type=float, default=None)
    uni.add_argument("--out", required=True)
    uni.set_defaults(func=_cmd_uniformize)

    agg = sub.add_parser("aggregate", help="build one aggregation and write its parts")
    _add_chain_args(agg)
    agg.add_argument("--size", type=int, required=True,
                     help="aggregation size (max size for the dynamic pipeline)")
    agg.add_argument("--pipeline", default="schur", choices=("naive", "schur", "dynamic"))
    agg.add_argument("--epsilon", type=float, default=None)
    agg.add_argument("--step-size", type=int, default=1, dest="step_size")
    agg.add_argument("--out", required=True, help="output prefix")
    agg.set_defaults(func=_cmd_aggregate)

    trace = sub.add_parser("trace", help="per-step errors and bounds as CSV")
    _add_chain_args(trace)
    trace.add_argument("--size", type=int, required=True)
    trace.add_argument("--ks", required=True, help="steps, e.g. 0,1,2 or 0..100..10")
    trace.add_argument("--policy", default="never", choices=POLICY_CHOICES)
    trace.add_argument("--samples", type=int, default=1)
    trace.add_argument("--out", required=True)
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser("sweep", help="per-size static error, criterion, and errors")
    _add_chain_args(sweep)
    sweep.add_argument("--sizes", required=True, help="sizes, e.g. 1..30 or 1..30..5")
    sweep.add_argument("--ks", default="100", help="error checkpoints")
    sweep.add_argument("--policy", default="never", choices=POLICY_CHOICES)
    sweep.add_argument("--samples", type=int, default=1)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    bench = sub.add_parser("bench", help="median runtimes of the pipeline stages")
    _add_chain_args(bench)
    bench.add_argument("--n", type=int, default=2000)
    bench.add_argument("--density", type=float, default=0.002)
    bench.add_argument("--sizes", required=True)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--warmup", type=int, default=1)
    bench.add_argument("--trace-k", type=int, default=100, dest="trace_k")
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
