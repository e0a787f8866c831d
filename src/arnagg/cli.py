"""Command-line front end.

Subcommands: gen | uniformize | aggregate | trace | sweep | bench.  Every
command emits CSV (or Matrix Market for matrices) with a header row and
floats at 17 significant digits, so identical configuration and seed give
byte-identical files apart from wall-time columns.  Exit codes: 0 success,
2 configuration or validation problems, 3 numerical failures.

``trace`` and ``sweep`` run one job per sample on a thread pool;
ARNAGG_THREADS caps how many samples run concurrently.  A sweep sample grows
one Krylov factorization to its largest size, snapshots it at every size and
walks the chain once for all of them; each size reads its defect rows off the
Arnoldi relation, with no chain product, and no bound is summed, since a
sweep row has no bound column.  A sweep row's wall_time is its sample's wall
time divided by the number of sizes, so a sample's rows sum to its wall time.
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
    NormalizationPolicy,
    _error_traces,
    error_trace,
    parse_policy,
    pipeline_dynamic,
    pipeline_naive,
    pipeline_schur,
)
from .arnoldi import ArnoldiBuilder, build_aggregation
from .errors import ComplexStationary, InputError, NumericalError
from .mchain import (
    FLOAT_FORMAT,
    Distribution,
    StochasticMatrix,
    _write_csv,
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

TRACE_CSV_HEADER = "k,e_k,bound_specific,bound_general"


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take no negative seed."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


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


def _bool(text: str) -> bool:
    """A bool parameter: 1/true/yes or 0/false/no, in any case."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"{text!r} is not 1/true/yes or 0/false/no")
    return text.lower() in ("1", "true", "yes")


# The generator models of ``gen NAME --key ...`` and ``--gen NAME:key=...``:
# name -> (help, builder of (chain, start or None), {key: (type, default)}).
# A None default marks a required key; ``seed`` is set by ``--seed`` only.
MODELS = {
    "counterexample": ("3-state tight-bound chain with its p0",
                       counterexample,
                       {"epsilon": (float, 0.5)}),
    "random": ("random dense/sparse chain",
               lambda n, density, sparse, seed: (
                   random_chain(n, density=density, seed=seed, sparse=sparse), None),
               {"n": (int, None), "density": (float, 1.0), "sparse": (_bool, False),
                "seed": (_seed, 0)}),
    "ncd": ("random nearly decoupled chain",
            lambda blocks, block_size, epsilon, seed: (
                random_ncd(blocks, block_size, epsilon, seed=seed), None),
            {"blocks": (int, None), "block_size": (int, None), "epsilon": (float, 1e-4),
             "seed": (_seed, 0)}),
}


def _parse_gen_spec(spec: str, seed) -> StochasticMatrix:
    """Build a chain from 'name:key=value,...' generator syntax.

    Every key and value is checked against ``MODELS`` before the builder runs.
    """
    name, _, rest = spec.partition(":")
    if name not in MODELS:
        raise InputError(f"unknown generator {name!r}")
    _, build, params = MODELS[name]
    given = {}
    for item in rest.split(",") if rest else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise InputError(f"bad generator parameter {item!r}")
        if key not in params or key == "seed":
            raise InputError(f"generator {name!r} has no parameter {key!r}")
        if key in given:
            raise InputError(f"generator parameter {key!r} given twice")
        given[key] = value
    try:
        kwargs = {key: kind(given[key]) if key in given else default
                  for key, (kind, default) in params.items()}
    except ValueError as exc:
        raise InputError(f"bad generator parameter in {spec!r}: {exc}") from None
    missing = [key for key, value in kwargs.items() if value is None]
    if missing:
        raise InputError(f"generator {name!r} is missing parameter {missing[0]!r}")
    if "seed" in kwargs:
        kwargs["seed"] = seed
    return build(**kwargs)[0]


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
    # A bad ARNAGG_THREADS or --ks fails before the chain loads.
    _workers(args.samples)
    ks = _parse_int_list(args.ks, "k")
    return RunConfig(
        chain=_load_chain(args),
        p0_source=args.p0,
        method=parse_method(args.method),
        policy=parse_policy(args.policy),
        sizes=sizes,
        ks=ks,
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
    stem, ext = os.path.splitext(out)
    ext = ext or ".csv"
    return [f"{stem}_s{i:03d}{ext}" for i in range(samples)] + [f"{stem}_mean{ext}"]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    out = args.out
    _, build, params = MODELS[args.model]
    p, p0 = build(**{key: getattr(args, key) for key in params})
    save_matrix(p, f"{out}.mtx")
    if p0 is None:
        print(f"wrote {out}.mtx (n={p.n})")
    else:
        save_distribution(p0, f"{out}.p0.csv")
        print(f"wrote {out}.mtx and {out}.p0.csv (n={p.n})")
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
    crit = "" if agg.criterion is None else f" criterion={FLOAT_FORMAT % agg.criterion}"
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


def _run_jobs(cfg: RunConfig, header: str, sample_rows) -> int:
    """Run ``sample_rows(cfg, sample)`` for every sample and write the CSVs.

    Samples run on a thread pool.  One sample writes ``cfg.out``; several
    write one ``_s###`` file each plus a ``_mean`` file.
    """
    with ThreadPoolExecutor(max_workers=_workers(cfg.samples)) as pool:
        per_sample = list(pool.map(lambda sample: sample_rows(cfg, sample),
                                   range(cfg.samples)))
    if cfg.samples == 1:
        _write_csv(cfg.out, per_sample[0], header)
        print(f"wrote {cfg.out}")
        return EXIT_OK
    paths = _sample_paths(cfg.out, cfg.samples)
    for path, rows in zip(paths, per_sample + [_mean_rows(per_sample)]):
        _write_csv(path, rows, header)
    print(f"wrote {len(paths)} files ({paths[0]} .. {paths[-1]})")
    return EXIT_OK


def _trace_rows(cfg: RunConfig, sample: int) -> list[list]:
    p0 = cfg.p0_for_sample(sample)
    agg = pipeline_naive(cfg.chain, p0, cfg.sizes[0], method=cfg.method)
    trace = error_trace(cfg.chain, p0, agg, cfg.ks, policy=cfg.policy)
    return [
        [str(int(k)), trace.errors[i], trace.bound_specific[i], trace.bound_general[i]]
        for i, k in enumerate(trace.steps)
    ]


def _sweep_rows(cfg: RunConfig, sample: int) -> list[list]:
    p0 = cfg.p0_for_sample(sample)
    start = time.perf_counter()
    # Krylov factorizations nest, so snapshots of one builder give every
    # size; after a deflation the later sizes get the deflated one, as
    # pipeline_naive would.
    builder = ArnoldiBuilder(cfg.chain, p0, cfg.sizes[-1], method=cfg.method)
    aggs = []
    for size in cfg.sizes:
        while builder.size < size and not builder.done:
            builder.expand()
        agg = build_aggregation(builder.snapshot(), p0)
        # A size whose leading eigenpair is complex has no usable stationary
        # vector; its criterion is reported as nan instead of aborting the sweep.
        try:
            agg = aggregated_stationary(agg)
        except ComplexStationary:
            pass
        aggs.append(agg)
    traces = _error_traces(cfg.chain, p0, aggs, cfg.ks, policy=cfg.policy, bounds=False)
    wall = (time.perf_counter() - start) / len(cfg.sizes)
    return [
        [str(size), trace.static_error,
         float("nan") if trace.criterion is None else trace.criterion, *trace.errors, wall]
        for size, trace in zip(cfg.sizes, traces)
    ]


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
    if args.trace_k < 0:
        raise InputError(f"trace-k must be >= 0, got {args.trace_k}")
    sizes = _parse_int_list(args.sizes, "size")
    chain = _load_chain(args) if (args.input or args.gen) else random_chain(
        args.n, density=args.density, seed=args.seed, sparse=True
    )
    _check_sizes(sizes, chain.n)
    p0 = _make_p0(args.p0, chain.n, args.seed)
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
    _write_csv(args.out, rows, "n,j,mode,reps,median_seconds")
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
    p.add_argument("--seed", type=_seed, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arnagg",
        description="Aggregate Markov chains into small linear systems via Krylov bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate model chains")
    gen_sub = gen.add_subparsers(dest="model", required=True)
    for name, (help_text, _, params) in MODELS.items():
        model = gen_sub.add_parser(name, help=help_text)
        for key, (kind, default) in params.items():
            flag = "--" + key.replace("_", "-")
            if kind is _bool:
                model.add_argument(flag, action="store_true", dest=key)
            else:
                model.add_argument(flag, type=kind, default=default, required=default is None,
                                   dest=key)
        model.add_argument("--out", required=True, help="output prefix")
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
    bench.set_defaults(func=_cmd_bench, p0="random")

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
