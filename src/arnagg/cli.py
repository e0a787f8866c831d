"""Command-line front end.

Subcommands: gen | uniformize | aggregate | trace | sweep | bench.  Every
command emits CSV (or Matrix Market for matrices) with a header row and
floats at 17 significant digits, so identical configuration and seed give
byte-identical files apart from wall-time columns.  Exit codes: 0 success,
2 configuration or validation problems, 3 numerical failures.

Argparse takes exactly one of ``--input`` and ``--gen`` (``bench`` may give
neither, for its ``--n``/``--density`` chain) and checks every other value that
needs no chain by the type of its flag: numbers and their ranges, the ``--ks``
and ``--sizes`` lists, the ``--p0`` grammar (a ``file:`` start is read there,
once), and the directory of ``--out``.  Then, still before any chain, a command
checks the rules that join flags (``--samples`` above 1 needs ``--p0 random``;
``--pipeline dynamic`` needs ``--epsilon``, and ``--epsilon`` and
``--step-size`` need ``--pipeline dynamic``; ``bench`` takes ``--n`` and
``--density`` only without a chain source) and ARNAGG_THREADS.  Each such
error names its flag and exits 2.  Only checks that need the chain run after it
loads: a size above n, a ``point:`` index >= n and a start vector of the wrong
length.  A MemoryError, a size too large for the machine, also exits 2.

``trace`` and ``sweep`` run one job per sample on a thread pool;
ARNAGG_THREADS caps how many samples run concurrently.  A sweep sample grows
one Krylov factorization to its largest size, snapshots it at every size and
walks the chain once for all of them; each size weighs its defect by the one
number the Arnoldi relation leaves, with no chain product.  A sweep row's
wall_time is its sample's wall time divided by the number of sizes, so a
sample's rows sum to its wall time.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .aggregate import (
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
    _integer,
    _write_csv,
    load_distribution,
    load_matrix,
    save_distribution,
    save_matrix,
    uniformize,
)
from .models import counterexample, random_chain, random_ncd
from .orthonorm import VARIANTS, parse_method
from .schur import aggregated_stationary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

POLICY_CHOICES = ("never", "cond", "always")

TRACE_CSV_HEADER = "k,e_k,bound_specific,bound_general"


# The argparse types below raise InputError, not ArgumentTypeError, so that
# parse_args passes it to ``main``, which prints it and returns exit 2.


def _int(flag: str, low: int):
    """The argparse type of ``flag``: an integer >= low."""
    def parse(text: str) -> int:
        try:
            return _integer(flag, int(text), low)
        except ValueError:
            raise InputError(f"{flag} must be an integer, got {text!r}") from None
    return parse


def _positive(flag: str, most: float = np.inf):
    """The argparse type of ``flag``: a positive, finite float, at most ``most``."""
    rule = "positive and finite" if most == np.inf else f"in (0, {most:g}]"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise InputError(f"{flag} must be a number, got {text!r}") from None
        if not 0.0 < value <= most or value == np.inf:
            raise InputError(f"{flag} must be {rule}, got {text}")
        return value
    return parse


def _int_list(flag: str, low: int):
    """The argparse type of ``flag``: a strictly ascending list of integers >= low.

    Tokens are comma-separated values and ranges: '0,5,10', '1..30',
    '1..30..5', or a mix of them.
    """
    def parse(text: str) -> list[int]:
        out: list[int] = []
        for token in filter(None, map(str.strip, text.split(","))):
            try:
                ends = [int(part) for part in token.split("..")]
            except ValueError:
                ends = []
            if len(ends) == 1:
                ends *= 2
            if len(ends) == 2:
                ends.append(1)
            if len(ends) != 3 or ends[2] < 1 or ends[1] < ends[0]:
                raise InputError(f"{flag}: bad value or range {token!r}")
            out.extend(range(ends[0], ends[1] + 1, ends[2]))
        if not out or any(b <= a for a, b in zip(out, out[1:])):
            raise InputError(f"{flag} must be a nonempty, strictly ascending list, got {text!r}")
        if out[0] < low:
            raise InputError(f"{flag} values must be >= {low}, got {out[0]}")
        return out
    return parse


def _p0(text: str):
    """The argparse type of ``--p0``: (kind, point index or file start or None)."""
    kind, _, rest = text.partition(":")
    if text in ("uniform", "random"):
        return text, None
    if kind == "point":
        try:
            index = int(rest)
        except ValueError:
            index = -1
        if index < 0:
            raise InputError(f"--p0: bad point index in {text!r}")
        return kind, index
    if kind == "file":
        try:
            return kind, load_distribution(rest)
        except (InputError, OSError) as exc:
            raise InputError(f"--p0 {text}: {exc}") from None
    raise InputError(f"--p0: unknown start {text!r} (file:PATH|uniform|point:I|random)")


def _out(text: str) -> str:
    """The argparse type of ``--out``: a path or prefix whose directory exists."""
    folder = os.path.dirname(text)
    if folder and not os.path.isdir(folder):
        raise InputError(f"--out {text}: no directory {folder!r}")
    return text


# numpy's generators take no negative seed.
_seed = _int("--seed", 0)


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
    if args.gen is not None:
        return _parse_gen_spec(args.gen, args.seed)
    return load_matrix(args.input, kind="stochastic")


def _start(p0, n: int, seed) -> Distribution:
    """The start distribution of a parsed ``--p0`` on an n-state chain."""
    kind, arg = p0
    if kind == "uniform":
        return Distribution.uniform(n)
    if kind == "random":
        return Distribution.random(n, seed=seed)
    if kind == "point":
        if arg >= n:
            raise InputError(f"--p0 point index {arg} outside 0..{n - 1}")
        return Distribution.point(n, arg)
    return arg


def _workers(njobs: int) -> int:
    cap = os.environ.get("ARNAGG_THREADS")
    if not cap:
        return max(1, min(njobs, os.cpu_count() or 1))
    return min(njobs, _int("ARNAGG_THREADS", 1)(cap))


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
    if args.pipeline == "dynamic" and args.epsilon is None:
        raise InputError("--pipeline dynamic needs --epsilon")
    for flag, value in (("--epsilon", args.epsilon), ("--step-size", args.step_size)):
        if value is not None and args.pipeline != "dynamic":
            raise InputError(f"{flag} needs --pipeline dynamic")
    chain = _load_chain(args)
    p0 = _start(args.p0, chain.n, args.seed)
    method = parse_method(args.method)
    if args.pipeline == "dynamic":
        agg = pipeline_dynamic(chain, p0, args.size, args.epsilon,
                               step_size=args.step_size or 1, method=method)
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


def _run_jobs(args, header: str, sample_rows) -> int:
    """Run ``sample_rows(chain, p0, args)`` for every sample and write the CSVs.

    Sample i of a random start is seeded ``[seed, i]``.  Samples run on a
    thread pool.  One sample writes ``args.out``; several write one
    ``_s###`` file each plus a ``_mean`` file.
    """
    if args.samples > 1 and args.p0[0] != "random":
        raise InputError("--samples > 1 requires --p0 random")
    workers = _workers(args.samples)
    chain = _load_chain(args)
    starts = [_start(args.p0, chain.n, [args.seed, i]) for i in range(args.samples)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_sample = list(pool.map(lambda p0: sample_rows(chain, p0, args), starts))
    if args.samples == 1:
        _write_csv(args.out, per_sample[0], header)
        print(f"wrote {args.out}")
        return EXIT_OK
    paths = _sample_paths(args.out, args.samples)
    for path, rows in zip(paths, per_sample + [_mean_rows(per_sample)]):
        _write_csv(path, rows, header)
    print(f"wrote {len(paths)} files ({paths[0]} .. {paths[-1]})")
    return EXIT_OK


def _trace_rows(chain: StochasticMatrix, p0: Distribution, args) -> list[list]:
    agg = pipeline_naive(chain, p0, args.size, method=parse_method(args.method))
    trace = error_trace(chain, p0, agg, args.ks, policy=parse_policy(args.policy))
    return [
        [str(int(k)), trace.errors[i], trace.bound_specific[i], trace.bound_general[i]]
        for i, k in enumerate(trace.steps)
    ]


def _sweep_rows(chain: StochasticMatrix, p0: Distribution, args) -> list[list]:
    start = time.perf_counter()
    # Krylov factorizations nest, so snapshots of one builder give every
    # size; after a deflation the later sizes get the deflated one, as
    # pipeline_naive would.
    builder = ArnoldiBuilder(chain, p0, args.sizes[-1], method=parse_method(args.method))
    aggs = []
    for size in args.sizes:
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
    traces = _error_traces(chain, p0, aggs, args.ks, policy=parse_policy(args.policy))
    wall = (time.perf_counter() - start) / len(args.sizes)
    return [
        [str(size), trace.static_error,
         float("nan") if trace.criterion is None else trace.criterion, *trace.errors, wall]
        for size, trace in zip(args.sizes, traces)
    ]


def _cmd_trace(args) -> int:
    return _run_jobs(args, TRACE_CSV_HEADER, _trace_rows)


def _cmd_sweep(args) -> int:
    header = "j,static_error,criterion," \
        + ",".join(f"e_k_{k}" for k in args.ks) + ",wall_time"
    return _run_jobs(args, header, _sweep_rows)


def _cmd_bench(args) -> int:
    if args.input is None and args.gen is None:
        chain = random_chain(2000 if args.n is None else args.n,
                             density=0.002 if args.density is None else args.density,
                             seed=args.seed, sparse=True)
    else:
        for flag, value in (("--n", args.n), ("--density", args.density)):
            if value is not None:
                raise InputError(f"{flag} shapes bench's own chain, not one from --input or --gen")
        chain = _load_chain(args)
    if args.sizes[-1] > chain.n:
        raise InputError(f"size {args.sizes[-1]} outside 1..{chain.n}")
    p0 = _start(args.p0, chain.n, args.seed)
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
        for j in args.sizes:
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


def _add_chain_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    source = p.add_mutually_exclusive_group(required=required)
    source.add_argument("--input", help="chain file (.mtx or .csv)")
    source.add_argument("--gen",
                        help="generator spec, e.g. ncd:blocks=3,block_size=10,epsilon=1e-4")
    p.add_argument("--p0", type=_p0, default="uniform",
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
        model.add_argument("--out", type=_out, required=True, help="output prefix")
    gen.set_defaults(func=_cmd_gen)

    uni = sub.add_parser("uniformize", help="turn a generator matrix into a chain")
    uni.add_argument("--input", required=True)
    uni.add_argument("--gamma", type=_positive("--gamma"), default=None)
    uni.add_argument("--out", type=_out, required=True)
    uni.set_defaults(func=_cmd_uniformize)

    agg = sub.add_parser("aggregate", help="build one aggregation and write its parts")
    _add_chain_args(agg)
    agg.add_argument("--size", type=_int("--size", 1), required=True,
                     help="aggregation size (max size for the dynamic pipeline)")
    agg.add_argument("--pipeline", default="schur", choices=("naive", "schur", "dynamic"))
    agg.add_argument("--epsilon", type=_positive("--epsilon"), default=None)
    agg.add_argument("--step-size", type=_int("--step-size", 1), default=None, dest="step_size")
    agg.add_argument("--out", type=_out, required=True, help="output prefix")
    agg.set_defaults(func=_cmd_aggregate)

    trace = sub.add_parser("trace", help="per-step errors and bounds as CSV")
    _add_chain_args(trace)
    trace.add_argument("--size", type=_int("--size", 1), required=True)
    trace.add_argument("--ks", type=_int_list("--ks", 0), required=True,
                       help="steps, e.g. 0,1,2 or 0..100..10")
    trace.add_argument("--policy", default="never", choices=POLICY_CHOICES)
    trace.add_argument("--samples", type=_int("--samples", 1), default=1)
    trace.add_argument("--out", type=_out, required=True)
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser("sweep", help="per-size static error, criterion, and errors")
    _add_chain_args(sweep)
    sweep.add_argument("--sizes", type=_int_list("--sizes", 1), required=True,
                       help="sizes, e.g. 1..30 or 1..30..5")
    sweep.add_argument("--ks", type=_int_list("--ks", 0), default="100",
                       help="error checkpoints")
    sweep.add_argument("--policy", default="never", choices=POLICY_CHOICES)
    sweep.add_argument("--samples", type=_int("--samples", 1), default=1)
    sweep.add_argument("--out", type=_out, required=True)
    sweep.set_defaults(func=_cmd_sweep)

    bench = sub.add_parser("bench", help="median runtimes of the pipeline stages")
    _add_chain_args(bench, required=False)
    bench.add_argument("--n", type=_int("--n", 1), default=None,
                       help="states of the chain built without --input/--gen (default 2000)")
    bench.add_argument("--density", type=_positive("--density", 1.0), default=None,
                       help="density of that chain (default 0.002)")
    bench.add_argument("--sizes", type=_int_list("--sizes", 1), required=True)
    bench.add_argument("--reps", type=_int("--reps", 1), default=3)
    bench.add_argument("--warmup", type=_int("--warmup", 1), default=1)
    bench.add_argument("--trace-k", type=_int("--trace-k", 0), default=100, dest="trace_k")
    bench.add_argument("--out", type=_out, required=True)
    bench.set_defaults(func=_cmd_bench, p0="random")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InputError, OSError, MemoryError) as exc:
        # A bare MemoryError carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
