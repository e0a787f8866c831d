import numpy as np
import pytest

from arnagg import cli
from arnagg.aggregate import NEVER, error_trace, parse_policy, pipeline_naive, pipeline_schur
from arnagg.arnoldi import ArnoldiBuilder
from arnagg.errors import ComplexStationary
from arnagg.mchain import (
    Distribution,
    StochasticMatrix,
    load_distribution,
    load_matrix,
    save_distribution,
    save_matrix,
)
from arnagg.models import random_chain
from arnagg.orthonorm import parse_method


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def without_wall_time(path):
    """File text with the trailing wall_time field cut from every data row."""
    lines = path.read_text().split("\n")
    if not lines[0].endswith(",wall_time"):
        return "\n".join(lines)
    return "\n".join([lines[0]] + [line.rpartition(",")[0] for line in lines[1:]])


def complex_at(monkeypatch, size):
    """Make the CLI's stationary extraction raise ComplexStationary at one size."""
    real = cli.aggregated_stationary

    def fake(agg):
        if agg.size == size:
            raise ComplexStationary(0.5)
        return real(agg)

    monkeypatch.setattr(cli, "aggregated_stationary", fake)


class TestGen:
    def test_counterexample_writes_chain_and_start(self, tmp_path):
        out = tmp_path / "cx"
        assert run("gen", "counterexample", "--epsilon", 0.5, "--out", out) == 0
        p = load_matrix(f"{out}.mtx")
        assert np.array_equal(
            p.toarray(), [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        p0 = load_distribution(f"{out}.p0.csv")
        assert np.array_equal(p0.values, [0.0, 0.0, 1.0])

    def test_invalid_epsilon_exits_2(self, tmp_path, capsys):
        assert run("gen", "counterexample", "--epsilon", 1.5, "--out", tmp_path / "x") == 2
        assert "epsilon" in capsys.readouterr().err

    def test_random_and_ncd_models(self, tmp_path):
        assert run("gen", "random", "--n", 12, "--density", 0.5, "--seed", 3,
                   "--out", tmp_path / "r") == 0
        assert load_matrix(tmp_path / "r.mtx").n == 12
        assert run("gen", "ncd", "--blocks", 2, "--block-size", 4, "--epsilon", 1e-3,
                   "--out", tmp_path / "n") == 0
        assert load_matrix(tmp_path / "n.mtx").n == 8

    @pytest.mark.parametrize("model, spec, suffix", [
        (["ncd", "--blocks", 3, "--block-size", 4, "--epsilon", 1e-3],
         "ncd:blocks=3,block_size=4,epsilon=1e-3", "csv"),
        (["random", "--n", 30, "--density", 0.3], "random:n=30,density=0.3", "csv"),
        (["random", "--n", 30, "--density", 0.3, "--sparse"],
         "random:n=30,density=0.3,sparse=1", "mtx"),
    ], ids=["ncd", "random", "random_sparse"])
    def test_gen_and_gen_spec_build_the_same_chain(self, tmp_path, model, spec, suffix):
        assert run("gen", *model, "--seed", 2, "--out", tmp_path / "g") == 0
        # --input stores a .csv chain dense and a .mtx chain sparse; match --gen's storage.
        chain = tmp_path / f"g.{suffix}"
        if suffix == "csv":
            save_matrix(load_matrix(tmp_path / "g.mtx"), chain)
        common = ["--p0", "random", "--seed", 2, "--size", 6]
        assert run("aggregate", "--input", chain, *common, "--out", tmp_path / "a") == 0
        assert run("aggregate", "--gen", spec, *common, "--out", tmp_path / "b") == 0
        for part in ("step_matrix", "disaggregation", "initial", "stationary"):
            assert (tmp_path / f"a.{part}.csv").read_bytes() \
                == (tmp_path / f"b.{part}.csv").read_bytes()


class TestSeed:
    @pytest.mark.parametrize("command", [
        ["gen", "random", "--n", 5],
        ["gen", "ncd", "--blocks", 2, "--block-size", 2, "--epsilon", 0.1],
        ["aggregate", "--gen", "random:n=5", "--size", 2],
        ["trace", "--gen", "random:n=5", "--size", 2, "--ks", "1"],
        ["sweep", "--gen", "random:n=5", "--sizes", "1,2"],
        ["bench", "--n", 20, "--sizes", "2", "--reps", 1],
    ], ids=["gen_random", "gen_ncd", "aggregate", "trace", "sweep", "bench"])
    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        assert run(*command, "--seed", -1, "--out", tmp_path / "out") == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


INPUT = ["--input", "{tmp}/p.mtx"]
NO_DIR = ["--out", "{tmp}/nodir/x"]


class TestFlagsAreCheckedBeforeTheChain:
    """A value that needs no chain exits 2 before any chain is loaded or built."""

    @pytest.mark.parametrize("argv, message", [
        (["ARNAGG_THREADS=0", "trace", *INPUT, "--p0", "random", "--size", 5, "--ks", "0..10",
          "--samples", 2], "ARNAGG_THREADS must be >= 1, got 0"),
        (["ARNAGG_THREADS=0", "sweep", *INPUT, "--p0", "random", "--sizes", "1..5", "--ks", 10,
          "--samples", 2], "ARNAGG_THREADS must be >= 1, got 0"),
        (["trace", *INPUT, "--size", 5, "--ks", "5,1"],
         "--ks must be a nonempty, strictly ascending list, got '5,1'"),
        (["sweep", *INPUT, "--sizes", "1..5", "--ks", "5,1"],
         "--ks must be a nonempty, strictly ascending list, got '5,1'"),
        (["bench", "--sizes", "4,2"],
         "--sizes must be a nonempty, strictly ascending list, got '4,2'"),
        (["aggregate", *INPUT, "--size", 5, "--pipeline", "dynamic"],
         "--pipeline dynamic needs --epsilon"),
        (["aggregate", *INPUT, "--size", 5, "--pipeline", "dynamic", "--epsilon", -1],
         "--epsilon must be positive and finite, got -1"),
        (["aggregate", *INPUT, "--size", 5, "--pipeline", "dynamic", "--epsilon", "nan"],
         "--epsilon must be positive and finite, got nan"),
        (["aggregate", *INPUT, "--size", 5, "--pipeline", "dynamic", "--epsilon", "inf"],
         "--epsilon must be positive and finite, got inf"),
        (["aggregate", *INPUT, "--size", 5, "--pipeline", "dynamic", "--epsilon", "abc"],
         "--epsilon must be a number, got 'abc'"),
        (["aggregate", *INPUT, "--size", 5, "--pipeline", "dynamic", "--epsilon", 1e-8,
          "--step-size", 0], "--step-size must be >= 1, got 0"),
        (["aggregate", *INPUT, "--size", 5, "--epsilon", 1e-8],
         "--epsilon needs --pipeline dynamic"),
        (["aggregate", *INPUT, "--size", 5, "--pipeline", "naive", "--step-size", 3],
         "--step-size needs --pipeline dynamic"),
        (["aggregate", *INPUT, "--size", 2, "--p0", "bogus"], "--p0: unknown start 'bogus'"),
        (["trace", *INPUT, "--size", 2, "--ks", 1, "--p0", "bogus"],
         "--p0: unknown start 'bogus'"),
        (["sweep", *INPUT, "--sizes", "1,2", "--p0", "bogus"], "--p0: unknown start 'bogus'"),
        (["bench", "--sizes", 2, "--p0", "bogus"], "--p0: unknown start 'bogus'"),
        (["aggregate", *INPUT, "--size", 2, "--p0", "point:x"],
         "--p0: bad point index in 'point:x'"),
        (["aggregate", *INPUT, "--size", 2, "--p0", "file:{tmp}/missing.csv"],
         "--p0 file:{tmp}/missing.csv: [Errno 2] No such file or directory"),
        (["trace", *INPUT, "--size", 2, "--ks", 1, "--samples", 0],
         "--samples must be >= 1, got 0"),
        (["sweep", *INPUT, "--sizes", "1,2", "--samples", 2, "--p0", "uniform"],
         "--samples > 1 requires --p0 random"),
        (["trace", *INPUT, "--size", 2, "--ks", -1], "--ks values must be >= 0, got -1"),
        (["trace", *INPUT, "--size", 2, "--ks", "a..b"], "--ks: bad value or range 'a..b'"),
        (["aggregate", "--gen", "random:n", "--size", 2], "bad generator parameter 'n'"),
        (["aggregate", *INPUT, "--size", 0], "--size must be >= 1, got 0"),
        (["sweep", *INPUT, "--sizes", "0..4"], "--sizes values must be >= 1, got 0"),
        (["uniformize", *INPUT, "--gamma", -1], "--gamma must be positive and finite, got -1"),
        (["gen", "random", "--n", 5, *NO_DIR], "--out {tmp}/nodir/x: no directory"),
        (["uniformize", *INPUT, *NO_DIR], "--out {tmp}/nodir/x: no directory"),
        (["aggregate", "--gen", "random:n=5", "--size", 2, *NO_DIR],
         "--out {tmp}/nodir/x: no directory"),
        (["trace", *INPUT, "--size", 2, "--ks", 1, *NO_DIR], "--out {tmp}/nodir/x: no directory"),
        (["sweep", "--gen", "ncd:blocks=2,block_size=2", "--sizes", 2, *NO_DIR],
         "--out {tmp}/nodir/x: no directory"),
        (["bench", "--sizes", 2, *NO_DIR], "--out {tmp}/nodir/x: no directory"),
        (["bench", *INPUT, "--n", 50, "--sizes", 2],
         "--n shapes bench's own chain, not one from --input or --gen"),
        (["bench", "--gen", "random:n=5", "--density", 0.5, "--sizes", 2],
         "--density shapes bench's own chain, not one from --input or --gen"),
        (["bench", "--n", 0, "--sizes", 2], "--n must be >= 1, got 0"),
        (["bench", "--n", "x", "--sizes", 2], "--n must be an integer, got 'x'"),
        (["bench", "--density", 0, "--sizes", 2], "--density must be in (0, 1], got 0"),
        (["bench", "--density", 1.5, "--sizes", 2], "--density must be in (0, 1], got 1.5"),
        (["bench", "--density", "nan", "--sizes", 2], "--density must be in (0, 1], got nan"),
    ], ids=["threads_trace", "threads_sweep", "descending_ks_trace", "descending_ks_sweep",
            "descending_sizes_bench", "dynamic_without_epsilon", "epsilon_negative",
            "epsilon_nan", "epsilon_inf", "epsilon_not_a_number", "step_size_0",
            "epsilon_without_dynamic", "step_size_without_dynamic",
            "p0_aggregate", "p0_trace", "p0_sweep", "p0_bench", "p0_point_index",
            "p0_missing_file", "samples_0", "samples_without_random_p0", "ks_negative",
            "ks_bad_range", "gen_parameter_without_value", "size_0", "sizes_from_0",
            "gamma_negative", "out_gen", "out_uniformize", "out_aggregate", "out_trace",
            "out_sweep", "out_bench", "n_with_input_bench", "density_with_gen_bench",
            "n_0_bench", "n_not_integer_bench", "density_0_bench", "density_above_1_bench",
            "density_nan_bench"])
    def test_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("a chain was loaded or built before the flags were checked")

        monkeypatch.setattr(cli, "load_matrix", never)
        monkeypatch.setattr(cli, "random_chain", never)
        for name, (help_text, _, params) in cli.MODELS.items():
            monkeypatch.setitem(cli.MODELS, name, (help_text, never, params))
        argv = [str(a).format(tmp=tmp_path) for a in argv]
        if argv[0].startswith("ARNAGG_THREADS="):
            monkeypatch.setenv("ARNAGG_THREADS", argv.pop(0).partition("=")[2])
        if "--out" not in argv:
            argv += ["--out", f"{tmp_path}/out"]
        assert run(*argv) == 2
        assert f"error: {message.format(tmp=tmp_path)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestChainSource:
    """Exactly one of --input and --gen is given; only bench may give neither."""

    COMMANDS = {
        "aggregate": ["--size", 2],
        "trace": ["--size", 2, "--ks", 1],
        "sweep": ["--sizes", "1,2"],
        "bench": ["--sizes", 2, "--reps", 1],
    }

    @pytest.mark.parametrize("command", ["aggregate", "trace", "sweep", "bench"])
    def test_both_exit_2_and_write_nothing(self, tmp_path, capsys, command):
        save_matrix(random_chain(20, 0.5, seed=1, sparse=True), tmp_path / "chain.mtx")
        with pytest.raises(SystemExit) as exc:
            run(command, "--input", tmp_path / "chain.mtx", "--gen", "random:n=5",
                *self.COMMANDS[command], "--out", tmp_path / "both")
        assert exc.value.code == 2
        assert "argument --gen: not allowed with argument --input" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["chain.mtx"]

    @pytest.mark.parametrize("command", ["aggregate", "trace", "sweep"])
    def test_neither_exits_2_before_any_chain(self, tmp_path, monkeypatch, capsys, command):
        def never(*args, **kwargs):
            raise AssertionError("a chain was loaded or built without a source")

        monkeypatch.setattr(cli, "load_matrix", never)
        monkeypatch.setattr(cli, "random_chain", never)
        with pytest.raises(SystemExit) as exc:
            run(command, *self.COMMANDS[command], "--out", tmp_path / "neither")
        assert exc.value.code == 2
        assert "one of the arguments --input --gen is required" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bench_with_neither_builds_its_n_density_chain(self, tmp_path, monkeypatch):
        built = []

        def recording(n, density, seed, sparse):
            built.append((n, density, seed, sparse))
            return random_chain(n, density=density, seed=seed, sparse=sparse)

        monkeypatch.setattr(cli, "random_chain", recording)
        out = tmp_path / "b.csv"
        assert run("bench", "--n", 30, "--density", 0.1, "--seed", 4,
                   *self.COMMANDS["bench"], "--out", out) == 0
        assert built == [(30, 0.1, 4, True)]
        assert {row[0] for row in read_csv(out)[1]} == {"30"}

    def test_empty_gen_counts_as_given(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("aggregate", "--input", tmp_path / "chain.mtx", "--gen", "", "--size", 2,
                "--out", tmp_path / "x")
        assert exc.value.code == 2
        assert run("bench", "--gen", "", "--sizes", 2, "--out", tmp_path / "x.csv") == 2
        assert "error: unknown generator ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestUniformize:
    def test_zero_generator_gives_identity_file(self, tmp_path):
        qpath = tmp_path / "q.mtx"
        save_matrix(np.zeros((3, 3)), qpath)
        out = tmp_path / "p.mtx"
        assert run("uniformize", "--input", qpath, "--out", out) == 0
        assert np.array_equal(load_matrix(out).toarray(), np.eye(3))

    def test_gamma_too_small_exits_2(self, tmp_path):
        qpath = tmp_path / "q.mtx"
        save_matrix(np.array([[-2.0, 2.0], [1.0, -1.0]]), qpath)
        assert run("uniformize", "--input", qpath, "--gamma", 0.5,
                   "--out", tmp_path / "p.mtx") == 2


class TestAggregate:
    def test_writes_all_parts(self, tmp_path):
        out = tmp_path / "agg"
        assert run("aggregate", "--gen", "random:n=10", "--p0", "random",
                   "--size", 10, "--seed", 2, "--out", out) == 0
        step = load_matrix(f"{out}.step_matrix.csv", kind="raw")
        a = load_matrix(f"{out}.disaggregation.csv", kind="raw")
        initial = load_distribution(f"{out}.initial.csv", strict=False)
        stationary = load_distribution(f"{out}.stationary.csv", strict=False)
        assert step.shape == (10, 10)
        assert a.shape == (10, 10)
        assert len(initial) == 10
        image = stationary.values @ a
        assert np.abs(image).sum() == pytest.approx(1.0, abs=1e-10)

    def test_dynamic_pipeline_reports_criterion(self, tmp_path, capsys):
        out = tmp_path / "agg"
        code = run("aggregate", "--gen", "ncd:blocks=2,block_size=5,epsilon=1e-3",
                   "--p0", "random", "--size", 10, "--pipeline", "dynamic",
                   "--epsilon", 1e-8, "--seed", 4, "--out", out)
        assert code == 0
        assert "criterion=" in capsys.readouterr().out

    def test_point_start(self, tmp_path):
        save_matrix(random_chain(20, 0.5, seed=1, sparse=True), tmp_path / "chain.mtx")
        out = tmp_path / "agg"
        assert run("aggregate", "--input", tmp_path / "chain.mtx", "--p0", "point:3",
                   "--size", 2, "--out", out) == 0
        initial = load_distribution(f"{out}.initial.csv", strict=False)
        assert np.array_equal(initial.values, [1.0, 0.0])
        basis = load_matrix(f"{out}.disaggregation.csv", kind="raw")
        assert np.array_equal(basis[0], np.eye(20)[3])

    def test_point_index_outside_the_chain_exits_2_after_the_load(self, tmp_path,
                                                                  monkeypatch, capsys):
        save_matrix(random_chain(20, 0.5, seed=1, sparse=True), tmp_path / "chain.mtx")
        loaded = []

        def recording(path, kind):
            loaded.append(path)
            return load_matrix(path, kind=kind)

        monkeypatch.setattr(cli, "load_matrix", recording)
        assert run("aggregate", "--input", tmp_path / "chain.mtx", "--p0", "point:20",
                   "--size", 2, "--out", tmp_path / "agg") == 2
        assert loaded
        assert "error: --p0 point index 20 outside 0..19" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["chain.mtx"]

    def test_naive_pipeline_writes_no_stationary(self, tmp_path, capsys):
        save_matrix(random_chain(20, 0.5, seed=1, sparse=True), tmp_path / "chain.mtx")
        out = tmp_path / "agg"
        assert run("aggregate", "--input", tmp_path / "chain.mtx", "--pipeline", "naive",
                   "--size", 2, "--out", out) == 0
        assert capsys.readouterr().out == "size=2 files=step_matrix,disaggregation,initial\n"
        assert sorted(f.name for f in tmp_path.glob("agg.*")) == [
            "agg.disaggregation.csv", "agg.initial.csv", "agg.step_matrix.csv"]

    def test_nan_entry_in_input_exits_2(self, tmp_path, capsys):
        ppath = tmp_path / "p.mtx"
        ppath.write_text("%%MatrixMarket matrix coordinate real general\n"
                         "2 2 3\n1 1 nan\n1 2 1\n2 2 1\n")
        assert run("aggregate", "--input", ppath, "--p0", "uniform", "--size", 2,
                   "--out", tmp_path / "agg") == 2
        assert "not finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("agg*"))

    @pytest.mark.parametrize("body", [
        "3000000000 3000000000 1\n1 1 1.0\n",
        "99999999999999999999 99999999999999999999 1\n99999999999999999999 1 1.0\n",
        "99999999999999999999 99999999999999999999 99999999999999999999\n1 1 1.0\n",
    ], ids=["shape_beyond_entries", "index_beyond_int64", "entry_count_beyond_int64"])
    def test_untrusted_size_line_exits_2(self, tmp_path, capsys, body):
        ppath = tmp_path / "p.mtx"
        ppath.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        assert run("aggregate", "--input", ppath, "--p0", "uniform", "--size", 1,
                   "--out", tmp_path / "agg") == 2
        assert "size line" in capsys.readouterr().err
        assert not list(tmp_path.glob("agg*"))

    @pytest.mark.parametrize("entry", [
        "2 2 0.5 7", "2 2", "1 1 abc",
        "1.5 1 1.0", "1 1 1.5xyz", "1 1 0x1p0",
        "1 1 1e", "1 1 1.0 % x",
    ])
    def test_malformed_entry_line_exits_2(self, tmp_path, capsys, entry):
        ppath = tmp_path / "p.mtx"
        ppath.write_text("%%MatrixMarket matrix coordinate real general\n"
                         f"2 2 2\n1 2 1.0\n{entry}\n")
        assert run("aggregate", "--input", ppath, "--p0", "uniform", "--size", 1,
                   "--out", tmp_path / "agg") == 2
        assert "line 3: malformed entry section" in capsys.readouterr().err
        assert not list(tmp_path.glob("agg*"))

    @pytest.mark.parametrize("option, name, body", [
        ("--input", "p.mtx", b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\xff\n"),
        ("--input", "p.csv", b"1.0\xff\n"),
        ("--p0", "p0.csv", b"1.0\xff\n"),
    ], ids=["matrixmarket", "csv_matrix", "p0_file"])
    def test_undecodable_byte_exits_2(self, tmp_path, capsys, option, name, body):
        path = tmp_path / name
        path.write_bytes(body)
        chain = ["--input", path] if option == "--input" else ["--gen", "random:n=1"]
        p0 = f"file:{path}" if option == "--p0" else "uniform"
        assert run("aggregate", *chain, "--p0", p0, "--size", 1, "--out", tmp_path / "agg") == 2
        assert "malformed" in capsys.readouterr().err
        assert not list(tmp_path.glob("agg*"))

    def test_multi_column_p0_file_exits_2(self, tmp_path, capsys):
        p0 = tmp_path / "p0.csv"
        p0.write_text("0.5,0.5\n0.5,0.5\n")
        assert run("aggregate", "--gen", "random:n=2", "--p0", f"file:{p0}", "--size", 1,
                   "--out", tmp_path / "agg") == 2
        assert "2 columns, expected 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("agg*"))

    def test_p0_file_whose_sum_overflows_exits_2(self, tmp_path, capsys):
        p0 = tmp_path / "big.csv"
        p0.write_text("1e308\n1e308\n0\n")
        assert run("aggregate", "--gen", "random:n=3", "--p0", f"file:{p0}", "--size", 1,
                   "--out", tmp_path / "agg") == 2
        assert capsys.readouterr().err == f"error: --p0 file:{p0}: strict distribution sums to inf\n"
        assert not list(tmp_path.glob("agg*"))

    def test_non_integer_point_index_exits_2(self, tmp_path, capsys):
        assert run("aggregate", "--gen", "random:n=6,density=0.5", "--p0", "point:abc",
                   "--size", 3, "--out", tmp_path / "agg") == 2
        assert "point:abc" in capsys.readouterr().err
        assert not list(tmp_path.glob("agg*"))

    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_non_finite_epsilon_exits_2(self, tmp_path, capsys, epsilon):
        assert run("aggregate", "--gen", "random:n=6,density=0.5", "--p0", "uniform",
                   "--size", 6, "--pipeline", "dynamic", "--epsilon", epsilon,
                   "--seed", 1, "--out", tmp_path / "agg") == 2
        assert "epsilon" in capsys.readouterr().err
        assert not list(tmp_path.glob("agg*"))

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise ComplexStationary(0.5)

        monkeypatch.setattr(cli, "pipeline_schur", boom)
        assert run("aggregate", "--gen", "random:n=6", "--p0", "uniform",
                   "--size", 3, "--out", tmp_path / "agg") == 3

    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "pipeline_dynamic", boom)
        assert run("aggregate", "--gen", "random:n=6", "--size", 6, "--pipeline", "dynamic",
                   "--epsilon", 1e-8, "--out", tmp_path / "agg") == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec, key", [
        ("random:n=5,dens=0.1", "dens"),
        ("ncd:blocks=2,block_size=3,eps=1e-3", "eps"),
    ], ids=["random", "ncd"])
    def test_unknown_gen_parameter_exits_2(self, tmp_path, capsys, spec, key):
        assert run("aggregate", "--gen", spec, "--size", 2, "--out", tmp_path / "agg") == 2
        assert f"has no parameter '{key}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec, named", [
        ("random:n=4000,dens=0.001", "'dens'"),
        ("random:density=0.5", "'n'"),
        ("ncd:blocks=2", "'block_size'"),
        ("random:n=abc", "'abc'"),
        ("random:n=5,n=6", "'n' given twice"),
        ("ncd:blocks=2,block_size=3,block_size=3", "'block_size' given twice"),
    ], ids=["unknown_key", "missing_n", "missing_block_size", "bad_value", "repeated_key",
            "repeated_key_same_value"])
    def test_bad_gen_spec_exits_2_before_any_chain_is_built(self, tmp_path, capsys,
                                                            monkeypatch, spec, named):
        def never(*args, **kwargs):
            pytest.fail("the model builder ran on a bad spec")

        monkeypatch.setattr(cli, "random_chain", never)
        monkeypatch.setattr(cli, "random_ncd", never)
        assert run("aggregate", "--gen", spec, "--size", 2, "--out", tmp_path / "agg") == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, want", [
        ("1", True), ("true", True), ("YES", True), ("0", False), ("false", False), ("No", False),
    ])
    def test_gen_spec_bool_grammar(self, text, want):
        assert cli._parse_gen_spec(f"random:n=5,sparse={text}", 0).is_sparse is want

    @pytest.mark.parametrize("text", ["on", "2"])
    def test_gen_spec_bool_outside_grammar_exits_2(self, tmp_path, capsys, text):
        assert run("aggregate", "--gen", f"random:n=5,sparse={text}", "--size", 2,
                   "--out", tmp_path / "agg") == 2
        assert f"'{text}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model, spec", [
        (["ncd", "--blocks", 2, "--block-size", 3, "--seed", 1], "ncd:blocks=2,block_size=3"),
        (["counterexample"], "counterexample"),
    ], ids=["ncd", "counterexample"])
    def test_gen_and_gen_spec_share_their_defaults(self, tmp_path, model, spec):
        assert run("gen", *model, "--out", tmp_path / "g") == 0
        save_matrix(cli._parse_gen_spec(spec, 1), tmp_path / "b.mtx")
        assert (tmp_path / "g.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()


class TestTrace:
    def test_counterexample_rows(self, tmp_path):
        cx = tmp_path / "cx"
        run("gen", "counterexample", "--epsilon", 0.5, "--out", cx)
        out = tmp_path / "tr.csv"
        assert run("trace", "--input", f"{cx}.mtx", "--p0", f"file:{cx}.p0.csv",
                   "--size", 1, "--ks", "0..2", "--out", out) == 0
        header, rows = read_csv(out)
        assert header == ["k", "e_k", "bound_specific", "bound_general"]
        got = [(int(r[0]), float(r[1])) for r in rows]
        assert got == [(0, 0.0), (1, 1.0), (2, 1.0)]

    def test_identity_chain_zero_errors(self, tmp_path):
        ppath = tmp_path / "id.csv"
        save_matrix(np.eye(4), ppath)
        out = tmp_path / "tr.csv"
        assert run("trace", "--input", ppath, "--p0", "uniform", "--size", 1,
                   "--ks", "0,1,5,9", "--out", out) == 0
        _, rows = read_csv(out)
        assert all(abs(float(r[1])) <= 1e-12 for r in rows)

    def test_errors_within_bounds_in_emitted_csv(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert run("trace", "--gen", "random:n=20,density=0.4", "--p0", "random",
                   "--size", 8, "--ks", "0..40..5", "--seed", 11, "--out", out) == 0
        _, rows = read_csv(out)
        for r in rows:
            assert float(r[1]) <= float(r[2]) + 1e-8

    def test_multisample_files_and_mean(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert run("trace", "--gen", "random:n=8", "--p0", "random", "--size", 4,
                   "--ks", "0,1,2", "--samples", 3, "--seed", 5, "--out", out) == 0
        sample_paths = [tmp_path / f"tr_s{i:03d}.csv" for i in range(3)]
        mean_path = tmp_path / "tr_mean.csv"
        assert all(p.exists() for p in sample_paths) and mean_path.exists()
        _, mean_rows = read_csv(mean_path)
        _, first_rows = read_csv(sample_paths[0])
        for i, row in enumerate(mean_rows):
            samples = [float(read_csv(p)[1][i][1]) for p in sample_paths]
            assert float(row[1]) == pytest.approx(np.mean(samples), rel=1e-12)
        assert len(first_rows) == 3

    def test_multisample_needs_random_p0(self, tmp_path):
        assert run("trace", "--gen", "random:n=8", "--p0", "uniform", "--size", 4,
                   "--ks", "0", "--samples", 2, "--out", tmp_path / "x.csv") == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("trace", "--gen", "random:n=10", "--p0", "random", "--size", 5,
                       "--ks", "0..10", "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_cap_env_var_respected(self, tmp_path, monkeypatch):
        commands = {
            "trace": ["--size", 5, "--ks", "0..10"],
            "sweep": ["--sizes", "1..9..2", "--ks", "5,10"],
        }
        for command, args in commands.items():
            for cap in ("1", None):
                if cap is None:
                    monkeypatch.delenv("ARNAGG_THREADS")
                else:
                    monkeypatch.setenv("ARNAGG_THREADS", cap)
                out = tmp_path / f"{command}_{cap or 'free'}.csv"
                assert run(command, "--gen", "random:n=10", "--p0", "random", *args,
                           "--samples", 2, "--seed", 7, "--out", out) == 0
            for suffix in ("s000", "s001", "mean"):
                capped = tmp_path / f"{command}_1_{suffix}.csv"
                free = tmp_path / f"{command}_free_{suffix}.csv"
                assert without_wall_time(capped) == without_wall_time(free)

    @pytest.mark.parametrize("cap", ["abc", "0", "-2"])
    def test_bad_thread_cap_exits_2(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("ARNAGG_THREADS", cap)
        assert run("trace", "--gen", "random:n=10", "--p0", "random", "--size", 5,
                   "--ks", "0..10", "--samples", 2, "--seed", 7,
                   "--out", tmp_path / "x.csv") == 2
        assert "ARNAGG_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("chain, p0", [
        ([[0, 1], [0, 1]], [0.36, 0.64]),
        ([[0, 1, 0], [0, 1, 0], [0, 0, 1]], [0.36, 0.64, 0.0]),
    ], ids=["absorbing", "with_isolated_state"])
    def test_overflowing_walk_exits_3(self, tmp_path, capsys, chain, p0):
        save_matrix(np.array(chain, dtype=float), tmp_path / "p.mtx")
        save_distribution(np.array(p0), tmp_path / "p0.csv")
        out = tmp_path / "tr.csv"
        assert run("trace", "--input", tmp_path / "p.mtx", "--p0", f"file:{tmp_path / 'p0.csv'}",
                   "--size", 1, "--ks", "0,5000", "--out", out) == 3
        assert "error: the size-1 aggregated vector is no longer finite" in capsys.readouterr().err
        assert not out.exists()

    def test_descending_ks_rejected(self, tmp_path):
        assert run("trace", "--gen", "random:n=8", "--p0", "uniform", "--size", 2,
                   "--ks", "5,1", "--out", tmp_path / "x.csv") == 2

    def test_size_larger_than_chain_rejected(self, tmp_path):
        assert run("trace", "--gen", "random:n=8", "--p0", "uniform", "--size", 9,
                   "--ks", "0", "--out", tmp_path / "x.csv") == 2


class TestSweep:
    def test_identity_chain_criterion_column(self, tmp_path):
        ppath = tmp_path / "id.csv"
        save_matrix(np.eye(3), ppath)
        out = tmp_path / "sw.csv"
        assert run("sweep", "--input", ppath, "--p0", "random", "--sizes", "1..3",
                   "--ks", "10", "--seed", 1, "--out", out) == 0
        header, rows = read_csv(out)
        assert header[:3] == ["j", "static_error", "criterion"]
        assert header[-1] == "wall_time"
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert all(float(r[2]) <= 1e-10 for r in rows)

    def test_nearly_decoupled_criterion_improves_with_size(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert run("sweep", "--gen", "ncd:blocks=3,block_size=10,epsilon=1e-3",
                   "--p0", "random", "--sizes", "1,30", "--ks", "100",
                   "--seed", 3, "--out", out) == 0
        _, rows = read_csv(out)
        crit = {int(r[0]): float(r[2]) for r in rows}
        assert crit[30] <= crit[1]

    def test_unstable_method_has_larger_static_error(self, tmp_path):
        args = ["sweep", "--gen", "ncd:blocks=10,block_size=10,epsilon=1e-8",
                "--p0", "random", "--sizes", "60", "--ks", "10", "--seed", 3]
        out_cgs, out_cgs2 = tmp_path / "cgs.csv", tmp_path / "cgs2.csv"
        assert run(*args, "--method", "cgs", "--out", out_cgs) == 0
        assert run(*args, "--method", "cgs2", "--out", out_cgs2) == 0
        static_cgs = float(read_csv(out_cgs)[1][0][1])
        static_cgs2 = float(read_csv(out_cgs2)[1][0][1])
        assert static_cgs >= static_cgs2

    def test_complex_size_reports_nan_criterion(self, tmp_path, monkeypatch):
        out = tmp_path / "sw.csv"
        args = ["sweep", "--gen", "random:n=12", "--p0", "random", "--sizes", "2,3,4",
                "--ks", "5", "--seed", 9]
        assert run(*args, "--out", out) == 0
        complex_at(monkeypatch, 3)
        builders, expansions = [], []

        class CountingBuilder(ArnoldiBuilder):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                builders.append(self.max_size)

            def expand(self):
                expansions.append(self.size + 1)
                super().expand()

        monkeypatch.setattr(cli, "ArnoldiBuilder", CountingBuilder)
        forced = tmp_path / "forced.csv"
        assert run(*args, "--out", forced) == 0
        assert builders == [4]
        assert expansions == [1, 2, 3, 4]
        (_, plain), (_, rows) = read_csv(out), read_csv(forced)
        assert [r[2] for r in rows] == [plain[0][2], "nan", plain[2][2]]
        assert float(plain[1][2]) >= 0.0
        assert [r[:2] + r[3:-1] for r in rows] == [r[:2] + r[3:-1] for r in plain]

    def test_sample_walks_the_chain_once(self, tmp_path, monkeypatch):
        calls = []
        real = StochasticMatrix.vec_mul

        def counting(self, v):
            calls.append(1)
            return real(self, v)

        monkeypatch.setattr(StochasticMatrix, "vec_mul", counting)
        out = tmp_path / "sw.csv"
        assert run("sweep", "--gen", "random:n=30,density=0.3", "--p0", "random",
                   "--sizes", "2,5,9,12", "--ks", "10,40", "--samples", 2, "--seed", 4,
                   "--out", out) == 0
        # Per sample: 12 Krylov steps and one 40-step walk; the defect rows
        # are read off the Arnoldi relation.
        assert len(calls) == 2 * (12 + 40)

    def test_wall_time_is_amortised_over_sizes(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert run("sweep", "--gen", "random:n=12", "--p0", "random", "--sizes", "1..6",
                   "--ks", "5", "--seed", 9, "--out", out) == 0
        walls = {r[-1] for r in read_csv(out)[1]}
        assert len(walls) == 1 and float(walls.pop()) > 0.0

    def test_dense_chain_rows_match_per_size_error_traces(self, tmp_path):
        # TestRunnerMatchesLibrary loads its chains from .mtx, as CSR; a
        # --gen random chain stays dense.
        sizes, ks = [2, 5, 9, 12], [0, 10, 40]
        out = tmp_path / "sw.csv"
        assert run("sweep", "--gen", "random:n=30,density=0.5", "--p0", "random",
                   "--sizes", ",".join(map(str, sizes)), "--ks", ",".join(map(str, ks)),
                   "--seed", 4, "--out", out) == 0
        p = random_chain(30, density=0.5, seed=4)
        p0 = Distribution.random(30, seed=[4, 0])
        assert not p.is_sparse
        for j, row in zip(sizes, read_csv(out)[1], strict=True):
            try:
                agg = pipeline_schur(p, p0, j)
            except ComplexStationary:
                agg = pipeline_naive(p, p0, j)
            trace = error_trace(p, p0, agg, ks)
            criterion = np.nan if trace.criterion is None else trace.criterion
            assert row[:-1] == [str(j)] + [cli.FLOAT_FORMAT % x for x in (
                trace.static_error, criterion, *trace.errors)]

    def test_byte_identical_apart_from_wall_time(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run("sweep", "--gen", "random:n=12", "--p0", "random",
                       "--sizes", "1..6..2", "--ks", "5", "--seed", 9,
                       "--out", out) == 0
            header, rows = read_csv(out)
            outs.append([r[:-1] for r in rows])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("out, first, mean", [
        ("out.csv", "out_s000.csv", "out_mean.csv"),
        ("out", "out_s000.csv", "out_mean.csv"),
        ("a.b.csv", "a.b_s000.csv", "a.b_mean.csv"),
        ("run.1/sweep", "run.1/sweep_s000.csv", "run.1/sweep_mean.csv"),
        (".hidden", ".hidden_s000.csv", ".hidden_mean.csv"),
    ], ids=["csv", "no_suffix", "dotted_stem", "dotted_directory", "hidden_file"])
    def test_sample_paths_split_the_suffix_of_the_file_name(self, out, first, mean):
        assert cli._sample_paths(out, 2) == [first, first.replace("_s000", "_s001"), mean]


class TestPolicyFlag:
    """--policy reaches the library: trace and sweep rows are its error traces under it."""

    KS = [0, 3, 5, 20]

    @pytest.mark.parametrize("policy", ["cond", "always"])
    def test_rows_match_the_library_under_the_policy(self, tmp_path, policy):
        # Size 1 has step matrix [[1.187]]: its approximations grow past 1-norm 2 by step 4.
        p = StochasticMatrix(np.array([[0.0, 1.0], [0.0, 1.0]]))
        p0 = Distribution(np.array([0.36, 0.64]))
        save_matrix(p, tmp_path / "chain.mtx")
        save_distribution(p0, tmp_path / "p0.csv")
        p = load_matrix(tmp_path / "chain.mtx")
        common = ["--input", tmp_path / "chain.mtx", "--p0", f"file:{tmp_path / 'p0.csv'}",
                  "--ks", ",".join(map(str, self.KS)), "--policy", policy]
        assert run("trace", *common, "--size", 1, "--out", tmp_path / "tr.csv") == 0
        assert run("sweep", *common, "--sizes", "1,2", "--out", tmp_path / "sw.csv") == 0

        pol = parse_policy(policy)
        trace = error_trace(p, p0, pipeline_naive(p, p0, 1), self.KS, policy=pol)
        assert read_csv(tmp_path / "tr.csv")[1] == [
            [str(k), *(cli.FLOAT_FORMAT % x for x in row)] for k, *row in zip(
                self.KS, trace.errors, trace.bound_specific, trace.bound_general)]
        sizes = [error_trace(p, p0, pipeline_schur(p, p0, j), self.KS, policy=pol) for j in (1, 2)]
        assert [row[:-1] for row in read_csv(tmp_path / "sw.csv")[1]] == [
            [str(j), *(cli.FLOAT_FORMAT % x for x in (t.static_error, t.criterion, *t.errors))]
            for j, t in zip((1, 2), sizes)]
        # The policy rescales: the rows differ from --policy never's.
        assert not np.array_equal(trace.errors, error_trace(
            p, p0, pipeline_naive(p, p0, 1), self.KS, policy=NEVER).errors)


def two_three_cycles():
    """A 6-state chain of two 3-cycles: every Krylov basis deflates at size 3."""
    return StochasticMatrix(np.eye(6)[[1, 2, 0, 4, 5, 3]])


class TestRunnerMatchesLibrary:
    """trace and sweep write what the per-size library calls give, sample by sample."""

    SEED, KS, TRACE_SIZE = 21, [0, 3, 8], 5

    @staticmethod
    def expected_files(stem, header, rows_by_sample):
        """File texts of one run, wall_time cut: one file, or ``_s###`` files plus ``_mean``."""

        def text(rows):
            body = [",".join([r[0]] + ["%.17g" % x for x in r[1:]]) for r in rows]
            return "\n".join([header] + body) + "\n"

        if len(rows_by_sample) == 1:
            return {f"{stem}.csv": text(rows_by_sample[0])}
        texts = {f"{stem}_s{i:03d}.csv": text(rows) for i, rows in enumerate(rows_by_sample)}
        means = [[rows[0][0], *np.mean([r[1:] for r in rows], axis=0)]
                 for rows in zip(*rows_by_sample)]
        texts[f"{stem}_mean.csv"] = text(means)
        return texts

    def library_trace(self, p, p0, method):
        agg = pipeline_naive(p, p0, self.TRACE_SIZE, method=method)
        return error_trace(p, p0, agg, self.KS)

    def library_sweep_rows(self, p, p0, method, sizes, complex_size):
        rows = []
        for j in sizes:
            agg = pipeline_naive(p, p0, j, method=method)
            if agg.size == complex_size:
                trace = error_trace(p, p0, agg, self.KS)
                criterion = np.nan
            else:
                trace = error_trace(p, p0, pipeline_schur(p, p0, j, method=method), self.KS)
                criterion = trace.criterion
            rows.append([str(j), trace.static_error, criterion, *trace.errors])
        return rows

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("method", ["cgs", "mgs2"])
    def test_files_match_per_size_library_path(self, tmp_path, monkeypatch, method, samples):
        self.check_files(tmp_path, monkeypatch, method, samples,
                         random_chain(14, density=0.6, seed=5), [2, 5, 8, 11], 8)

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("method", ["cgs", "mgs2"])
    def test_deflating_chain_files_match_per_size_library_path(self, tmp_path, monkeypatch,
                                                               method, samples):
        # The basis deflates at size 3, below the largest size; the forced
        # complex size is the deflated aggregation that sizes 4 and 6 both get.
        self.check_files(tmp_path, monkeypatch, method, samples,
                         two_three_cycles(), [2, 4, 6], 3)

    def check_files(self, tmp_path, monkeypatch, method, samples, chain_matrix, sizes,
                    complex_size):
        chain = tmp_path / "chain.mtx"
        save_matrix(chain_matrix, chain)
        p = load_matrix(chain)
        starts = [Distribution.random(p.n, seed=[self.SEED, i]) for i in range(samples)]
        m = parse_method(method)
        common = ["--input", chain, "--p0", "random", "--method", method,
                  "--ks", ",".join(map(str, self.KS)), "--samples", samples,
                  "--seed", self.SEED]
        complex_at(monkeypatch, complex_size)
        assert run("trace", *common, "--size", self.TRACE_SIZE, "--out", tmp_path / "tr.csv") == 0
        assert run("sweep", *common, "--sizes", ",".join(map(str, sizes)),
                   "--out", tmp_path / "sw.csv") == 0

        traces = [self.library_trace(p, p0, m) for p0 in starts]
        trace_rows = [
            [[str(k), *cols] for k, *cols in zip(
                t.steps, t.errors, t.bound_specific, t.bound_general)]
            for t in traces
        ]
        sweep_header = "j,static_error,criterion," \
            + ",".join(f"e_k_{k}" for k in self.KS) + ",wall_time"
        expected = {
            **self.expected_files("tr", "k,e_k,bound_specific,bound_general", trace_rows),
            **self.expected_files("sw", sweep_header, [
                self.library_sweep_rows(p, p0, m, sizes, complex_size) for p0 in starts]),
        }
        assert {f.name for f in tmp_path.glob("*.csv")} == set(expected)
        for name, text in expected.items():
            assert without_wall_time(tmp_path / name) == text, name


class TestBench:
    def test_rows_and_modes(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("bench", "--n", 60, "--density", 0.1, "--sizes", "1,8",
                   "--reps", 2, "--warmup", 1, "--trace-k", 10, "--seed", 0,
                   "--out", out) == 0
        header, rows = read_csv(out)
        assert header == ["n", "j", "mode", "reps", "median_seconds"]
        modes = {r[2] for r in rows}
        assert modes == {"arnoldi", "arnoldi+schur", "arnoldi+schur+trace"}
        assert len(rows) == 6
        assert all(float(r[4]) > 0 for r in rows)

    def test_schur_mode_is_slower(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("bench", "--n", 300, "--density", 0.05, "--sizes", "150",
                   "--reps", 3, "--warmup", 1, "--seed", 1, "--out", out) == 0
        _, rows = read_csv(out)
        time_of = {r[2]: float(r[4]) for r in rows}
        assert time_of["arnoldi+schur"] > time_of["arnoldi"]

    def test_warmup_must_be_positive(self, tmp_path):
        assert run("bench", "--sizes", "4", "--n", 20, "--warmup", 0,
                   "--out", tmp_path / "x.csv") == 2

    def test_reps_must_be_positive(self, tmp_path):
        assert run("bench", "--sizes", "4", "--n", 20, "--reps", 0,
                   "--out", tmp_path / "x.csv") == 2

    def test_negative_trace_k_exits_2_before_any_timing(self, tmp_path, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("a mode was timed before --trace-k was checked")

        monkeypatch.setattr(cli, "pipeline_naive", unexpected)
        assert run("bench", "--sizes", "4", "--n", 20, "--trace-k", -1,
                   "--out", tmp_path / "x.csv") == 2
        assert "trace-k" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_size_above_n_exits_2_before_any_timing(self, tmp_path, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("a mode was timed before the sizes were checked against n")

        monkeypatch.setattr(cli, "pipeline_naive", unexpected)
        monkeypatch.setattr(cli, "pipeline_schur", unexpected)
        assert run("bench", "--n", 20, "--sizes", "1,21", "--out", tmp_path / "x.csv") == 2
        assert "error: size 21 outside 1..20" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_p0_file_exits_2(self, tmp_path):
        assert run("bench", "--sizes", "2", "--n", 20, "--reps", 1,
                   "--p0", f"file:{tmp_path / 'missing.csv'}", "--out", tmp_path / "x.csv") == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("p0_args, want", [
        (["--p0", "uniform"], Distribution.uniform(20)),
        ([], Distribution.random(20, seed=3)),
    ], ids=["uniform", "default_random"])
    def test_p0_reaches_the_pipeline(self, tmp_path, monkeypatch, p0_args, want):
        seen = []

        def recording(chain, p0, size, method):
            seen.append(p0)
            return pipeline_naive(chain, p0, size, method=method)

        monkeypatch.setattr(cli, "pipeline_naive", recording)
        assert run("bench", "--sizes", "2", "--n", 20, "--reps", 1, "--seed", 3, *p0_args,
                   "--out", tmp_path / "x.csv") == 0
        assert seen and all(np.array_equal(p0.values, want.values) for p0 in seen)
