import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from arnagg.errors import (
    DimensionMismatch,
    GammaTooSmall,
    GeneratorRowSumViolation,
    InputError,
    NegativeEntry,
    ParseError,
    RowSumViolation,
    ShapeError,
)
from arnagg.mchain import (
    FLOAT_FORMAT,
    GENERATOR_TOL,
    STOCHASTIC_TOL,
    Distribution,
    GeneratorMatrix,
    StochasticMatrix,
    _checkpoint_walk,
    _parse_matrixmarket,
    as_vector,
    inf_norm,
    load_distribution,
    load_matrix,
    save_distribution,
    save_matrix,
    transient,
    uniformize,
    weighted_abs_row_sums,
)
from arnagg.models import counterexample, random_chain, random_ncd

from oracles import dense_validation_verdict, stream_parse_matrixmarket, transient_by_power


class TestValidateStochastic:
    def test_identity_is_stochastic(self):
        m = StochasticMatrix(np.eye(3), tol=1e-12)
        assert m.n == 3
        assert np.array_equal(m.toarray(), np.eye(3))

    def test_coupled_three_state_chain_is_stochastic(self):
        eps = 0.1
        p = np.array([[1 - eps, eps, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        m = StochasticMatrix(p)
        assert np.array_equal(m.toarray(), p)

    def test_row_sum_violation_reports_row_and_sum(self):
        with pytest.raises(RowSumViolation) as err:
            StochasticMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
        assert err.value.row == 0
        assert err.value.row_sum == pytest.approx(1.1)

    def test_negative_entry_beyond_tolerance(self):
        p = np.array([[1.1, -0.1], [0.0, 1.0]])
        with pytest.raises(NegativeEntry) as err:
            StochasticMatrix(p)
        assert (err.value.row, err.value.col) == (0, 1)

    def test_tiny_negative_entries_are_clamped(self):
        p = np.array([[1.0 + 5e-13, -5e-13], [0.0, 1.0]])
        m = StochasticMatrix(p)
        assert m.toarray()[0, 1] == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            StochasticMatrix(np.ones((2, 3)) / 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.array([[0.5, 0.5], [bad, 1.0]])
        for storage in (m, sp.csr_array(m)):
            with pytest.raises(InputError, match=r"entry \(1, 0\)"):
                StochasticMatrix(storage)

    def test_sparse_input_validated_and_kept_sparse(self):
        p = sp.csr_array(np.array([[0.5, 0.5], [1.0, 0.0]]))
        m = StochasticMatrix(p)
        assert m.is_sparse
        with pytest.raises(RowSumViolation):
            StochasticMatrix(sp.csr_array(np.array([[0.5, 0.4], [1.0, 0.0]])))

    def test_first_negative_entry_in_row_major_order_is_reported(self):
        p = np.array([[1.2, -0.05, -0.15], [0.0, 1.0, 0.0], [-0.5, 0.5, 1.0]])
        for storage in (p, sp.csr_array(p)):
            with pytest.raises(NegativeEntry) as err:
                StochasticMatrix(storage)
            assert (err.value.row, err.value.col, err.value.value) == (0, 1, -0.05)

    def test_sparse_duplicate_entries_are_summed_before_any_check(self):
        # Row 0 stores (0, 1) twice, as -1 and 2: the matrix is [[0, 1], [1, 0]].
        p = sp.csr_array((np.array([-1.0, 2.0, 1.0]), np.array([1, 1, 0]),
                          np.array([0, 2, 3])), shape=(2, 2))
        m = StochasticMatrix(p)
        assert m.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert m.raw.nnz == 2

    @pytest.mark.parametrize("fmt, want", [
        (sp.csr_matrix, sp.csr_matrix), (sp.coo_matrix, sp.csr_matrix), (sp.csc_array, sp.csr_array),
    ], ids=["csr_matrix", "coo_matrix", "csc_array"])
    def test_raw_keeps_the_callers_scipy_api(self, fmt, want):
        assert type(StochasticMatrix(fmt(np.eye(2))).raw) is want
        assert type(GeneratorMatrix(fmt(np.array([[-1.0, 1.0], [1.0, -1.0]]))).raw) is want

    def test_sparse_input_is_stored_as_float_like_dense_input(self):
        p = np.array([[0.5 + 1j, 0.5 - 1j], [0.0, 1.0]])
        for storage in (np.eye(2, dtype=int), sp.csr_array(np.eye(2, dtype=int))):
            assert StochasticMatrix(storage).raw.dtype == np.float64
        with pytest.warns(RuntimeWarning, match="imaginary"):
            dense = StochasticMatrix(p).toarray()
        with pytest.warns(RuntimeWarning, match="imaginary"):
            sparse = StochasticMatrix(sp.csr_array(p)).toarray()
        assert sparse.dtype == np.float64 and np.array_equal(sparse, dense)


class TestUniformize:
    def test_explicit_gamma(self):
        q = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        p = uniformize(q, gamma=2.0)
        assert np.allclose(p.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_zero_generator_gives_identity(self):
        p = uniformize(GeneratorMatrix(np.zeros((4, 4))))
        assert np.array_equal(p.toarray(), np.eye(4))

    def test_default_gamma_is_max_diagonal_magnitude(self):
        q = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        p = uniformize(q)
        assert np.allclose(p.toarray(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_gamma_too_small(self):
        q = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(GammaTooSmall):
            uniformize(q, gamma=0.5)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        q = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(InputError, match="finite"):
            uniformize(q, gamma=gamma)

    def test_sparse_generator(self):
        q = GeneratorMatrix(sp.csr_array(np.array([[-2.0, 2.0], [0.0, 0.0]])))
        p = uniformize(q)
        assert p.is_sparse
        assert np.allclose(p.toarray(), [[0.0, 1.0], [0.0, 1.0]])

    def test_row_sums_one_for_random_generators(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            off = rng.random((n, n)) * (1 - np.eye(n))
            q = off - np.diag(off.sum(axis=1))
            p = uniformize(GeneratorMatrix(q), gamma=float(rng.uniform(1, 3)) * n)
            assert np.max(np.abs(p.toarray().sum(axis=1) - 1.0)) <= 1e-12


class TestValidateGenerator:
    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(NegativeEntry):
            GeneratorMatrix(np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_nonzero_row_sum_rejected(self):
        with pytest.raises(GeneratorRowSumViolation) as err:
            GeneratorMatrix(np.array([[-1.0, 2.0], [0.0, 0.0]]))
        assert err.value.row == 0

    def test_non_finite_entry_rejected(self):
        q = np.array([[-1.0, 1.0], [np.nan, 0.0]])
        for storage in (q, sp.csr_array(q)):
            with pytest.raises(InputError, match="not finite"):
                GeneratorMatrix(storage)

    def test_sparse_validation_does_not_densify(self, monkeypatch):
        n = 2000
        up, down = np.full(n - 1, 2.0), np.full(n - 1, 1.0)
        diag = -np.concatenate([up, [0.0]]) - np.concatenate([[0.0], down])
        q = sp.diags_array([down, diag, up], offsets=[-1, 0, 1], format="csr")

        def densify(*args, **kwargs):
            raise AssertionError("sparse generator was densified")

        monkeypatch.setattr(type(q), "toarray", densify)
        monkeypatch.setattr(type(q), "todense", densify)
        gen = GeneratorMatrix(q)
        assert gen.is_sparse and gen.max_diag_magnitude == 3.0
        assert uniformize(gen).is_sparse

    @pytest.mark.parametrize("q, error, fields, expected", [
        ([[-1.0, 1.0, 0.0], [0.5, 0.0, -0.5], [0.0, -2.0, 2.0]], NegativeEntry,
         ("row", "col", "value"), (1, 2, -0.5)),
        ([[-1.0, 1.0, 0.0], [0.25, -0.25, 0.0], [0.5, 0.0, 0.0]], GeneratorRowSumViolation,
         ("row", "row_sum"), (2, 0.5)),
    ], ids=["negative_entry", "row_sum"])
    def test_sparse_and_dense_raise_the_same_error(self, q, error, fields, expected):
        for storage in (np.array(q), sp.csr_array(np.array(q))):
            with pytest.raises(error) as err:
                GeneratorMatrix(storage)
            assert tuple(getattr(err.value, f) for f in fields) == expected

    @pytest.mark.parametrize("fmt", [sp.coo_array, sp.csc_array, sp.csr_array],
                             ids=["coo", "csc", "csr"])
    def test_sparse_generator_stored_as_csr(self, fmt):
        q = np.array([[-2.0, 1.5, 0.5], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
        gen = GeneratorMatrix(fmt(q))
        assert isinstance(gen.raw, sp.csr_array)
        want = uniformize(GeneratorMatrix(sp.csr_array(q)))
        assert np.array_equal(uniformize(gen).toarray(), want.toarray())

    def test_sparse_duplicate_entries_are_summed(self):
        # Row 0 stores (0, 1) twice, as -1 and 2: the matrix entry is 1.
        q = sp.csr_array((np.array([-1.0, -1.0, 2.0, 0.0]), np.array([0, 1, 1, 1]),
                          np.array([0, 3, 4])), shape=(2, 2))
        assert GeneratorMatrix(q).toarray().tolist() == [[-1.0, 1.0], [0.0, 0.0]]

    def test_sparse_input_is_copied(self):
        q = sp.csr_array(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        gen = GeneratorMatrix(q)
        q.data[:] = 7.0
        assert gen.toarray().tolist() == [[-1.0, 1.0], [1.0, -1.0]]


@st.composite
def validation_cases(draw):
    """A transition or generator matrix of 1 to 5 states, with up to three faults.

    Faults: an entry set below -tol, an entry set inside ``(-tol, 0)`` with
    its row sum kept, a non-finite entry, and a shifted entry that breaks a
    row sum.  Returns the dense matrix, whether it is a generator, and tol.
    """
    n = draw(st.integers(1, 5))
    generator = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    if generator:
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
    else:
        m[:, 0] += m.sum(axis=1) == 0.0
        m /= m.sum(axis=1, keepdims=True)
    tol = GENERATOR_TOL if generator else STOCHASTIC_TOL
    faults = st.sampled_from(["negative", "small_negative", "non_finite", "row_sum"])
    for fault in draw(st.lists(faults, max_size=3)):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if fault == "negative":
            m[i, j] = -draw(st.sampled_from([0.05, 0.5, 3.0]))
        elif fault == "small_negative":
            m[i, i] += m[i, j] + tol / 2
            m[i, j] = -tol / 2
        elif fault == "non_finite":
            m[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        else:
            m[i, j] += draw(st.sampled_from([1e-9, 0.1, -0.1]))
    return m, generator, tol


def duplicate_split_coo(m):
    """COO form of ``m`` that stores each finite nonzero x twice, as 2x and -x."""
    coo = sp.coo_array(m)
    finite = np.isfinite(coo.data)
    data = np.concatenate([np.where(finite, 2.0 * coo.data, coo.data), -coo.data[finite]])
    index = (np.concatenate([coo.row, coo.row[finite]]), np.concatenate([coo.col, coo.col[finite]]))
    return sp.coo_array((data, index), shape=m.shape)


class TestValidationAcrossStorages:
    @settings(max_examples=300)
    @given(validation_cases())
    def test_every_storage_gets_the_dense_reference_verdict(self, case):
        m, generator, tol = case
        error, expected = dense_validation_verdict(m, tol, generator)
        validate = GeneratorMatrix if generator else StochasticMatrix
        storages = (m, sp.csr_array(m), sp.csc_array(m), sp.coo_array(m), duplicate_split_coo(m))
        for storage in storages:
            if error is None:
                assert np.array_equal(validate(storage, tol=tol).toarray(), expected)
                continue
            with pytest.raises(InputError) as err:
                validate(storage, tol=tol)
            assert type(err.value) is error
            if error is InputError:
                i, j, x = expected
                assert str(err.value) == f"entry ({i}, {j}) is {float(x)!r}, not finite"
            elif error is NegativeEntry:
                assert (err.value.row, err.value.col, err.value.value) == expected
            else:
                assert err.value.row == expected[0]
                assert err.value.row_sum == pytest.approx(expected[1], rel=1e-12, abs=1e-15)


class TestTransient:
    def test_identity_chain_is_a_fixpoint(self):
        p = StochasticMatrix(np.eye(5))
        d = Distribution.random(5, seed=3)
        out = transient(p, d, 17)
        assert np.array_equal(out.values, d.values)

    def test_counterexample_first_step(self):
        p, p0 = counterexample(0.5)
        out = transient(p, p0, 1)
        assert np.allclose(out.values, [0.0, 1.0, 0.0], atol=1e-15)

    def test_matches_matrix_power_oracle(self):
        p = random_chain(8, 1.0, seed=11)
        d = Distribution.random(8, seed=12)
        expected = transient_by_power(p.toarray(), d.values, 5)
        got = transient(p, d, 5)
        assert np.abs(got.values - expected).max() <= 1e-13

    def test_dimension_mismatch(self):
        p = StochasticMatrix(np.eye(3))
        with pytest.raises(DimensionMismatch):
            transient(p, Distribution.uniform(4), 1)

    def test_negative_step_count_rejected(self):
        p = StochasticMatrix(np.eye(3))
        with pytest.raises(InputError):
            transient(p, Distribution.uniform(3), -1)

    @pytest.mark.parametrize("k", [2.5, np.nan, "3"], ids=["fraction", "nan", "string"])
    def test_step_count_must_be_an_integer(self, k):
        p = StochasticMatrix(np.eye(3))
        with pytest.raises(InputError, match="^step count must be an integer, got "):
            transient(p, Distribution.uniform(3), k)

    @pytest.mark.parametrize("p0", [
        Distribution(np.array([np.nan, 1.0, 0.0, 0.0]), strict=False),
        np.array([np.inf, 0.0, 1.0, 0.0]),
    ], ids=["nan_non_strict", "inf_array"])
    def test_non_finite_start_vector_rejected(self, p0):
        p = random_chain(4, 1.0, seed=1)
        with pytest.raises(InputError, match="^start vector has non-finite entries$"):
            transient(p, p0, 3)

    def test_checkpoint_walk_yields_transient_at_each_step_count(self):
        p = random_chain(30, 0.3, seed=13, sparse=True)
        d = Distribution.random(30, seed=14)
        ks = [0, 1, 7, 20]
        walked = [v.copy() for v in _checkpoint_walk(p, d, ks)]
        for k, v in zip(ks, walked):
            assert np.array_equal(v, transient(p, d, k).values)
        assert np.array_equal(d.values, Distribution.random(30, seed=14).values)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_checkpoint_walk_vectors_stay_valid_as_the_walk_moves_on(self, sparse):
        p = random_chain(12, 0.4, seed=15, sparse=sparse)
        d = Distribution.random(12, seed=16)
        ks = [1, 3, 4]
        walked = list(_checkpoint_walk(p, d, ks))
        for k, v in zip(ks, walked):
            assert np.array_equal(v, transient(p, d, k).values)

    def test_one_step_of_strict_distribution_stays_strict(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            p = random_chain(n, float(rng.uniform(0.2, 1.0)), seed=int(rng.integers(2**63)))
            d = Distribution.random(n, seed=int(rng.integers(2**63)))
            out = transient(p, d, 1)
            assert out.strict
            assert out.values.min() >= -1e-12
            assert abs(out.values.sum() - 1.0) <= 1e-12


class TestNorms:
    def test_stochastic_matrix_has_unit_norm(self):
        p = random_chain(12, 0.5, seed=2)
        assert inf_norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_small_example(self):
        assert inf_norm(np.array([[1.0, -2.0], [0.0, 3.0]])) == 3.0

    def test_zero_matrix(self):
        assert inf_norm(np.zeros((3, 3))) == 0.0

    def test_weighted_abs_row_sums_selects_single_row(self):
        m = np.array([[1.0, -2.0], [0.0, 3.0]])
        assert weighted_abs_row_sums(np.array([1.0, 0.0]), m) == 3.0
        assert weighted_abs_row_sums(np.array([1.0, 1.0]), m) == 6.0

    def test_weighted_abs_row_sums_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_abs_row_sums(np.ones(3), np.eye(2))

    def test_sandwich_between_one_norm_and_inf_norm(self, rng):
        # norm1(v @ M) <= <|v|, |M| 1> <= norm1(v) * inf_norm(M)
        for _ in range(50):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            v = rng.standard_normal(n)
            mat = rng.standard_normal((n, m))
            mid = weighted_abs_row_sums(v, mat)
            low = np.abs(v @ mat).sum()
            high = np.abs(v).sum() * inf_norm(mat)
            assert low <= mid + 1e-12
            assert mid <= high + 1e-12


class TestStorageEquivalence:
    def test_dense_and_sparse_products_agree(self, rng):
        for n in (5, 40, 200):
            p = random_chain(n, 0.3, seed=n)
            dense = StochasticMatrix(p.toarray())
            sparse = StochasticMatrix(sp.csr_array(p.raw))
            for _ in range(5):
                v = rng.standard_normal(n)
                a, b = dense.vec_mul(v), sparse.vec_mul(v)
                scale = max(np.abs(a).max(), 1e-300)
                assert np.abs(a - b).max() <= 1e-14 * scale
                assert np.array_equal(a, v @ dense.raw)
                assert np.array_equal(b, sparse.raw.T @ v)
                assert not np.shares_memory(a, v) and not np.shares_memory(b, v)

    def test_mat_mul_agrees(self, rng):
        p = random_chain(30, 0.4, seed=5)
        a = rng.standard_normal((4, 30))
        assert np.allclose(a @ StochasticMatrix(sp.csr_array(p.raw)).raw, a @ p.toarray(),
                           atol=1e-14)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_products_reject_the_wrong_length(self, sparse):
        p = random_chain(3, 1.0, seed=4, sparse=sparse)
        with pytest.raises(DimensionMismatch, match="^vector of length 4 against 3 states$"):
            p.vec_mul(np.ones(4))
        with pytest.raises(DimensionMismatch, match="^matrix with 4 columns against 3 states$"):
            p.mat_mul(np.ones((2, 4)))

    def test_rmatmul_sugar(self):
        # No ``v @ p`` sugar: an ndarray operand raises, never an object array.
        v = np.array([0.2, 0.3, 0.5])
        for p in (StochasticMatrix(np.eye(3)), StochasticMatrix(sp.eye_array(3).tocsr())):
            with pytest.raises(TypeError):
                v @ p
            with pytest.raises(TypeError):
                v * p
            with pytest.raises(TypeError):
                np.ones((2, 3)) @ p


@st.composite
def chains(draw):
    """Dense or CSR chains: random ones of any density, or nearly decoupled ones."""
    seed = draw(st.integers(0, 2**32 - 1))
    sparse = draw(st.booleans())
    if draw(st.booleans()):
        return random_chain(draw(st.integers(1, 30)), draw(st.floats(0.01, 1.0)),
                            seed=seed, sparse=sparse)
    p = random_ncd(draw(st.integers(1, 4)), draw(st.integers(1, 6)),
                   draw(st.sampled_from([1e-2, 1e-4, 1e-8])), seed=seed)
    return StochasticMatrix(sp.csr_array(p.raw)) if sparse else p


class TestMatrixIO:
    def test_matrixmarket_round_trip_is_bit_identical(self, tmp_path):
        p, _ = counterexample(0.1)
        path = tmp_path / "p.mtx"
        save_matrix(p, path)
        again = load_matrix(path)
        assert np.array_equal(again.toarray(), p.toarray())

    @settings(max_examples=60)
    @given(chains(), st.sampled_from(["mtx", "csv"]))
    def test_save_load_round_trips_generated_chains(self, tmp_path_factory, p, suffix):
        path = tmp_path_factory.mktemp("round_trip") / f"p.{suffix}"
        save_matrix(p, path)
        again = load_matrix(path)
        assert again.is_sparse == (suffix == "mtx")
        assert again.toarray().tobytes() == p.toarray().tobytes()

    def test_csv_round_trip_is_bit_identical(self, tmp_path):
        p = random_chain(7, 0.5, seed=19)
        path = tmp_path / "p.csv"
        save_matrix(p, path)
        again = load_matrix(path)
        assert np.array_equal(again.toarray(), p.toarray())

    def test_malformed_header_is_parse_error_line_1(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1 1\n1 1 1.0\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert err.value.line == 1

    def test_entry_outside_declared_shape_is_shape_error(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 1\n3 4 1.0\n"
        )
        with pytest.raises(ShapeError):
            load_matrix(path)

    @pytest.mark.parametrize("declared", [1, 3], ids=["more_than_declared", "fewer_than_declared"])
    def test_entry_count_must_match_declared_nnz(self, tmp_path, declared):
        path = tmp_path / "bad.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n2 2 {declared}\n1 1 1.0\n2 2 1.0\n"
        )
        with pytest.raises(ShapeError, match=f"declares {declared} entries, file has 2"):
            load_matrix(path)

    def test_ragged_csv_is_shape_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0\n0.5\n")
        with pytest.raises(ShapeError):
            load_matrix(path)

    def test_malformed_csv_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0\n0.5,oops\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line", [
        ("1_0,0\n0,1\n", 1),
        ("0,1\n\u0661,0\n", 2),
        ("0.5,0.5\n0.5,0.5,\n", 2),
        ("\n  \n0.5,0.5\n\t \n\n0.5,x\n", 6),
    ], ids=["digit_separator", "non_ascii_digit", "trailing_comma", "blank_lines_before"])
    def test_csv_value_outside_numpy_grammar_is_parse_error_at_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_matrix(path, kind="raw")
        assert err.value.line == line

    def test_ragged_csv_row_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n\n   \n0.5,0.25,0.25\n")
        with pytest.raises(ShapeError, match="row 4 has 3 columns"):
            load_matrix(path)

    def test_csv_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\n 0.5, 0.5\n \t\n\n0.25,0.75\n  \n")
        assert np.array_equal(load_matrix(path).toarray(), [[0.5, 0.5], [0.25, 0.75]])

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n"], ids=["empty", "blank", "whitespace"])
    def test_csv_without_rows_is_parse_error_line_1(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="empty file") as err:
            load_matrix(path)
        assert err.value.line == 1

    def test_unknown_kind_is_rejected_before_the_file_is_read(self, tmp_path):
        with pytest.raises(InputError, match="^unknown matrix kind 'bogus'$"):
            load_matrix(tmp_path / "missing.mtx", kind="bogus")

    def test_path_without_a_known_suffix_is_rejected(self, tmp_path):
        with pytest.raises(InputError, match="cannot infer format"):
            load_matrix(tmp_path / "p.txt")

    def test_load_as_generator_and_raw(self, tmp_path):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        path = tmp_path / "q.mtx"
        save_matrix(q, path)
        gen = load_matrix(path, kind="generator")
        assert isinstance(gen, GeneratorMatrix)
        raw = load_matrix(path, kind="raw")
        assert np.array_equal(np.asarray(raw.todense()), q)

    def test_duplicate_entries_accumulate(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 0.5\n1 1 0.5\n2 2 1.0\n"
        )
        m = load_matrix(path)
        assert np.array_equal(m.toarray(), np.eye(2))

    def test_distribution_round_trip(self, tmp_path):
        d = Distribution.random(9, seed=4)
        path = tmp_path / "d.csv"
        save_distribution(d, path)
        again = load_distribution(path)
        assert np.array_equal(again.values, d.values)

    def test_multi_column_distribution_is_shape_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,0.5\n0.25,0.75\n")
        with pytest.raises(ShapeError, match="2 columns, expected 1"):
            load_distribution(path)


MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def mm_file(tmp_path, *lines):
    path = tmp_path / "m.mtx"
    path.write_text("\n".join((MM_HEADER,) + lines) + "\n")
    return path


@st.composite
def mutated_mm_files(draw):
    """A valid Matrix Market file with up to two faults and any neutral edits.

    Returns the file's lines, the number of faults applied, and whether a
    full-line comment follows the size line.  Faults: a dropped or added
    field, a corrupted token, a surplus or missing entry line, an index out
    of range.  Neutral edits: blank lines, and comment lines, which are
    neutral only before the size line.
    """
    m, n, count = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 5))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(lambda x: FLOAT_FORMAT % x),
        st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
        st.integers(-3, 3).map(str),
    )

    def entry():
        return [str(draw(st.integers(1, m))), str(draw(st.integers(1, n))), draw(value)]

    lines = [MM_HEADER.split()] + [["%", "comment"]] * draw(st.integers(0, 2))
    size_at = len(lines)
    lines += [[str(m), str(n), str(count)]] + [entry() for _ in range(count)]
    faults = 0
    for kind in draw(st.lists(st.sampled_from(
            ["drop", "add", "corrupt", "surplus", "missing", "range", "blank", "comment"]), max_size=4)):
        if kind in ("blank", "comment"):
            at = draw(st.integers(1, len(lines)))
            lines.insert(at, [] if kind == "blank" else ["%"] + draw(st.lists(st.sampled_from("ab1"), max_size=3)))
            size_at += at <= size_at
            continue
        entries = [k for k in range(size_at + 1, len(lines)) if lines[k][:1] not in ([], ["%"])]
        if faults == 2 or (kind in ("missing", "range") and not entries):
            continue
        faults += 1
        if kind == "surplus":
            lines.insert(draw(st.integers(size_at + 1, len(lines))), entry())
        elif kind == "missing":
            del lines[draw(st.sampled_from(entries))]
        elif kind == "range":
            line, axis = lines[draw(st.sampled_from(entries))], draw(st.integers(0, 1))
            line[axis] = str(draw(st.one_of(st.integers(-5, 0), st.integers((m, n)[axis] + 1, 9))))
        else:
            line = lines[draw(st.sampled_from([size_at] + entries))]
            at = draw(st.integers(0, len(line) - (kind != "add")))
            if kind == "drop":
                del line[at]
            elif kind == "add":
                line.insert(at, draw(value))
            else:
                line[at] = draw(st.text("0123456789.+-eEax", min_size=1, max_size=4))
    comment_in_entries = any(line[:1] == ["%"] for line in lines[size_at + 1:])
    return [" ".join(line) for line in lines], faults, comment_in_entries


class TestMatrixMarketReader:
    @pytest.mark.parametrize("entry", [
        "2 2 0.5 7", "2 2", "1 1 abc",
        "1.5 1 1.0", "1 1 1.5xyz", "1 1 0x1p0",
        "1 1 1e", "1 1 1.0 % x",
    ])
    def test_malformed_entry_is_parse_error_at_section_start(self, tmp_path, entry):
        path = mm_file(tmp_path, "% comment", "2 2 2", "1 2 0.5", entry)
        with pytest.raises(ParseError, match="row") as err:
            load_matrix(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("entry", ["1 1 abc", "2 2 0.5 7", "2 2"])
    def test_malformed_entry_is_named_by_its_entry_number(self, tmp_path, entry):
        path = mm_file(tmp_path, "2 2 2", "1 2 0.5", "", entry)
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert f"entry 2 '{entry}'" in str(err.value)
        assert "usecols" not in str(err.value) and err.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty file"),
        (f"{MM_HEADER}\n% comment\n2 -2 0\n", 3, "negative size '2 -2 0'"),
        (f"{MM_HEADER}\n% only comments\n\n", 3, "missing size line"),
    ], ids=["empty_file", "negative_size", "no_size_line"])
    def test_bad_or_missing_size_line_is_parse_error(self, tmp_path, text, line, message):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            load_matrix(path)
        assert err.value.line == line

    def test_first_entry_outside_shape_is_reported(self, tmp_path):
        path = mm_file(tmp_path, "2 3 4", "1 1 1.0", "1 4 1.0", "0 1 1.0", "2 2 1.0")
        with pytest.raises(ShapeError, match=r"entry \(1, 4\) outside declared 2x3 shape"):
            load_matrix(path)

    def test_blank_lines_between_entries_are_skipped(self, tmp_path):
        path = mm_file(tmp_path, "", "2 2 2", "1 1 1.0", "", "  ", "2 2 1.0", "")
        assert np.array_equal(load_matrix(path).toarray(), np.eye(2))

    def test_empty_entry_section_loads_without_warning(self, tmp_path):
        path = mm_file(tmp_path, "3 3 0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = load_matrix(path, kind="raw")
        assert sp.issparse(m) and m.format == "csr"
        assert m.shape == (3, 3) and m.nnz == 0

    def test_int_field_deprecation_is_parse_error(self, tmp_path, monkeypatch):
        # numpy releases that only warned on "1.0" in an int field truncated it.
        real = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        with pytest.raises(ParseError) as err:
            load_matrix(mm_file(tmp_path, "2 2 1", "1 1 1.0"))
        assert err.value.line == 3

    @pytest.mark.parametrize("lines, old", [
        (("2 2 2", "1 1 1.0", "% comment", "2 2 1.0"), None),
        (("2 2 1", "% comment", "1 1 1.0"), None),
        (("2 2 1", "1 1 1_0.5"), None),
        (("12 12 1", "1_0 1 1.0"), None),
        (("2 2 1", "\u0661 1 1.0"), None),
        (("2 2 1", "99999999999999999999 1 1.0"), ShapeError),
    ], ids=["comment_between_entries", "comment_after_size_line", "float_digit_separator",
            "int_digit_separator", "non_ascii_digit", "index_beyond_int64"])
    def test_contract_changes_from_the_streaming_parser(self, tmp_path, lines, old):
        path = mm_file(tmp_path, *lines)
        if old is None:
            stream_parse_matrixmarket(path)
        else:
            with pytest.raises(old):
                stream_parse_matrixmarket(path)
        with pytest.raises(ParseError) as err:
            load_matrix(path, kind="raw")
        assert err.value.line == 3

    @settings(max_examples=400)
    @given(mutated_mm_files())
    def test_agrees_with_streaming_parser(self, tmp_path_factory, case):
        text, faults, comment_in_entries = case
        path = tmp_path_factory.mktemp("mm") / "m.mtx"
        path.write_text("\n".join(text) + "\n")

        def outcome(parse):
            try:
                return parse(path)
            except (ParseError, ShapeError) as err:
                return type(err)

        new = outcome(_parse_matrixmarket)
        if comment_in_entries:
            assert new is ParseError
            return
        old = outcome(stream_parse_matrixmarket)
        assert isinstance(new, type) == isinstance(old, type)
        if isinstance(old, type):
            if faults == 1:
                assert new is old
            return
        assert new.shape == old.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDistribution:
    def test_strict_validation(self):
        with pytest.raises(InputError):
            Distribution(np.array([0.5, 0.6]))
        with pytest.raises(InputError):
            Distribution(np.array([1.5, -0.5]))
        Distribution(np.array([1.5, -0.5]), strict=False)

    def test_strict_error_names_a_plain_float(self):
        with pytest.raises(InputError, match=r"^strict distribution has entry -0\.5 < -1e-12$"):
            Distribution(np.array([1.5, -0.5]))

    def test_strict_rejects_non_finite(self):
        with pytest.raises(InputError, match="non-finite"):
            Distribution(np.array([np.nan, 1.0]))
        Distribution(np.array([np.nan, 1.0]), strict=False)

    def test_strict_rejects_empty(self):
        with pytest.raises(InputError, match="^empty distribution$"):
            Distribution(np.array([]))
        assert len(Distribution(np.array([]), strict=False)) == 0

    def test_vector_must_be_one_dimensional(self):
        with pytest.raises(DimensionMismatch, match=r"^expected a vector, got shape \(2, 2\)$"):
            as_vector(np.eye(2))
        with pytest.raises(DimensionMismatch, match="^expected a vector"):
            Distribution(np.eye(2), strict=False)

    def test_strict_sum_overflow_is_an_input_error(self):
        # The finite entries overflow their sum; numpy must not warn first.
        with pytest.raises(InputError, match=r"^strict distribution sums to inf$"):
            Distribution(np.array([1e308, 1e308, 0.0]))

    def test_constructors(self):
        assert np.array_equal(Distribution.point(3, 1).values, [0.0, 1.0, 0.0])
        assert np.allclose(Distribution.uniform(4).values, 0.25)
        a = Distribution.random(6, seed=8)
        b = Distribution.random(6, seed=8)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n, i", [(3, -1), (3, 3), (3, 5), (0, 0)])
    def test_point_index_outside_the_states(self, n, i):
        with pytest.raises(InputError, match=rf"^point index {i} outside 0\.\.{n - 1}$"):
            Distribution.point(n, i)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("make", [Distribution.uniform, Distribution.random],
                             ids=["uniform", "random"])
    def test_needs_a_state(self, make, n):
        with pytest.raises(InputError, match=rf"^need at least one state, got n={n}$"):
            make(n)
