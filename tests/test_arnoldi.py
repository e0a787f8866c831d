import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from arnagg import arnoldi
from arnagg.aggregate import pipeline_dynamic, pipeline_naive, pipeline_schur
from arnagg.arnoldi import (
    Aggregation,
    ArnoldiBuilder,
    arnoldi_iterate,
    build_aggregation,
    relation_residual,
)
from arnagg.errors import DimensionMismatch, InputError, ShapeError, ZeroInitialVector
from arnagg.mchain import Distribution, StochasticMatrix, inf_norm
from arnagg.models import counterexample, random_chain
from arnagg.orthonorm import CGS2, CGSIR, MGS2, MGSIR, VARIANTS, OrthMethod

from oracles import arnoldi_by_orthogonalize_step, transient_by_power

STABLE_METHODS = (CGS2, MGS2, CGSIR, MGSIR)


class TestArnoldiIterate:
    def test_identity_chain_deflates_immediately(self):
        p = StochasticMatrix(np.eye(6))
        p0 = Distribution.random(6, seed=1)
        f = arnoldi_iterate(p, p0, 5)
        assert f.deflated
        assert f.size == 1
        assert np.allclose(f.hessenberg, [[1.0]], atol=1e-15)
        assert np.allclose(f.basis[0], p0.values / np.linalg.norm(p0.values), atol=1e-15)
        assert f.residual_direction is None

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_counterexample_size_one(self, eps):
        p, p0 = counterexample(eps)
        f = arnoldi_iterate(p, p0, 1)
        assert np.array_equal(f.hessenberg, [[0.0]])
        assert np.array_equal(f.basis, [[0.0, 0.0, 1.0]])
        assert not f.deflated
        assert f.residual_norm == pytest.approx(1.0)

    def test_relation_holds_on_random_chain(self):
        p = random_chain(8, 1.0, seed=21)
        p0 = Distribution.random(8, seed=22)
        f = arnoldi_iterate(p, p0, 8)
        assert relation_residual(f, p) <= 1e-10
        if f.deflated:
            assert inf_norm(f.hessenberg @ f.basis - f.basis @ p.toarray()) <= 1e-9

    def test_first_basis_vector_is_normalized_start(self):
        p = random_chain(10, 0.5, seed=3)
        p0 = Distribution.random(10, seed=4)
        f = arnoldi_iterate(p, p0, 4)
        assert np.allclose(f.basis[0], p0.values / np.linalg.norm(p0.values), atol=1e-15)

    def test_zero_initial_vector(self):
        p = StochasticMatrix(np.eye(3))
        with pytest.raises(ZeroInitialVector):
            arnoldi_iterate(p, np.zeros(3), 2)

    def test_size_bounds(self):
        p = StochasticMatrix(np.eye(3))
        with pytest.raises(InputError):
            arnoldi_iterate(p, Distribution.uniform(3), 4)
        with pytest.raises(InputError):
            arnoldi_iterate(p, Distribution.uniform(3), 0)

    def test_size_must_be_an_integer(self):
        p = StochasticMatrix(np.eye(3))
        with pytest.raises(InputError, match="^target size must be an integer, got 2.5$"):
            ArnoldiBuilder(p, Distribution.uniform(3), 2.5)

    def test_dimension_mismatch(self):
        p = StochasticMatrix(np.eye(3))
        with pytest.raises(DimensionMismatch):
            arnoldi_iterate(p, Distribution.uniform(4), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        lambda p, p0: arnoldi_iterate(p, p0, 3),
        lambda p, p0: ArnoldiBuilder(p, p0, 3),
        lambda p, p0: pipeline_naive(p, p0, 3),
        lambda p, p0: pipeline_schur(p, p0, 3),
        lambda p, p0: pipeline_dynamic(p, p0, 3, 1e-8),
    ], ids=["arnoldi_iterate", "ArnoldiBuilder", "naive", "schur", "dynamic"])
    def test_non_finite_start_vector_rejected(self, entry, bad):
        p = random_chain(6, 0.5, seed=1)
        with pytest.raises(InputError, match="non-finite"):
            entry(p, np.array([bad, 0.2, 0.2, 0.2, 0.2, 0.2]))

    def test_hessenberg_zero_pattern(self):
        p = random_chain(12, 0.6, seed=7)
        f = arnoldi_iterate(p, Distribution.random(12, seed=8), 8)
        h = f.hessenberg
        for i in range(h.shape[0]):
            for l in range(i + 2, h.shape[1]):
                assert h[i, l] == 0.0

    def test_sparse_chain_matches_dense(self):
        pd = random_chain(30, 0.2, seed=31)
        ps = StochasticMatrix(sp.csr_array(pd.raw))
        p0 = Distribution.random(30, seed=32)
        fd = arnoldi_iterate(pd, p0, 10)
        fs = arnoldi_iterate(ps, p0, 10)
        assert np.abs(fd.hessenberg - fs.hessenberg).max() <= 1e-13
        assert np.abs(fd.basis - fs.basis).max() <= 1e-13

    def test_deflation_soundness(self, rng):
        # deflated=true implies the relation holds without the residual term
        for _ in range(10):
            n = int(rng.integers(4, 25))
            p = random_chain(n, 1.0, seed=int(rng.integers(2**63)))
            p0 = Distribution.random(n, seed=int(rng.integers(2**63)))
            f = arnoldi_iterate(p, p0, n)
            if f.deflated:
                bound = 1e-12 * f.size * inf_norm(p) + 1e-10
                assert relation_residual(f, p) <= bound


class TestBuilder:
    def test_incremental_matches_one_shot(self):
        p = random_chain(15, 0.4, seed=41)
        p0 = Distribution.random(15, seed=42)
        b = ArnoldiBuilder(p, p0, 6)
        while not b.done:
            b.expand()
        inc = b.snapshot()
        ref = arnoldi_iterate(p, p0, 6)
        assert np.array_equal(inc.hessenberg, ref.hessenberg)
        assert np.array_equal(inc.basis, ref.basis)
        assert inc.residual_norm == ref.residual_norm

    def test_snapshot_prefix_property(self):
        # the size-j factorization is a prefix of the size-(j+1) one, and a
        # snapshot is a read-only view that later steps leave untouched
        p = random_chain(12, 0.5, seed=51)
        p0 = Distribution.random(12, seed=52)
        b = ArnoldiBuilder(p, p0, 5)
        b.expand()
        b.expand()
        small = b.snapshot()
        arrays = (small.basis, small.hessenberg, small.residual_direction)
        before = [a.copy() for a in arrays]
        assert not any(a.flags.writeable for a in arrays)
        agg = build_aggregation(small, p0)
        assert agg.disaggregation is small.basis
        assert agg.step_matrix is small.hessenberg
        b.expand()
        big = b.snapshot()
        assert np.array_equal(big.hessenberg[:2, :2], small.hessenberg)
        assert np.array_equal(big.basis[:2], small.basis)
        assert np.shares_memory(big.basis, small.basis)
        while not b.done:
            b.expand()
        assert b.size == 5
        for a, ref in zip(arrays, before):
            assert a.tobytes() == ref.tobytes()

    def test_expand_after_done_raises(self):
        p = StochasticMatrix(np.eye(3))
        b = ArnoldiBuilder(p, Distribution.uniform(3), 2)
        b.expand()
        assert b.done  # identity deflates at once
        with pytest.raises(InputError):
            b.expand()

    def test_snapshot_before_any_step_raises(self):
        p = StochasticMatrix(np.eye(3))
        b = ArnoldiBuilder(p, Distribution.uniform(3), 2)
        with pytest.raises(InputError):
            b.snapshot()


def deflating_cycle():
    """A 3-cycle beside an absorbing block: from state 0 the basis deflates at size 3."""
    m = np.zeros((6, 6))
    m[0, 1] = m[1, 2] = m[2, 0] = 1.0
    m[3:, 3:] = 1.0 / 3.0
    return StochasticMatrix(m), Distribution.point(6, 0)


class TestExpandMatchesOrthogonalizeStep:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("chain", ["dense", "sparse", "deflating"])
    def test_basis_and_hessenberg_are_byte_equal(self, variant, chain):
        if chain == "deflating":
            p, p0 = deflating_cycle()
        else:
            p = random_chain(40, 0.2, seed=[5, 1], sparse=chain == "sparse")
            p0 = Distribution.random(p.n, seed=[5, 2])
        method = OrthMethod(variant)
        fact = arnoldi_iterate(p, p0, min(p.n, 30), method=method)
        basis, hessenberg = arnoldi_by_orthogonalize_step(p, p0.values, min(p.n, 30), method)
        assert fact.deflated == (chain == "deflating")
        assert fact.basis.shape == basis.shape
        assert fact.basis.tobytes() == basis.tobytes()
        assert fact.hessenberg.tobytes() == hessenberg.tobytes()


class TestStorageFollowsTheSizeReached:
    def test_cap_at_n_allocates_like_a_small_cap(self):
        # numpy reports its allocations to tracemalloc; storage for max_size = n
        # would take (n + 1) * n * 8 bytes, 72 MB, for each of the two arrays.
        p = random_chain(3000, 3e-3, seed=1, sparse=True)
        p0 = Distribution.uniform(p.n)
        small = pipeline_dynamic(p, p0, 200, 1e-12)
        tracemalloc.start()
        try:
            full = pipeline_dynamic(p, p0, p.n, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full.size == small.size == 34
        for name in ("step_matrix", "disaggregation", "initial", "stationary"):
            assert getattr(full, name).tobytes() == getattr(small, name).tobytes()
        assert full.criterion == small.criterion
        assert peak < 16e6

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_growth_keeps_every_step_and_every_earlier_snapshot(self, sparse):
        p = random_chain(400, 0.05, seed=[5, 1], sparse=sparse)
        p0 = Distribution.random(p.n, seed=[5, 2])
        steps = 300
        assert steps > arnoldi._FIRST_CAPACITY
        b = ArnoldiBuilder(p, p0, steps)
        while b.size < arnoldi._FIRST_CAPACITY:
            b.expand()
        early = b.snapshot()
        arrays = (early.basis, early.hessenberg, early.residual_direction)
        before = [a.copy() for a in arrays]
        while not b.done:
            b.expand()
        assert b.size == steps and not b.deflated
        basis, hessenberg = arnoldi_by_orthogonalize_step(p, p0.values, steps, CGSIR)
        final = b.snapshot()
        assert final.basis.tobytes() == basis.tobytes()
        assert final.hessenberg.tobytes() == hessenberg.tobytes()
        assert not np.shares_memory(final.basis, early.basis)
        for a, ref in zip(arrays, before):
            assert not a.flags.writeable
            assert a.tobytes() == ref.tobytes()


class TestRelationResidual:
    def test_exact_two_state_permutation(self):
        p = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = arnoldi_iterate(p, Distribution.point(2, 0), 2)
        assert relation_residual(f, p) <= 1e-14

    @pytest.mark.parametrize("method", STABLE_METHODS, ids=lambda m: m.variant)
    def test_stable_methods_on_random_chain(self, method):
        p = random_chain(20, 0.5, seed=61)
        p0 = Distribution.random(20, seed=62)
        f = arnoldi_iterate(p, p0, 10, method=method)
        assert relation_residual(f, p) <= 1e-10

    @pytest.mark.parametrize("method", STABLE_METHODS, ids=lambda m: m.variant)
    def test_basis_stays_orthonormal(self, method):
        from arnagg.orthonorm import orthogonality_loss

        p = random_chain(25, 0.3, seed=63)
        p0 = Distribution.random(25, seed=64)
        f = arnoldi_iterate(p, p0, 12, method=method)
        assert orthogonality_loss(f.basis) <= 1e-10


class TestBuildAggregation:
    def test_identity_chain(self):
        p = StochasticMatrix(np.eye(4))
        p0 = Distribution.random(4, seed=71)
        agg = build_aggregation(arnoldi_iterate(p, p0, 3), p0)
        assert np.allclose(agg.step_matrix, [[1.0]], atol=1e-15)
        nrm = np.linalg.norm(p0.values)
        assert np.allclose(agg.disaggregation, [p0.values / nrm], atol=1e-15)
        assert np.array_equal(agg.initial, [nrm])

    def test_counterexample_size_one(self):
        p, p0 = counterexample(0.3)
        agg = build_aggregation(arnoldi_iterate(p, p0, 1), p0)
        assert np.array_equal(agg.step_matrix, [[0.0]])
        assert np.array_equal(agg.disaggregation, [[0.0, 0.0, 1.0]])
        assert np.array_equal(agg.initial, [1.0])

    def test_disaggregated_start_is_exact(self, rng):
        # second exactness condition: initial @ A reproduces p0
        for _ in range(10):
            n = int(rng.integers(3, 30))
            p = random_chain(n, 1.0, seed=int(rng.integers(2**63)))
            p0 = Distribution.random(n, seed=int(rng.integers(2**63)))
            agg = build_aggregation(arnoldi_iterate(p, p0, min(5, n)), p0)
            assert np.abs(agg.initial @ agg.disaggregation - p0.values).max() <= 1e-13


class TestAggregationShapes:
    """A hand-built aggregation whose parts disagree in shape is rejected as input
    (exit 2) when built, not later as a numpy error or as ``NoConvergence``."""

    @pytest.mark.parametrize("parts, error", [
        (dict(step_matrix=np.ones((2, 3))), ShapeError),
        (dict(step_matrix=np.ones(2)), ShapeError),
        (dict(step_matrix=np.empty((0, 0)), disaggregation=np.empty((0, 4)),
              initial=np.empty(0), stationary=None), ShapeError),
        (dict(disaggregation=np.ones((3, 4))), DimensionMismatch),
        (dict(disaggregation=np.ones(4)), DimensionMismatch),
        (dict(initial=np.ones(3)), DimensionMismatch),
        (dict(initial=np.ones((2, 1))), DimensionMismatch),
        (dict(stationary=np.ones(1)), DimensionMismatch),
    ], ids=["step_matrix_not_square", "step_matrix_1d", "step_matrix_empty",
            "disaggregation_rows", "disaggregation_1d", "initial_length", "initial_2d",
            "stationary_length"])
    def test_mismatched_part_is_input_error(self, parts, error):
        good = dict(step_matrix=np.eye(2), disaggregation=np.full((2, 4), 0.5),
                    initial=np.array([1.0, 0.0]), stationary=np.array([0.5, 0.5]))
        Aggregation(**good)
        with pytest.raises(error):
            Aggregation(**{**good, **parts})
        with pytest.raises(error):
            replace(Aggregation(**good), **parts)


class TestAggregationProperties:
    def test_aggregated_vector_zero_tail(self, rng):
        # after k steps only the first k+1 aggregated coordinates are live
        for _ in range(5):
            n = int(rng.integers(12, 40))
            j = int(rng.integers(6, 11))
            p = random_chain(n, 0.3, seed=int(rng.integers(2**63)))
            p0 = Distribution.random(n, seed=int(rng.integers(2**63)))
            f = arnoldi_iterate(p, p0, j)
            agg = build_aggregation(f, p0)
            pi = agg.initial.copy()
            for k in range(f.size - 1):
                if k <= f.size - 2:
                    tail = np.abs(pi[k + 1:])
                    assert tail.max(initial=0.0) <= 1e-10 * np.linalg.norm(pi)
                pi = pi @ agg.step_matrix

    def test_initial_exactness_for_first_steps(self, rng):
        # errors stay at rounding level for the first size-1 steps
        for _ in range(5):
            n = int(rng.integers(10, 50))
            j = int(rng.integers(2, min(n, 12)))
            p = random_chain(n, 0.4, seed=int(rng.integers(2**63)))
            p0 = Distribution.random(n, seed=int(rng.integers(2**63)))
            f = arnoldi_iterate(p, p0, j)
            agg = build_aggregation(f, p0)
            pd = p.toarray()
            pi = agg.initial.copy()
            for k in range(f.size):
                approx = pi @ agg.disaggregation
                exact = transient_by_power(pd, p0.values, k)
                assert np.abs(approx - exact).sum() <= 1e-9
                pi = pi @ agg.step_matrix

    def test_full_size_exactness_small_n(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 30))
            p = random_chain(n, 1.0, seed=int(rng.integers(2**63)))
            p0 = Distribution.random(n, seed=int(rng.integers(2**63)))
            f = arnoldi_iterate(p, p0, n)
            agg = build_aggregation(f, p0)
            defect = agg.step_matrix @ agg.disaggregation - agg.disaggregation @ p.toarray()
            assert inf_norm(defect) <= 1e-8
            assert np.abs(agg.initial @ agg.disaggregation - p0.values).sum() <= 1e-12
