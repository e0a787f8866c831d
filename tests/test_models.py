import numpy as np
import pytest

from arnagg.errors import EpsilonOutOfRange, InputError, InvalidCoupling, ShapeError
from arnagg.mchain import StochasticMatrix
from arnagg.models import NcdSpec, counterexample, ncd_compose, random_chain, random_ncd


class TestNcdCompose:
    def test_single_trivial_block(self):
        spec = NcdSpec(blocks=(np.array([[1.0]]),), coupling=np.zeros((1, 1)), epsilon=0.5)
        assert np.array_equal(ncd_compose(spec).toarray(), [[1.0]])

    def test_three_state_composition(self):
        spec = NcdSpec(
            blocks=(np.array([[1.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])),
            coupling=np.array([[-1, 1, 0], [0, 0, 0], [0, 0, 0]]),
            epsilon=0.25,
        )
        expected = np.array([[0.75, 0.25, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(ncd_compose(spec).toarray(), expected)

    def test_entry_pushed_above_one_is_invalid(self):
        spec = NcdSpec(
            blocks=(np.array([[1.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])),
            coupling=np.array([[0, 0, 0], [0, 0, 0], [0, 1, -1]]),
            epsilon=0.25,
        )
        with pytest.raises(InvalidCoupling):
            ncd_compose(spec)

    def test_entry_pushed_below_zero_is_invalid(self):
        spec = NcdSpec(
            blocks=(np.array([[1.0]]), np.array([[0.5, 0.5], [1.0, 0.0]])),
            coupling=np.array([[0, 0, 0], [0, -1, 1], [0, 0, 0]]),
            epsilon=0.75,
        )
        with pytest.raises(InvalidCoupling):
            ncd_compose(spec)

    def test_invalid_entry_is_named_as_a_plain_float(self):
        spec = NcdSpec(
            blocks=(np.array([[1.0]]), np.array([[0.5, 0.5], [1.0, 0.0]])),
            coupling=np.array([[0, 0, 0], [0, -1, 1], [0, 0, 0]]),
            epsilon=0.75,
        )
        with pytest.raises(InvalidCoupling, match=r"^entry \(1, 1\) = -0\.25 falls outside"):
            ncd_compose(spec)

    def test_needs_a_block(self):
        with pytest.raises(InputError, match="^need at least one block$"):
            NcdSpec(blocks=(), coupling=np.zeros((0, 0)), epsilon=0.1)

    def test_coupling_must_be_square(self):
        with pytest.raises(ShapeError, match=r"^coupling matrix must be square, got \(2, 3\)$"):
            NcdSpec(blocks=(np.eye(2),), coupling=np.zeros((2, 3)), epsilon=0.1)

    def test_block_sizes_must_cover_coupling(self):
        with pytest.raises(ShapeError):
            NcdSpec(blocks=(np.eye(2),), coupling=np.zeros((3, 3)), epsilon=0.1)

    def test_coupling_must_be_integer_with_zero_row_sums(self):
        with pytest.raises(InvalidCoupling):
            NcdSpec(blocks=(np.eye(2),), coupling=np.full((2, 2), 0.5), epsilon=0.1)
        with pytest.raises(InvalidCoupling):
            NcdSpec(
                blocks=(np.eye(2),),
                coupling=np.array([[1, 0], [0, 0]]),
                epsilon=0.1,
            )


class TestCounterexample:
    def test_reference_matrix_at_half(self):
        p, p0 = counterexample(0.5)
        assert np.array_equal(
            p.toarray(), [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        assert np.array_equal(p0.values, [0.0, 0.0, 1.0])

    def test_epsilon_near_one_still_valid(self):
        p, _ = counterexample(0.999)
        assert p.toarray()[0, 0] == pytest.approx(0.001)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5])
    def test_epsilon_out_of_range(self, eps):
        with pytest.raises(EpsilonOutOfRange):
            counterexample(eps)


class TestRandomChain:
    def test_single_state(self):
        assert np.array_equal(random_chain(1).toarray(), [[1.0]])

    def test_seed_determinism(self):
        a = random_chain(12, 0.4, seed=42)
        b = random_chain(12, 0.4, seed=42)
        assert np.array_equal(a.toarray(), b.toarray())
        c = random_chain(12, 0.4, seed=43)
        assert not np.array_equal(a.toarray(), c.toarray())

    def test_sparse_matches_dense_construction(self):
        dense = random_chain(20, 0.25, seed=5)
        sparse = random_chain(20, 0.25, seed=5, sparse=True)
        assert sparse.is_sparse
        assert np.array_equal(dense.toarray(), sparse.toarray())

    def test_density_controls_support(self):
        p = random_chain(40, 0.1, seed=6)
        nonzeros_per_row = (p.toarray() > 0).sum(axis=1)
        assert np.all(nonzeros_per_row == 4)

    def test_outputs_validate_strictly(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 60))
            density = float(rng.uniform(0.05, 1.0))
            p = random_chain(n, density, seed=int(rng.integers(2**63)))
            StochasticMatrix(p.toarray(), tol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            random_chain(0)
        with pytest.raises(InputError):
            random_chain(5, density=0.0)


class TestRandomNcd:
    def test_off_block_mass_is_small(self):
        p = random_ncd(3, 10, 1e-4, seed=7).toarray()
        mask = np.ones((30, 30), dtype=bool)
        for b in range(3):
            mask[b * 10:(b + 1) * 10, b * 10:(b + 1) * 10] = False
        off_block_mass = (p * mask).sum(axis=1)
        assert off_block_mass.max() <= 1e-3

    def test_needs_a_block_of_a_state(self):
        with pytest.raises(InputError, match="^need at least one block of at least one state$"):
            random_ncd(0, 3, 1e-3)

    def test_determinism(self):
        a = random_ncd(2, 5, 1e-3, seed=8)
        b = random_ncd(2, 5, 1e-3, seed=8)
        assert np.array_equal(a.toarray(), b.toarray())

    def test_vanishing_epsilon_recovers_block_diagonal(self):
        # same seed gives identical blocks/coupling, so the difference is linear in eps
        big = random_ncd(3, 4, 1e-4, seed=9).toarray()
        tiny = random_ncd(3, 4, 1e-12, seed=9).toarray()
        assert np.abs(big - tiny).max() <= 2e-4
        mask = np.ones((12, 12), dtype=bool)
        for b in range(3):
            mask[b * 4:(b + 1) * 4, b * 4:(b + 1) * 4] = False
        assert (tiny * mask).max() <= 1e-12

    def test_outputs_validate_strictly(self):
        for seed in range(5):
            p = random_ncd(4, 6, 1e-3, seed=seed)
            StochasticMatrix(p.toarray(), tol=1e-12)

    def test_single_block_has_no_coupling(self):
        p = random_ncd(1, 6, 1e-3, seed=10).toarray()
        assert StochasticMatrix(p).n == 6
