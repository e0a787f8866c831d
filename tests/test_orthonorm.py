import math

import numpy as np
import pytest

from arnagg import orthonorm
from arnagg.errors import DimensionMismatch, EmptyInput, InputError
from arnagg.models import random_chain
from arnagg.orthonorm import (
    CGS,
    CGS2,
    CGSIR,
    MGS,
    MGS2,
    KAPPA,
    MGSIR,
    OrthMethod,
    orthogonality_loss,
    orthogonalize_step,
    parse_method,
)

from oracles import ill_conditioned_vectors, orthonormalize_rows

ALL_METHODS = (CGS, MGS, CGS2, MGS2, CGSIR, MGSIR)
STABLE_METHODS = (CGS2, MGS2, CGSIR, MGSIR)


def random_orthonormal_rows(count, dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    return [q[:, i].copy() for i in range(count)]


class TestOrthMethod:
    def test_parse(self):
        assert parse_method("cgsir") == CGSIR
        assert parse_method("MGS2") == MGS2

    def test_kappa_default_and_range(self):
        assert KAPPA == pytest.approx(1 / math.sqrt(2))
        with pytest.raises(InputError):
            OrthMethod("nope")


class TestOrthogonalizeStep:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.variant)
    def test_already_orthogonal_vector(self, method):
        e1, e2 = np.eye(2)
        res = orthogonalize_step(e2, [e1], method)
        assert np.allclose(res.coefficients, [0.0], atol=1e-15)
        assert np.allclose(res.residual_vector, e2, atol=1e-15)
        assert res.residual_norm == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.variant)
    def test_vector_in_span(self, method):
        e1 = np.eye(3)[0]
        res = orthogonalize_step(3.0 * e1, [e1], method)
        assert np.allclose(res.coefficients, [3.0], atol=1e-15)
        assert res.residual_norm <= 1e-15

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.variant)
    def test_reconstruction_and_orthogonality(self, method, rng):
        basis = random_orthonormal_rows(4, 10, rng)
        v = rng.standard_normal(10)
        res = orthogonalize_step(v, basis, method)
        rebuilt = res.coefficients @ np.vstack(basis) + res.residual_vector
        assert np.abs(rebuilt - v).max() <= 1e-12 * np.abs(v).max()
        for q in basis:
            assert abs(q @ res.residual_vector) <= 1e-12
        assert res.residual_norm == pytest.approx(np.linalg.norm(res.residual_vector), rel=1e-14)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            orthogonalize_step(np.array([]), [])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            orthogonalize_step(np.ones(3), [np.eye(2)[0]])

    def test_empty_basis_returns_input(self):
        v = np.array([1.0, 2.0])
        res = orthogonalize_step(v, [], CGS)
        assert res.coefficients.shape == (0,)
        assert np.array_equal(res.residual_vector, v)

    def test_selective_single_pass_matches_plain_variant(self, rng):
        # Residual keeps most of its mass: no second pass, bitwise equal to cgs.
        basis = random_orthonormal_rows(3, 8, rng)
        v = rng.standard_normal(8)
        v -= 0.9 * (np.vstack(basis) @ v) @ np.vstack(basis)  # still far from span
        a = orthogonalize_step(v, basis, CGS)
        b = orthogonalize_step(v, basis, CGSIR)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.residual_vector, b.residual_vector)

    def test_selective_second_pass_matches_always_twice(self, rng):
        # Vector nearly in the span: the re-pass fires and equals cgs2.
        basis = random_orthonormal_rows(3, 8, rng)
        q = np.vstack(basis)
        v = q.T @ rng.standard_normal(3) + 1e-6 * rng.standard_normal(8)
        a = orthogonalize_step(v, basis, CGS2)
        b = orthogonalize_step(v, basis, CGSIR)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.residual_vector, b.residual_vector)

    @pytest.mark.parametrize("method, pass_name", [(CGSIR, "_pass_classical"),
                                                   (MGSIR, "_pass_modified")],
                             ids=["cgsir", "mgsir"])
    def test_selective_second_pass_threshold_is_kappa(self, monkeypatch, method, pass_name):
        one_pass = getattr(orthonorm, pass_name)
        passes = []
        monkeypatch.setattr(orthonorm, pass_name, lambda r, q: passes.append(1) or one_pass(r, q))

        def passes_at(ratio):
            # Residual norm after one pass over e1 is ``ratio`` times the input norm.
            passes.clear()
            orthogonalize_step([math.sqrt(1.0 - ratio**2), ratio], [np.eye(2)[0]], method)
            return len(passes)

        assert (passes_at(0.70), passes_at(0.72)) == (2, 1)
        monkeypatch.setattr(orthonorm, "KAPPA", 0.5)
        assert (passes_at(0.70), passes_at(0.45)) == (1, 2)


    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.variant)
    def test_norms_are_numpys_bit_for_bit(self, method, sparse):
        p = random_chain(40, 0.2, seed=[3, 1], sparse=sparse)
        q = np.zeros((13, p.n))
        q[0] = np.full(p.n, 1.0 / math.sqrt(p.n))
        for j in range(1, 13):
            w = p.vec_mul(q[j - 1])
            before = float(np.linalg.norm(w))
            _, r_norm, v_norm = orthonorm._orthogonalize(w, q[:j], method)
            assert v_norm == before
            assert r_norm == float(np.linalg.norm(w))
            q[j] = w / r_norm


class TestOrthonormalizeAll:
    """``orthogonalize_step``'s coefficients, through the ``orthonormalize_rows`` harness."""

    def test_orthonormal_input_is_fixed(self, rng):
        vs = random_orthonormal_rows(4, 6, rng)
        basis, r = orthonormalize_rows(vs, CGS)
        for got, given in zip(basis, vs):
            assert np.abs(got - given).max() <= 1e-14
        assert np.abs(r - np.eye(4)).max() <= 1e-14

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.variant)
    def test_hand_worked_two_vector_case(self, method):
        basis, r = orthonormalize_rows([np.array([1.0, 1.0]), np.array([1.0, 0.0])], method)
        s = 1 / math.sqrt(2)
        assert np.allclose(basis[0], [s, s], atol=1e-15)
        assert np.allclose(basis[1], [s, -s], atol=1e-15)
        assert np.allclose(r, [[math.sqrt(2), s], [0.0, s]], atol=1e-15)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.variant)
    def test_reconstruction_from_r(self, method, rng):
        vs = [rng.standard_normal(7) for _ in range(5)]
        basis, r = orthonormalize_rows(vs, method)
        rebuilt = r.T @ np.vstack(basis)
        assert np.abs(rebuilt - np.vstack(vs)).max() <= 1e-12


class TestOrthogonalityLoss:
    def test_standard_basis(self):
        assert orthogonality_loss(list(np.eye(3))) == 0.0

    def test_nearly_parallel_pair(self):
        theta = math.pi / 2 - 1e-6
        basis = [np.array([1.0, 0.0]), np.array([math.cos(theta), math.sin(theta)])]
        assert orthogonality_loss(basis) == pytest.approx(1e-6, rel=1e-6)

    def test_empty_basis(self):
        with pytest.raises(EmptyInput):
            orthogonality_loss([])

    def test_one_dimensional_array_is_no_basis(self):
        # Read row by row, [1, 2] would be two 1-entry rows with loss 3.
        with pytest.raises(DimensionMismatch, match=r"^a basis is a 2-D array of rows"):
            orthogonality_loss(np.array([1.0, 2.0]))


class TestStabilityProperties:
    def test_all_methods_keep_loss_small_on_well_conditioned_input(self, rng):
        vs = [rng.standard_normal(30) for _ in range(12)]
        for method in ALL_METHODS:
            basis, _ = orthonormalize_rows(vs, method)
            assert orthogonality_loss(basis) <= 1e-10

    def test_methods_agree_on_well_conditioned_input(self, rng):
        vs = [rng.standard_normal(20) for _ in range(8)]
        reference, _ = orthonormalize_rows(vs, CGS)
        for method in (MGS, CGS2, MGS2):
            basis, _ = orthonormalize_rows(vs, method)
            assert np.abs(np.vstack(basis) - np.vstack(reference)).max() <= 1e-8

    def test_reorthogonalized_variants_beat_plain_cgs_when_ill_conditioned(self):
        vs = ill_conditioned_vectors(20, 40, cond=1e10, seed=3)
        assert np.linalg.cond(np.vstack(vs)) >= 1e8
        loss = {}
        for method in (CGS, CGS2, MGS2, CGSIR):
            basis, _ = orthonormalize_rows(vs, method)
            loss[method.variant] = orthogonality_loss(basis)
        assert loss["cgs"] > loss["cgs2"]
        assert loss["cgs"] > loss["mgs2"]
        assert loss["cgsir"] <= 10 * max(loss["cgs2"], 1e-16)
