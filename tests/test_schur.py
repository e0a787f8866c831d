import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import arnagg
from arnagg.aggregate import pipeline_dynamic
from arnagg.arnoldi import Aggregation, arnoldi_iterate, build_aggregation
from arnagg.errors import (
    ComplexStationary,
    NoConvergence,
    ShapeError,
)
from arnagg.mchain import Distribution, inf_norm
from arnagg.models import counterexample, random_chain, random_ncd
from arnagg.orthonorm import CGS, CGS2, CGSIR, MGS, MGS2, MGSIR
from arnagg.schur import (
    IMAG_ERROR_TOL,
    aggregated_stationary,
    leading_eigvec,
    schur_decompose,
)

from oracles import (
    eigenvalues_by_char_poly,
    multiset_distance,
    power_iteration_stationary,
)


def reconstruction_error(m, s):
    m = np.asarray(m, dtype=complex)
    rebuilt = s.unitary @ s.triangular @ s.unitary.conj().T
    return inf_norm(rebuilt - m)


def unitarity_error(s):
    u = s.unitary
    return inf_norm(u @ u.conj().T - np.eye(u.shape[0]))


class TestSchurDecompose:
    def test_diagonal_matrix_is_sorted_by_permutation(self):
        s = schur_decompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(np.diag(s.triangular).real, [3.0, 2.0, 1.0], atol=1e-12)
        perm = np.abs(s.unitary)
        assert np.allclose(perm @ perm.T, np.eye(3), atol=1e-12)
        assert np.allclose(np.sort(perm.ravel())[-3:], 1.0, atol=1e-12)

    def test_symmetric_permutation_eigenvalues(self):
        # characteristic polynomial x^2 - 1: eigenvalues 1 and -1
        s = schur_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(s.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_invariants_on_random_matrices(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 31))
            m = rng.standard_normal((n, n))
            s = schur_decompose(m)
            scale = max(inf_norm(m), 1e-12)
            assert reconstruction_error(m, s) <= 1e-9 * scale
            assert unitarity_error(s) <= 1e-10
            assert np.abs(np.tril(s.triangular, -1)).max(initial=0.0) <= 1e-10

    def test_eigenvalues_match_char_poly_roots(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = rng.standard_normal((n, n))
            s = schur_decompose(m)
            roots = eigenvalues_by_char_poly(m)
            assert multiset_distance(s.eigenvalues, roots) <= 1e-6

    def test_sorting_key(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            m = rng.standard_normal((n, n))
            evs = schur_decompose(m).eigenvalues
            keys = [(-ev.real, abs(ev.imag)) for ev in evs]
            assert keys == sorted(keys)

    def test_sorting_is_pure_reordering(self, rng):
        # multiset of the sorted diagonal equals the unsorted eigenvalues
        m = rng.standard_normal((5, 5))
        s = schur_decompose(m)
        assert multiset_distance(s.eigenvalues, eigenvalues_by_char_poly(m)) <= 1e-6

    def test_hessenberg_input_fast_path(self, rng):
        h = np.triu(rng.standard_normal((8, 8)), -1)
        s = schur_decompose(h)
        assert reconstruction_error(h, s) <= 1e-9 * inf_norm(h)

    def test_leading_eigenvalue_of_full_aggregation_is_one(self):
        p = random_chain(10, 1.0, seed=81)
        p0 = Distribution.random(10, seed=82)
        agg = build_aggregation(arnoldi_iterate(p, p0, 10), p0)
        s = schur_decompose(agg.step_matrix.T)
        lam, _ = leading_eigvec(s)
        assert abs(lam - 1.0) <= 1e-10
        # cross-check: the true chain fixes its stationary vector
        stat = power_iteration_stationary(p.toarray())
        assert np.abs(stat @ p.toarray() - stat).sum() <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            schur_decompose(np.ones((2, 3)))

    def test_no_convergence_when_lapack_fails(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(scipy.linalg, "schur", fail)
        monkeypatch.setattr(np.linalg, "eig", fail)
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NoConvergence):
            schur_decompose(m)
        agg = Aggregation(step_matrix=m, disaggregation=np.eye(3), initial=np.eye(3)[0])
        with pytest.raises(NoConvergence):
            aggregated_stationary(agg)

    def test_complex_input(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = schur_decompose(m)
        assert reconstruction_error(m, s) <= 1e-9 * inf_norm(m)


class TestLeadingEigvec:
    def test_diagonal_case(self):
        s = schur_decompose(np.diag([1.0, 0.5]))
        lam, v = leading_eigvec(s)
        assert lam == pytest.approx(1.0)
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-12)

    def test_two_state_chain_right_eigenvector(self):
        # eigenvalues 1 and 0.7; unit right eigenvector for 1 is (1,1)/sqrt(2)
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        s = schur_decompose(m)
        lam, v = leading_eigvec(s)
        assert abs(lam - 1.0) <= 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.abs(m @ v - lam * v).max() <= 1e-8
        e = 1 / math.sqrt(2)
        phase = v[0] / abs(v[0])
        assert np.abs(v / phase - np.array([e, e])).max() <= 1e-10

    def test_one_by_one_zero_matrix(self):
        s = schur_decompose(np.array([[0.0]]))
        lam, v = leading_eigvec(s)
        assert lam == 0.0
        assert np.allclose(np.abs(v), [1.0])

    def test_back_substitution_when_winner_is_not_first(self):
        # sorted diagonal is (2, 1); the eigenvalue closest to one is second
        m = np.array([[2.0, 1.0], [0.0, 1.0]])
        s = schur_decompose(m)
        lam, v = leading_eigvec(s)
        assert lam == pytest.approx(1.0)
        assert np.abs(m @ v - lam * v).max() <= 1e-8
        assert s.eigenvalues[0] == pytest.approx(2.0)

    def test_residual_on_random_matrices(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 15))
            m = rng.standard_normal((n, n))
            lam, v = leading_eigvec(schur_decompose(m))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(m @ v - lam * v) <= 1e-8 * max(1.0, inf_norm(m))


class TestAggregatedStationary:
    def test_single_state_aggregation(self):
        q = np.array([0.6, 0.8])  # unit 2-norm, 1-norm 1.4
        agg = Aggregation(
            step_matrix=np.array([[1.0]]),
            disaggregation=q[None, :],
            initial=np.array([1.0]),
        )
        out = aggregated_stationary(agg)
        assert out.stationary == pytest.approx([1.0 / 1.4])

    def test_counterexample_stationary(self):
        p, p0 = counterexample(0.5)
        agg = build_aggregation(arnoldi_iterate(p, p0, 1), p0)
        out = aggregated_stationary(agg)
        assert np.allclose(out.stationary, [1.0], atol=1e-14)
        assert np.abs(out.stationary @ out.disaggregation).sum() == pytest.approx(1.0)

    def test_full_size_matches_power_iteration(self):
        p = random_chain(10, 1.0, seed=91)
        p0 = Distribution.random(10, seed=92)
        agg = aggregated_stationary(build_aggregation(arnoldi_iterate(p, p0, 10), p0))
        image = agg.stationary @ agg.disaggregation
        pd = p.toarray()
        assert np.abs(image - image @ pd).sum() <= 1e-8
        oracle = power_iteration_stationary(pd)
        assert np.abs(image - oracle).sum() <= 1e-6
        assert np.abs(image).sum() == pytest.approx(1.0, abs=1e-10)

    def test_complex_leading_pair_raises(self):
        theta = 0.5
        rot = np.array([[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
        agg = Aggregation(
            step_matrix=rot,
            disaggregation=np.eye(2),
            initial=np.array([1.0, 0.0]),
        )
        with pytest.raises(ComplexStationary):
            aggregated_stationary(agg)

    def test_known_defect_chain_returns_its_stationary_vector(self):
        # The Schur-vector path left 1.26e-8 of imaginary mass in this real
        # eigenvector and raised ComplexStationary at every size.
        p = random_ncd(6, 10, 1e-4, seed=[664729460, 7])
        p0 = Distribution.random(p.n, seed=[664729460, 1, 19])
        agg = pipeline_dynamic(p, p0, p.n, 1e-8, step_size=1)
        assert agg.criterion <= 1e-8
        image = agg.stationary @ agg.disaggregation
        pd = p.toarray()
        a = pd.T - np.eye(p.n)
        a[-1, :] = 1.0
        reference = np.linalg.solve(a, np.eye(p.n)[-1])
        assert np.abs(image - reference).sum() <= 1e-3
        assert np.abs(image @ pd - image).sum() <= 1e-7


def schur_reference_image(agg):
    """Stationary image read off the sorted Schur form, or None if complex."""
    _, v = leading_eigvec(schur_decompose(agg.step_matrix.T))
    j = int(np.argmax(np.abs(v)))
    v = v * np.conj(v[j] / abs(v[j]))
    if np.abs(v.imag).max() > IMAG_ERROR_TOL:
        return None
    image = v.real @ agg.disaggregation
    if image.sum() < 0.0:
        image = -image
    return image / np.abs(image).sum()


@pytest.mark.parametrize("method", [CGS, MGS, CGS2, MGS2, CGSIR, MGSIR],
                         ids=lambda m: m.variant)
def test_eigenpair_path_matches_schur_path(method):
    models = [
        counterexample(0.5),
        (random_chain(20, 0.3, seed=5), Distribution.random(20, seed=6)),
        (random_ncd(3, 5, 1e-3, seed=7), Distribution.random(15, seed=8)),
        (random_ncd(4, 5, 1e-4, seed=9), Distribution.random(20, seed=10)),
    ]
    compared = 0
    for p, p0 in models:
        for j in range(1, p.n + 1):
            agg = build_aggregation(arnoldi_iterate(p, p0, j, method=method), p0)
            reference = schur_reference_image(agg)
            if reference is None:
                continue
            out = aggregated_stationary(agg)
            assert np.abs(out.stationary @ out.disaggregation - reference).sum() <= 1e-9
            compared += 1
    assert compared >= 40


def test_pipelines_do_not_import_scipy_linalg():
    code = (
        "import sys\n"
        "import arnagg, arnagg.cli\n"
        "from arnagg import Distribution, pipeline_dynamic, pipeline_schur, random_ncd\n"
        "p = random_ncd(2, 4, 1e-3, seed=1)\n"
        "p0 = Distribution.uniform(p.n)\n"
        "pipeline_dynamic(p, p0, p.n, 1e-8)\n"
        "pipeline_schur(p, p0, 4)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(arnagg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
