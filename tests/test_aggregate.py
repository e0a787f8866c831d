import numpy as np
import pytest

from arnagg.aggregate import (
    ALWAYS,
    CONDITIONAL,
    NEVER,
    NormalizationPolicy,
    _relation_criterion,
    aggregated_step,
    approximate,
    convergence_criterion,
    error_trace,
    exactness_defect,
    normalize,
    parse_policy,
    pipeline_dynamic,
    pipeline_naive,
    pipeline_schur,
)
from arnagg.arnoldi import ArnoldiBuilder, arnoldi_iterate, build_aggregation, relation_residual
from arnagg.errors import (
    ComplexStationary,
    DimensionMismatch,
    InputError,
    MissingStationary,
    ZeroVector,
)
from arnagg.mchain import (
    Distribution,
    StochasticMatrix,
    inf_norm,
    validate_stochastic,
    weighted_abs_row_sums,
)
from arnagg.models import counterexample, random_chain, random_ncd
from arnagg.orthonorm import VARIANTS, OrthMethod
from arnagg.schur import aggregated_stationary

from oracles import power_iteration_stationary, transient_by_power


def smallest_passing_size(p, p0, eps, max_size):
    """Exhaustive per-size sweep oracle for the dynamic pipeline."""
    for j in range(1, max_size + 1):
        try:
            agg = pipeline_schur(p, p0, j)
        except ComplexStationary:
            continue
        if convergence_criterion(p, agg) <= eps:
            return j
    return max_size


def trace_oracle(p_dense, p0, agg, ks):
    """Recompute errors and the accumulated bound with explicit matrix powers."""
    a, step = agg.disaggregation, agg.step_matrix
    defect = step @ a - a @ p_dense
    e0 = np.abs(agg.initial @ a - p0).sum()
    errors, bounds = [], []
    for k in ks:
        pik = agg.initial @ np.linalg.matrix_power(step, k)
        pk = transient_by_power(p_dense, p0, k)
        errors.append(np.abs(pik @ a - pk).sum())
        acc = e0
        for j in range(k):
            pij = agg.initial @ np.linalg.matrix_power(step, j)
            acc += weighted_abs_row_sums(pij, defect)
        bounds.append(acc)
    return np.array(errors), np.array(bounds)


class TestAggregatedStep:
    def test_identity_step_matrix(self):
        p = validate_stochastic(np.eye(3))
        p0 = Distribution.random(3, seed=1)
        agg = pipeline_naive(p, p0, 1)
        pi = np.array([0.7])
        assert np.array_equal(aggregated_step(agg, pi), pi)

    def test_counterexample_step_annihilates(self):
        p, p0 = counterexample(0.4)
        agg = pipeline_naive(p, p0, 1)
        assert np.array_equal(aggregated_step(agg, agg.initial), [0.0])

    def test_three_steps_match_power_oracle(self, rng):
        p = random_chain(12, 0.6, seed=11)
        p0 = Distribution.random(12, seed=12)
        agg = pipeline_naive(p, p0, 5)
        pi = agg.initial.copy()
        for _ in range(3):
            pi = aggregated_step(agg, pi)
        expected = agg.initial @ np.linalg.matrix_power(agg.step_matrix, 3)
        assert np.abs(pi - expected).max() <= 1e-13

    def test_dimension_mismatch(self):
        p, p0 = counterexample(0.4)
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(DimensionMismatch):
            aggregated_step(agg, np.ones(2))


class TestApproximate:
    def test_step_zero_reproduces_start(self, rng):
        p = random_chain(9, 0.7, seed=21)
        p0 = Distribution.random(9, seed=22)
        agg = pipeline_naive(p, p0, 4)
        approx = approximate(agg, agg.initial)
        assert not approx.strict
        assert np.abs(approx.values - p0.values).max() <= 1e-13

    def test_counterexample_collapses_to_zero(self):
        p, p0 = counterexample(0.2)
        agg = pipeline_naive(p, p0, 1)
        pi1 = aggregated_step(agg, agg.initial)
        approx = approximate(agg, pi1, NEVER)
        assert np.array_equal(approx.values, [0.0, 0.0, 0.0])

    def test_always_policy_forces_unit_norm(self, rng):
        p = random_chain(8, 0.9, seed=31)
        p0 = Distribution.random(8, seed=32)
        agg = pipeline_naive(p, p0, 3)
        pi = agg.initial @ np.linalg.matrix_power(agg.step_matrix, 6)
        approx = approximate(agg, pi, ALWAYS)
        assert np.abs(approx.values).sum() == pytest.approx(1.0, abs=1e-12)


class TestNormalize:
    def test_proper_distribution_unchanged_conditionally(self):
        v = np.array([1 / 3, 1 / 3, 1 / 3])
        assert np.array_equal(normalize(v, CONDITIONAL).values, v)

    def test_rule_very_negative_entry(self):
        out = normalize(np.array([-2.0, 0.0]), CONDITIONAL)
        assert np.allclose(out.values, [-1.0, 0.0], atol=1e-15)

    def test_rule_large_entry(self):
        v = np.array([1.2, -0.05])
        out = normalize(v, CONDITIONAL)
        assert np.allclose(out.values, v / 1.25, atol=1e-15)

    def test_rule_all_nonpositive_with_enough_mass(self):
        out = normalize(np.array([-0.6, -0.6]), CONDITIONAL)
        assert np.allclose(out.values, [-0.5, -0.5], atol=1e-15)

    def test_rule_total_mass_at_least_two(self):
        v = np.array([0.9, 1.05, 0.3])
        out = normalize(v, CONDITIONAL)
        assert np.allclose(out.values, v / 2.25, atol=1e-15)

    def test_rule_sum_without_largest_entry(self):
        v = np.array([0.3, -0.7, -0.65])
        out = normalize(v, CONDITIONAL)
        assert np.allclose(out.values, v / 1.65, atol=1e-15)

    def test_always(self):
        out = normalize(np.array([2.0, 2.0]), ALWAYS)
        assert np.array_equal(out.values, [0.5, 0.5])

    def test_never(self):
        v = np.array([5.0, -3.0])
        assert np.array_equal(normalize(v, NEVER).values, v)

    def test_zero_vector_error(self):
        with pytest.raises(ZeroVector):
            normalize(np.zeros(3), ALWAYS)

    def test_conditional_never_triggers_on_zero(self):
        out = normalize(np.zeros(3), CONDITIONAL)
        assert np.array_equal(out.values, np.zeros(3))

    def test_policy_validation(self):
        with pytest.raises(InputError):
            NormalizationPolicy("sometimes")
        with pytest.raises(InputError):
            NormalizationPolicy("conditional", tolerance=0.0)
        assert parse_policy("cond").mode == "conditional"


class TestErrorTrace:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_counterexample_bound_is_tight(self, eps):
        p, p0 = counterexample(eps)
        agg = pipeline_naive(p, p0, 1)
        tr = error_trace(p, p0, agg, [0, 1, 2])
        assert np.allclose(tr.errors, [0.0, 1.0, 1.0], atol=1e-14)
        assert np.allclose(tr.bound_general, [0.0, 1.0, 1.0], atol=1e-12)
        assert np.allclose(tr.bound_specific, [0.0, 1.0, 1.0], atol=1e-12)
        assert tr.static_error == pytest.approx(1.0)

    def test_identity_chain_has_zero_error(self):
        p = validate_stochastic(np.eye(6))
        p0 = Distribution.random(6, seed=41)
        agg = pipeline_naive(p, p0, 3)
        tr = error_trace(p, p0, agg, [0, 1, 5, 20])
        assert np.abs(tr.errors).max() <= 1e-12

    def test_matches_matrix_power_oracle(self):
        p = random_chain(20, 0.4, seed=51)
        p0 = Distribution.random(20, seed=52)
        agg = pipeline_naive(p, p0, 10)
        ks = [0, 1, 2, 5, 9, 13]
        tr = error_trace(p, p0, agg, ks)
        errors, bounds = trace_oracle(p.toarray(), p0.values, agg, ks)
        assert np.abs(tr.errors - errors).max() <= 1e-10
        assert np.abs(tr.bound_specific - bounds).max() <= 1e-10

    def test_bound_chain_holds(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 30))
            j = int(rng.integers(2, min(n, 12)))
            p = random_chain(n, float(rng.uniform(0.2, 1.0)), seed=int(rng.integers(2**63)))
            p0 = Distribution.random(n, seed=int(rng.integers(2**63)))
            agg = pipeline_naive(p, p0, j)
            ks = sorted(set(int(k) for k in rng.integers(0, 50, size=6)))
            tr = error_trace(p, p0, agg, ks)
            assert np.all(tr.errors <= tr.bound_specific + 1e-8)
            assert np.all(tr.bound_specific <= tr.bound_general + 1e-8)
            assert np.all(np.diff(tr.bound_specific) >= -1e-12)

    def test_initial_error_is_measured_not_assumed(self):
        p = random_chain(6, 1.0, seed=61)
        p0 = Distribution.random(6, seed=62)
        agg = pipeline_naive(p, p0, 3)
        tr = error_trace(p, p0, agg, [0])
        assert tr.errors[0] == np.abs(agg.initial @ agg.disaggregation - p0.values).sum()

    def test_stationary_fields_present_with_stationary(self):
        p = random_chain(8, 1.0, seed=71)
        p0 = Distribution.random(8, seed=72)
        agg = pipeline_schur(p, p0, 8)
        tr = error_trace(p, p0, agg, [0, 3])
        assert tr.criterion is not None and tr.criterion <= 1e-10
        assert tr.stationary_residual is not None and tr.stationary_residual <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_vector_rejected(self, bad):
        p = random_chain(6, 0.5, seed=1)
        agg = pipeline_naive(p, Distribution.uniform(6), 3)
        with pytest.raises(InputError, match="non-finite"):
            error_trace(p, np.array([bad, 0.2, 0.2, 0.2, 0.2, 0.2]), agg, [0, 1])

    def test_ks_must_ascend(self):
        p, p0 = counterexample(0.5)
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(InputError):
            error_trace(p, p0, agg, [2, 1])
        with pytest.raises(InputError):
            error_trace(p, p0, agg, [])

    def test_policy_applies_to_recorded_errors(self):
        # the aggregated image of the counterexample is exactly zero from
        # step one on, so forcing unit norm there is a contract violation
        p, p0 = counterexample(0.5)
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(ZeroVector):
            error_trace(p, p0, agg, [0, 1], policy=ALWAYS)
        tr = error_trace(p, p0, agg, [0, 1], policy=CONDITIONAL)
        assert np.allclose(tr.errors, [0.0, 1.0], atol=1e-14)

    def test_csv_serialization_round_trips(self, tmp_path):
        p, p0 = counterexample(0.5)
        agg = pipeline_naive(p, p0, 1)
        tr = error_trace(p, p0, agg, [0, 1, 2])
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,e_k,bound_specific,bound_general"
        row = lines[2].split(",")
        assert int(row[0]) == 1
        assert float(row[1]) == tr.errors[1]
        assert float(row[2]) == tr.bound_specific[1]
        assert float(row[3]) == tr.bound_general[1]


class TestConvergenceCriterion:
    def test_exact_full_aggregation(self):
        p = random_chain(10, 1.0, seed=81)
        p0 = Distribution.random(10, seed=82)
        agg = pipeline_schur(p, p0, 10)
        assert convergence_criterion(p, agg) <= 1e-10

    def test_counterexample_value_is_one(self):
        p, p0 = counterexample(0.5)
        agg = aggregated_stationary(pipeline_naive(p, p0, 1))
        # direct dense evaluation: |0*q - q P| has row sum 1, weight |pi| = 1
        defect = exactness_defect(p, agg)
        assert np.abs(defect).sum() == pytest.approx(1.0)
        assert convergence_criterion(p, agg) == pytest.approx(1.0)

    def test_missing_stationary(self):
        p, p0 = counterexample(0.5)
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(MissingStationary):
            convergence_criterion(p, agg)

    def test_plateau_on_nearly_decoupled_chain(self):
        p = random_ncd(3, 10, 1e-3, seed=91)
        p0 = Distribution.random(30, seed=92)
        crit_half = convergence_criterion(p, pipeline_schur(p, p0, 15))
        crit_full = convergence_criterion(p, pipeline_schur(p, p0, 30))
        assert crit_full <= crit_half


def closed_form_models():
    """Acceptance models, plus a 3-cycle that deflates at size 3."""
    cycle = np.zeros((6, 6))
    cycle[0, 1] = cycle[1, 2] = cycle[2, 0] = 1.0
    cycle[3:, 3:] = 1.0 / 3.0
    return [
        (random_ncd(3, 8, 1e-3, seed=1), Distribution.random(24, seed=2)),
        (random_ncd(4, 6, 1e-4, seed=3), Distribution.random(24, seed=4)),
        counterexample(0.5),
        (random_chain(20, 0.6, seed=5), Distribution.random(20, seed=6)),
        (random_chain(40, 0.1, seed=7, sparse=True), Distribution.random(40, seed=8)),
        (validate_stochastic(cycle), Distribution.point(6, 0)),
    ]


class TestRelationCriterion:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_materialised_criterion(self, variant):
        # |closed form - materialised| <= ||pi||_1 * relation residual, up to rounding
        deflated = 0
        for p, p0 in closed_form_models():
            b = ArnoldiBuilder(p, p0, p.n, method=OrthMethod(variant))
            while not b.done:
                b.expand()
                fact = b.snapshot()
                try:
                    agg = aggregated_stationary(build_aggregation(fact, p0))
                except ComplexStationary:
                    continue
                closed = _relation_criterion(fact, agg.stationary)
                materialised = convergence_criterion(p, agg)
                slack = np.abs(agg.stationary).sum() * relation_residual(fact, p)
                ulps = 4 * np.finfo(float).eps * max(closed, materialised)
                assert abs(closed - materialised) <= slack + ulps
            deflated += b.deflated and b.size < p.n
        assert deflated >= 2  # the counterexample and the 3-cycle


class TestPipelines:
    def test_naive_equals_manual_composition(self):
        p = random_chain(9, 0.8, seed=101)
        p0 = Distribution.random(9, seed=102)
        agg = pipeline_naive(p, p0, 4)
        manual = build_aggregation(arnoldi_iterate(p, p0, 4), p0)
        assert np.array_equal(agg.step_matrix, manual.step_matrix)
        assert np.array_equal(agg.disaggregation, manual.disaggregation)
        assert np.array_equal(agg.initial, manual.initial)

    def test_naive_counterexample_values(self):
        p, p0 = counterexample(0.7)
        agg = pipeline_naive(p, p0, 1)
        assert np.array_equal(agg.step_matrix, [[0.0]])
        assert np.array_equal(agg.initial, [1.0])
        assert agg.stationary is None

    def test_schur_identity_chain(self):
        p = validate_stochastic(np.eye(5))
        p0 = Distribution.random(5, seed=111)
        agg = pipeline_schur(p, p0, 3)
        q1 = p0.values / np.linalg.norm(p0.values)
        assert np.allclose(agg.stationary, [1.0 / np.abs(q1).sum()], atol=1e-12)

    def test_schur_counterexample(self):
        p, p0 = counterexample(0.5)
        agg = pipeline_schur(p, p0, 1)
        assert np.allclose(agg.stationary, [1.0], atol=1e-14)

    def test_schur_stationary_residual_against_oracle(self):
        p = random_chain(12, 1.0, seed=121)
        p0 = Distribution.random(12, seed=122)
        agg = pipeline_schur(p, p0, 12)
        image = agg.stationary @ agg.disaggregation
        pd = p.toarray()
        assert np.abs(image - image @ pd).sum() <= 1e-8
        assert np.abs(image - power_iteration_stationary(pd)).sum() <= 1e-6


class TestPipelineDynamic:
    def test_identity_chain_stops_at_size_one(self):
        p = validate_stochastic(np.eye(4))
        p0 = Distribution.random(4, seed=131)
        agg = pipeline_dynamic(p, p0, 3, 1e-8, step_size=1)
        assert agg.size == 1
        assert agg.criterion <= 1e-8

    def test_counterexample_does_not_stop_at_size_one(self):
        p, p0 = counterexample(0.5)
        agg = pipeline_dynamic(p, p0, 3, 0.5, step_size=1)
        assert agg.size > 1

    def test_agreement_with_exhaustive_sweep(self, rng):
        for _ in range(4):
            blocks = int(rng.integers(2, 5))
            bs = int(rng.integers(4, 9))
            n = blocks * bs
            p = random_ncd(blocks, bs, 1e-3, seed=int(rng.integers(2**63)))
            p0 = Distribution.random(n, seed=int(rng.integers(2**63)))
            s = int(rng.integers(1, 4))
            eps = 1e-8
            jstar = smallest_passing_size(p, p0, eps, n)
            agg = pipeline_dynamic(p, p0, n, eps, step_size=s)
            assert jstar <= agg.size <= jstar + s - 1
            assert agg.criterion <= eps

    def test_stationary_and_criterion_attached(self):
        p = random_chain(10, 0.5, seed=141)
        p0 = Distribution.random(10, seed=142)
        agg = pipeline_dynamic(p, p0, 10, 1e-10, step_size=2)
        assert agg.stationary is not None
        assert agg.criterion is not None

    @pytest.mark.parametrize("sparse", [False, True])
    def test_defect_never_materialised(self, monkeypatch, sparse):
        def boom(*args, **kwargs):
            raise AssertionError("pipeline_dynamic materialised a j x n product")

        p = random_chain(300, 0.05, seed=151, sparse=sparse)
        p0 = Distribution.random(300, seed=152)
        monkeypatch.setattr(StochasticMatrix, "mat_mul", boom)
        agg = pipeline_dynamic(p, p0, 40, 1e-10, step_size=3)
        monkeypatch.undo()
        assert not agg.step_matrix.flags.writeable
        assert not agg.disaggregation.flags.writeable
        fact = arnoldi_iterate(p, p0, agg.size)
        slack = np.abs(agg.stationary).sum() * relation_residual(fact, p)
        assert abs(agg.criterion - convergence_criterion(p, agg)) <= slack + 1e-15

    def test_parameter_validation(self):
        p, p0 = counterexample(0.5)
        for epsilon in (0.0, np.inf, np.nan):
            with pytest.raises(InputError):
                pipeline_dynamic(p, p0, 3, epsilon)
        with pytest.raises(InputError):
            pipeline_dynamic(p, p0, 3, 1e-8, step_size=0)
