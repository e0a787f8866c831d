from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from arnagg.aggregate import (
    ALWAYS,
    CONDITION_TOL,
    CONDITIONAL,
    ENTRY_CAP,
    NEVER,
    ErrorTrace,
    NormalizationPolicy,
    _border,
    _error_traces,
    _estimated_criterion,
    _should_normalize,
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
from arnagg.arnoldi import (
    Aggregation,
    ArnoldiBuilder,
    ArnoldiFactorization,
    arnoldi_iterate,
    build_aggregation,
    relation_residual,
)
from arnagg.errors import (
    ComplexStationary,
    DimensionMismatch,
    InputError,
    MissingStationary,
    NumericalError,
    ZeroVector,
)
from arnagg.mchain import (
    Distribution,
    StochasticMatrix,
    abs_row_sums,
    inf_norm,
    weighted_abs_row_sums,
)
from arnagg.models import counterexample, random_chain, random_ncd
from arnagg.orthonorm import CGS, CGSIR, VARIANTS, OrthMethod, orthogonality_loss
from arnagg.schur import aggregated_stationary

from oracles import (
    conditional_by_five_rules,
    defect_rows_by_gemm,
    dynamic_geev_every_size,
    estimate_by_solve,
    padded_defect_rows,
    power_iteration_stationary,
    trace_by_padded_rows,
    transient_by_power,
)


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
        p = StochasticMatrix(np.eye(3))
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

    @pytest.mark.parametrize("entry", [aggregated_step, approximate])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_vector_rejected(self, entry, bad):
        p = random_chain(6, 0.5, seed=1)
        agg = pipeline_naive(p, Distribution.uniform(6), 2)
        with pytest.raises(InputError, match="^aggregated vector has non-finite entries$"):
            entry(agg, [bad, 1.0])


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

    def test_rule_distance_to_simplex_at_least_one(self):
        # 1-norm 1.2 and sum 0: at distance 1 from every distribution.
        out = normalize(np.array([0.6, -0.6]), CONDITIONAL)
        assert np.allclose(out.values, [0.5, -0.5], atol=1e-15)

    def test_many_small_positive_entries_left_alone(self):
        # 1-norm 1.5 and every entry at most 1e-6; rescaling would raise the
        # error against 1e-6 on the first half and 0 on the second from 0.5 to 2/3.
        v = np.repeat([1e-6, 5e-7], 1_000_000)
        assert np.array_equal(normalize(v, CONDITIONAL).values, v)
        exact = np.repeat([1e-6, 0.0], 1_000_000)
        assert np.abs(v - exact).sum() == pytest.approx(0.5)
        assert np.abs(v / 1.5 - exact).sum() == pytest.approx(2.0 / 3.0)

    def test_entry_below_the_cap_left_alone(self):
        # Rescaling would raise the error against e_1 by 3 - 2 sqrt(2.2), so
        # the cap of condition (b) cannot be lowered to 1.1.
        v = np.array([1.1, 1.1 - np.sqrt(2.2)])
        assert np.array_equal(normalize(v, CONDITIONAL).values, v)
        exact = np.array([1.0, 0.0])
        raised = np.abs(v / np.abs(v).sum() - exact).sum() - np.abs(v - exact).sum()
        assert raised == pytest.approx(3.0 - 2.0 * np.sqrt(2.2), abs=1e-12)

    def test_always(self):
        out = normalize(np.array([2.0, 2.0]), ALWAYS)
        assert np.array_equal(out.values, [0.5, 0.5])

    def test_overflowing_one_norm_of_finite_vector(self):
        out = normalize(np.array([1e308, 1e308]), ALWAYS)
        assert np.array_equal(out.values, [0.5, 0.5])

    def test_never(self):
        v = np.array([5.0, -3.0])
        assert np.array_equal(normalize(v, NEVER).values, v)

    @pytest.mark.parametrize("policy", [NEVER, CONDITIONAL, ALWAYS], ids=lambda p: p.mode)
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_entry_rejected(self, policy, entry):
        # RuntimeWarning is an error in this suite, so this also checks silence.
        with pytest.raises(InputError, match="non-finite"):
            normalize(np.array([entry, 1.0]), policy)

    def test_zero_vector_error(self):
        with pytest.raises(ZeroVector):
            normalize(np.zeros(3), ALWAYS)

    def test_conditional_never_triggers_on_zero(self):
        out = normalize(np.zeros(3), CONDITIONAL)
        assert np.array_equal(out.values, np.zeros(3))

    def test_policy_validation(self):
        with pytest.raises(InputError):
            NormalizationPolicy("sometimes")
        assert parse_policy("cond").mode == "conditional"

    def test_parse_policy_lowercases_and_leaves_the_rest_to_the_policy(self):
        assert parse_policy("Always") == ALWAYS
        assert parse_policy("CONDITIONAL") == CONDITIONAL
        with pytest.raises(InputError, match="unknown normalization mode 'sometimes'"):
            parse_policy("Sometimes")


def rescaling_does_not_hurt(v, exact) -> bool:
    """Criterion 7's test: rescaling ``v`` to unit 1-norm does not raise its error."""
    rescaled = v / np.abs(v).sum()
    return np.abs(rescaled - exact).sum() <= np.abs(v - exact).sum() + 1e-12


def with_mass(v, mass):
    """Nonzero ``v`` scaled to 1-norm ``mass``, without overflow on subnormal entries."""
    u = v / np.abs(v).max()
    return u * (mass / np.abs(u).sum())


def distance_to_simplex_at_least_one(v, i, t):
    """``v`` scaled to 1-norm ``1 + t`` and signed so that its sum is at most 0."""
    if not v.any():
        return None
    w = with_mass(v, 1.0 + t)
    return w if w.sum() <= 0.0 else -w


# Sufficient conditions for rescaling not to raise the error: the conditional
# policy's (a) (``proven_distance_to_simplex_at_least_one``) and (b)
# (``conjectured_entry_at_least_nine_eighths``), and the rules they replaced.
# Each maps a drawn vector, an index and a fraction t in [0, 1] to a vector
# meeting it, or None.
RESCALING_RULES = {
    "proven_distance_to_simplex_at_least_one": distance_to_simplex_at_least_one,
    "proven_mass_at_least_two": lambda v, i, t: v if np.abs(v).sum() >= 2.0 else None,
    "proven_nonpositive_mass_at_least_one":
        lambda v, i, t: -np.abs(v) if np.abs(v).sum() >= 1.0 else None,
    "conjectured_entry_at_most_minus_one":
        lambda v, i, t: np.where(np.arange(len(v)) == i, -1.0 - 3.0 * t, v),
    "conjectured_entry_at_least_nine_eighths":
        lambda v, i, t: np.where(np.arange(len(v)) == i, 9.0 / 8.0 + (4.0 - 9.0 / 8.0) * t, v),
    "conjectured_sum_without_largest_at_most_minus_one":
        lambda v, i, t: v if v.sum() - v.max() <= -1.0 else None,
}


@st.composite
def rescaling_cases(draw):
    """A vector with entries in [-4, 4], a distribution, an index and a fraction."""
    d = draw(st.integers(2, 10))
    v = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    assume(weights.sum() > 0.0)
    return v, weights / weights.sum(), draw(st.integers(0, d - 1)), draw(st.floats(0.0, 1.0))


def nonpositive_mass_at_one(v, i):
    """``-|v|`` with entry i raised to the slack and 1-norm ``1 - CONDITION_TOL``."""
    w = -np.abs(v)
    w[i] = 0.0
    if not w.any():
        w[i - 1] = -1.0
    w = with_mass(w, 1.0 - 2.0 * CONDITION_TOL)
    w[i] = CONDITION_TOL
    return w


# Moves onto one threshold of the five rules, each with its slack: a drawn
# vector and an index map to a vector on that threshold.
FIVE_RULE_THRESHOLDS = {
    "none": lambda v, i: v,
    "entry_at_minus_one":
        lambda v, i: np.where(np.arange(len(v)) == i, -1.0 - CONDITION_TOL, v),
    "entry_at_the_cap":
        lambda v, i: np.where(np.arange(len(v)) == i, ENTRY_CAP + CONDITION_TOL, v),
    "mass_at_two": lambda v, i: with_mass(v, 2.0 - CONDITION_TOL),
    "nonpositive_mass_at_one": nonpositive_mass_at_one,
    "sum_without_largest_at_minus_one": lambda v, i: np.where(
        np.arange(len(v)) == (np.argmax(v) + 1) % len(v),
        v - (v.sum() - v.max() + 1.0 + CONDITION_TOL), v),
}


@st.composite
def five_rule_cases(draw):
    """A nonzero vector of 2-10 entries in [-4, 4], possibly moved onto a threshold."""
    d = draw(st.integers(2, 10))
    v = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)))
    assume(v.any())
    return FIVE_RULE_THRESHOLDS[draw(st.sampled_from(list(FIVE_RULE_THRESHOLDS)))](
        v, draw(st.integers(0, d - 1)))


class TestRescalingRules:
    """Sufficient conditions for rescaling, against generated distributions."""

    @pytest.mark.parametrize("rule", list(RESCALING_RULES))
    @settings(max_examples=200)
    @given(rescaling_cases())
    def test_rescaling_does_not_raise_the_error(self, rule, case):
        v, exact, i, t = case
        v = RESCALING_RULES[rule](v, i, t)
        assume(v is not None)
        assert rescaling_does_not_hurt(v, exact)

    @settings(max_examples=1000)
    @given(five_rule_cases())
    def test_conditional_rescales_what_the_five_rules_rescale(self, v):
        assert _should_normalize(v, CONDITIONAL) or not conditional_by_five_rules(v)


# Size-1 step matrix [[1.187]]: the aggregated vector overflows at step 4144.
OVERFLOWING_CHAINS = [
    (StochasticMatrix(np.array([[0.0, 1.0], [0.0, 1.0]])), Distribution(np.array([0.36, 0.64]))),
    (StochasticMatrix(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
     Distribution(np.array([0.36, 0.64, 0.0]))),
]


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
        p = StochasticMatrix(np.eye(6))
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
        image = agg.stationary @ agg.disaggregation
        assert np.abs(image - image @ p.toarray()).sum() <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_vector_rejected(self, bad):
        p = random_chain(6, 0.5, seed=1)
        agg = pipeline_naive(p, Distribution.uniform(6), 3)
        with pytest.raises(InputError, match="non-finite"):
            error_trace(p, np.array([bad, 0.2, 0.2, 0.2, 0.2, 0.2]), agg, [0, 1])

    @pytest.mark.parametrize("p, p0", OVERFLOWING_CHAINS, ids=["absorbing", "with_isolated_state"])
    def test_overflowing_walk_raises(self, p, p0):
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(NumericalError, match="size-1 .* at step 5000"):
            error_trace(p, p0, agg, [0, 5000])

    def test_values_past_float_range_read_inf(self):
        p, p0 = OVERFLOWING_CHAINS[0]
        tr = error_trace(p, p0, pipeline_naive(p, p0, 1), [4140, 4143])
        assert np.isinf(tr.bound_specific).all() and np.isinf(tr.bound_general).all()
        assert np.isfinite(tr.errors[0]) and np.isinf(tr.errors[1])

    @pytest.mark.parametrize("policy", [CONDITIONAL, ALWAYS], ids=["conditional", "always"])
    def test_rescaling_survives_an_overflowing_one_norm(self, policy):
        # At k=4143 the image is finite but its 1-norm is not; the rescaled
        # image is the same as at k=100, (0.36, 0.64) against the chain's (0, 1).
        p, p0 = OVERFLOWING_CHAINS[0]
        tr = error_trace(p, p0, pipeline_naive(p, p0, 1), [100, 4143], policy=policy)
        assert np.allclose(tr.errors, [0.72, 0.72], rtol=1e-12)

    def test_ks_must_ascend(self):
        p, p0 = counterexample(0.5)
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(InputError):
            error_trace(p, p0, agg, [2, 1])
        with pytest.raises(InputError):
            error_trace(p, p0, agg, [])

    @pytest.mark.parametrize("ks, got", [
        ([0, 2.5], "2.5"), ([np.nan], "nan"), ([np.inf], "inf"), (["3"], "'3'"),
    ], ids=["fraction", "nan", "inf", "string"])
    def test_ks_must_be_integers(self, ks, got):
        # A step count is never truncated: [0, 2.5] used to read step 2.
        p, p0 = counterexample(0.5)
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(InputError, match=f"^step count must be an integer, got {got}$"):
            error_trace(p, p0, agg, ks)

    def test_aggregation_of_another_chain_rejected(self):
        p, p0 = counterexample(0.5)
        other = random_chain(4, 1.0, seed=2)
        agg = pipeline_naive(other, Distribution.uniform(4), 2)
        with pytest.raises(DimensionMismatch, match="disagree on n"):
            error_trace(p, p0, agg, [0, 1])

    def test_policy_applies_to_recorded_errors(self):
        # the aggregated image of the counterexample is exactly zero from
        # step one on, so forcing unit norm there is a contract violation
        p, p0 = counterexample(0.5)
        agg = pipeline_naive(p, p0, 1)
        with pytest.raises(ZeroVector):
            error_trace(p, p0, agg, [0, 1], policy=ALWAYS)
        tr = error_trace(p, p0, agg, [0, 1], policy=CONDITIONAL)
        assert np.allclose(tr.errors, [0.0, 1.0], atol=1e-14)


def draw_start(draw, n, seed):
    """A random (seeded), uniform or point start vector of length n."""
    start = draw(st.sampled_from(["random", "uniform", "point"]))
    if start == "random":
        return Distribution.random(n, seed=seed)
    if start == "uniform":
        return Distribution.uniform(n)
    return Distribution.point(n, draw(st.integers(0, n - 1)))


@st.composite
def shared_walk_cases(draw):
    """A chain, a start vector, nested aggregations of it, step counts and a policy."""
    n = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    p = random_chain(n, draw(st.sampled_from([0.2, 0.5, 1.0])), seed=seed,
                     sparse=draw(st.booleans()))
    p0 = draw_start(draw, n, seed + 1)
    sizes = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=5)))
    method = OrthMethod(draw(st.sampled_from(VARIANTS)))
    # Snapshots of one builder, as arnagg sweep takes them; a size past a
    # deflation gets the deflated aggregation.
    builder = ArnoldiBuilder(p, p0, sizes[-1], method=method)
    aggs = []
    for size in sizes:
        while builder.size < size and not builder.done:
            builder.expand()
        agg = build_aggregation(builder.snapshot(), p0)
        try:
            agg = aggregated_stationary(agg)
        except ComplexStationary:
            pass
        # A size built by hand walks its materialised defect next to the
        # Krylov ones.
        aggs.append(replace(agg, residual=None) if draw(st.booleans()) else agg)
    ks = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=6)))
    policy = draw(st.sampled_from([NEVER, CONDITIONAL, ALWAYS]))
    return p, p0, aggs, ks, policy


@st.composite
def bound_cases(draw):
    """A chain, a start vector, an aggregation size and method, step counts."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        p = random_chain(draw(st.integers(2, 40)), draw(st.floats(0.02, 1.0)), seed=seed,
                         sparse=draw(st.booleans()))
    else:
        p = random_ncd(draw(st.integers(2, 5)), draw(st.integers(2, 8)),
                       draw(st.sampled_from([1e-2, 1e-4, 1e-6])), seed=seed)
    p0 = draw_start(draw, p.n, seed + 1)
    method = OrthMethod(draw(st.sampled_from(VARIANTS)))
    size = draw(st.integers(1, p.n))
    return p, p0, size, method, sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=8)))


def bound_case_trace(case) -> ErrorTrace:
    p, p0, size, method, ks = case
    return error_trace(p, p0, pipeline_naive(p, p0, size, method=method), ks)


class TestErrorTraces:
    @settings(max_examples=80)
    @given(shared_walk_cases())
    def test_shared_walk_matches_one_trace_per_aggregation(self, case):
        p, p0, aggs, ks, policy = case
        try:
            expected = [error_trace(p, p0, agg, ks, policy=policy) for agg in aggs]
        except ZeroVector:
            with pytest.raises(ZeroVector):
                _error_traces(p, p0, aggs, ks, policy=policy)
            return
        got = _error_traces(p, p0, aggs, ks, policy=policy)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            for name in ("steps", "errors", "bound_specific", "bound_general"):
                assert getattr(g, name).tobytes() == getattr(e, name).tobytes(), name
            for name in ("static_error", "criterion"):
                assert getattr(g, name) == getattr(e, name), name

    @pytest.mark.parametrize("sparse, hand", [(False, False), (True, False),
                                              (False, True), (True, True)],
                             ids=["dense", "csr", "dense_by_hand", "csr_by_hand"])
    def test_defect_rows_cost_no_chain_product(self, monkeypatch, sparse, hand):
        p = random_chain(40, 0.3, seed=81, sparse=sparse)
        p0 = Distribution.random(40, seed=82)
        builder = ArnoldiBuilder(p, p0, 9)
        aggs = []
        for j in (3, 6, 9):
            while builder.size < j:
                builder.expand()
            aggs.append(build_aggregation(builder.snapshot(), p0))
        if hand:
            aggs[1] = replace(aggs[1], residual=None)
        calls = []

        def counting(name):
            real = getattr(StochasticMatrix, name)
            return lambda self, a: calls.append(name) or real(self, a)

        for name in ("vec_mul", "mat_mul"):
            monkeypatch.setattr(StochasticMatrix, name, counting(name))
        _error_traces(p, p0, aggs, [0, 5])
        # Five walk steps; a Krylov defect is read off the Arnoldi relation,
        # and only the one built by hand is materialised, once.
        assert calls == ["mat_mul"] * hand + ["vec_mul"] * 5


@st.composite
def nested_block_cases(draw):
    """A chain, a start vector, nested Krylov factorizations of it and step counts."""
    kind = draw(st.sampled_from(["dense", "csr", "ncd", "deflating"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "ncd":
        p = random_ncd(draw(st.integers(2, 4)), draw(st.integers(2, 8)),
                       draw(st.sampled_from([1e-2, 1e-4, 1e-6])), seed=seed)
        p0 = Distribution.random(p.n, seed=seed + 1)
    elif kind == "deflating":
        # A permutation chain from a point start deflates at the length of
        # the start's cycle.
        n = draw(st.integers(2, 30))
        p = StochasticMatrix(np.eye(n)[np.random.default_rng(seed).permutation(n)])
        p0 = Distribution.point(n, draw(st.integers(0, n - 1)))
    else:
        n = draw(st.integers(2, 40))
        p = random_chain(n, draw(st.floats(0.05, 1.0)), seed=seed, sparse=kind == "csr")
        p0 = Distribution.random(n, seed=seed + 1)
    method = OrthMethod(draw(st.sampled_from(VARIANTS)))
    sizes = sorted(draw(st.sets(st.integers(1, p.n), min_size=1, max_size=6)))
    # Snapshots of one builder; a size past a deflation gets the deflated one.
    builder = ArnoldiBuilder(p, p0, sizes[-1], method=method)
    facts = []
    for j in sizes:
        while builder.size < j and not builder.done:
            builder.expand()
        facts.append(builder.snapshot())
    ks = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=4)))
    return p, p0, facts, ks


def leading_block(agg, j):
    return Aggregation(step_matrix=agg.step_matrix[:j, :j],
                       disaggregation=agg.disaggregation[:j], initial=agg.initial[:j])


def step_sums(agg, ks, weight):
    """``sum(weight(pi_i, i) for i < k)`` for each k in ``ks``, along the aggregated walk."""
    pi, total, out = agg.initial, 0.0, []
    for i in range(ks[-1] + 1):
        if i in ks:
            out.append(total)
        total += weight(pi, i)
        pi = pi @ agg.step_matrix
    return np.array(out)


class TestDefectRows:
    @settings(max_examples=150)
    @given(nested_block_cases())
    def test_relation_rows_match_the_gemm_defect(self, case):
        p, p0, facts, ks = case
        largest = build_aggregation(facts[-1], p0)
        for fact in facts:
            agg = build_aggregation(fact, p0)
            try:
                agg = aggregated_stationary(agg)
            except ComplexStationary:
                pass
            # An aggregation built by hand reads exactly the GEMM rows.
            by_hand = replace(agg, residual=None)
            for hand in (by_hand, leading_block(largest, agg.size)):
                rows = padded_defect_rows(p, hand)
                assert rows.tobytes() == defect_rows_by_gemm(p, hand).tobytes()
            got, want = error_trace(p, p0, agg, ks), error_trace(p, p0, by_hand, ks)
            assert got.errors.tobytes() == want.errors.tobytes()
            # Each relation row differs from its GEMM row by at most the
            # relation residual plus the GEMM's rounding, which is at most
            # gamma_{n+j} times that row's sum of |H||Q| + |Q||P| (Higham,
            # section 3.5).  So every quantity moves by at most the 1-norm
            # of its weights times the largest such difference: ||pi_i||_1
            # summed over the steps taken for the specific bound, the
            # majorant of that 1-norm for the general one.
            h, q = agg.step_matrix, agg.disaggregation
            scale = np.abs(h) @ abs_row_sums(q) + np.abs(q) @ abs_row_sums(p)
            nu = (p.n + agg.size) * np.finfo(float).eps / 2
            row_slack = relation_residual(fact, p) + nu / (1 - nu) * scale.max()
            inf_step = inf_norm(h)
            mass = float(np.abs(agg.initial).sum())
            weights = {
                "static_error": 1.0,
                "bound_specific": step_sums(agg, ks, lambda pi, i: np.abs(pi).sum()),
                "bound_general": step_sums(agg, ks, lambda pi, i: mass * inf_step ** i),
            }
            if agg.stationary is not None:
                weights["criterion"] = np.abs(agg.stationary).sum()
            else:
                assert got.criterion is None and want.criterion is None
            for name, weight in weights.items():
                g, w = getattr(got, name), getattr(want, name)
                ulps = 4 * np.finfo(float).eps * np.maximum(np.abs(g), np.abs(w))
                assert np.all(np.abs(g - w) <= weight * row_slack + ulps), name


class TestOneDefectNumber:
    @settings(max_examples=150)
    @given(nested_block_cases(), st.sampled_from([NEVER, CONDITIONAL, ALWAYS]))
    def test_trace_equals_the_padded_rows_walk(self, case, policy):
        p, p0, facts, ks = case
        largest = build_aggregation(facts[-1], p0)
        for fact in facts:
            agg = build_aggregation(fact, p0)
            try:
                agg = aggregated_stationary(agg)
            except ComplexStationary:
                pass
            for each in (agg, replace(agg, residual=None), leading_block(largest, agg.size)):
                try:
                    want = trace_by_padded_rows(p, p0, each, ks, policy=policy)
                except ZeroVector:
                    with pytest.raises(ZeroVector):
                        error_trace(p, p0, each, ks, policy=policy)
                    continue
                got = error_trace(p, p0, each, ks, policy=policy)
                for name in ("steps", "errors", "bound_specific", "bound_general"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                for name in ("static_error", "criterion"):
                    assert getattr(got, name) == getattr(want, name), name


class TestBoundChainProperty:
    """Acceptance criterion 4's chain of bounds, with its tolerances, beyond its seeds."""

    @settings(max_examples=100)
    @given(bound_cases())
    def test_error_below_specific_bound(self, case):
        tr = bound_case_trace(case)
        assert np.all(tr.errors <= tr.bound_specific + 1e-8)

    # P = [[0, 1], [0, 1]] from (0.36, 0.64): the size-1 step matrix is
    # [[1.187]], so both bounds are the same geometric sum, 5.2e11 at k=150.
    COINCIDING_BOUNDS = (StochasticMatrix(np.array([[0.0, 1.0], [0.0, 1.0]])),
                         Distribution(np.array([0.36, 0.64])), 1, CGSIR, [150])

    @settings(max_examples=100, phases=[Phase.explicit, Phase.generate])
    @example(COINCIDING_BOUNDS)
    @given(bound_cases())
    def test_specific_below_general_bound(self, case):
        tr = bound_case_trace(case)
        assert np.all(tr.bound_specific + 1e-8 <= tr.bound_general + 1e-6)

    def test_coinciding_bounds_are_equal(self):
        # both bounds take the same products in the same order at size 1
        p, p0, size, method, _ = self.COINCIDING_BOUNDS
        tr = bound_case_trace((p, p0, size, method, [0, 1, 2, 150, 1000, 4000]))
        assert tr.bound_specific.tobytes() == tr.bound_general.tobytes()


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
        (StochasticMatrix(cycle), Distribution.point(6, 0)),
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
                closed = error_trace(p, p0, agg, [0]).criterion
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
        p = StochasticMatrix(np.eye(5))
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


def estimate_pool():
    """NCD chains at couplings 1e-3 and 1e-4, plus a 3-cycle that deflates.

    Coupling 1e-12 puts six eigenvalues of the chain within about 1e-12 of 1,
    so ``H^T - I`` is nearly singular in several directions; RuntimeWarning
    is an error in this suite.  The sparse 300-state chain stops near size
    43 at epsilon 1e-12, with CSR storage and basis rows of mixed sign.
    """
    cycle = np.zeros((6, 6))
    cycle[0, 1] = cycle[1, 2] = cycle[2, 0] = 1.0
    cycle[3:, 3:] = 1.0 / 3.0
    near_singular = random_ncd(6, 10, 1e-12, seed=[7, 2])
    pool = [(StochasticMatrix(cycle), Distribution.point(6, 0), 1e-8),
            (near_singular, Distribution.random(60, seed=[8, 2]), 1e-8)]
    for coupling in (1e-3, 1e-4):
        for c in range(2):
            p = random_ncd(6, 10, coupling, seed=[7, c])
            pool.append((p, Distribution.random(p.n, seed=[8, c]), 1e-8))
    sparse = random_chain(300, 0.02, seed=[9, 0], sparse=True)
    pool.append((sparse, Distribution.random(sparse.n, seed=[8, 0]), 1e-12))
    return pool


def bordered_inverse(hessenberg):
    """``(H^T - I)^-1`` grown by ``_border`` one size at a time; None on breakdown."""
    h = np.asarray(hessenberg, dtype=float)
    inverse = np.empty((0, 0))
    for j in range(1, len(h) + 1):
        inverse = _border(inverse, h[:j, :j])
        if inverse is None:
            return None
    return inverse


def dynamic_outcome(run, *args, **kwargs):
    try:
        agg = run(*args, **kwargs)
    except ComplexStationary as exc:
        return str(exc)
    return agg.size, agg.stationary, agg.criterion


@st.composite
def dynamic_cases(draw):
    """An NCD chain (2-6 blocks of 3-10 states, coupling 1e-2 to 1e-6) or a
    dense or sparse random chain, with a start vector and pipeline settings."""
    kind = draw(st.sampled_from(["ncd", "dense", "sparse"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "ncd":
        coupling = 10.0 ** -draw(st.floats(2.0, 6.0))
        p = random_ncd(draw(st.integers(2, 6)), draw(st.integers(3, 10)), coupling, seed=seed)
    else:
        p = random_chain(draw(st.integers(10, 80)), draw(st.floats(0.02, 1.0)), seed=seed,
                         sparse=kind == "sparse")
    p0 = Distribution.random(p.n, seed=[seed, 1])
    epsilon = draw(st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10, 1e-12]))
    kwargs = dict(step_size=draw(st.integers(1, 3)),
                  method=OrthMethod(draw(st.sampled_from(VARIANTS))))
    return (p, p0, p.n, epsilon), kwargs


class TestCriterionEstimate:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("step_size", [1, 3])
    def test_pipeline_matches_geev_at_every_size(self, variant, step_size):
        for p, p0, eps in estimate_pool():
            args = (p, p0, p.n, eps)
            kwargs = dict(step_size=step_size, method=OrthMethod(variant))
            got = dynamic_outcome(pipeline_dynamic, *args, **kwargs)
            want = dynamic_outcome(dynamic_geev_every_size, *args, **kwargs)
            if isinstance(want, str):
                assert got == want
                continue
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    @settings(max_examples=200)
    @given(dynamic_cases())
    def test_margin_keeps_every_result_of_geev_at_every_size(self, case):
        args, kwargs = case
        got = dynamic_outcome(pipeline_dynamic, *args, **kwargs)
        want = dynamic_outcome(dynamic_geev_every_size, *args, **kwargs)
        if isinstance(want, str):
            assert got == want
            return
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]

    def count_geev(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(len(a)) or eig(a))
        return calls

    def test_geev_only_near_the_stop_size(self, monkeypatch):
        p = random_ncd(6, 10, 1e-3, seed=[1, 0])
        p0 = Distribution.random(p.n, seed=[1, 1])
        calls = self.count_geev(monkeypatch)
        agg = pipeline_dynamic(p, p0, p.n, 1e-8)
        assert agg.size >= 30
        assert calls == [agg.size]

    def test_border_breakdown_falls_back_to_geev_everywhere(self, monkeypatch):
        p = random_ncd(6, 10, 1e-4, seed=[7, 1])
        p0 = Distribution.random(p.n, seed=[8, 1])
        want = dynamic_geev_every_size(p, p0, p.n, 1e-8, step_size=2)
        calls = self.count_geev(monkeypatch)
        # The border breaks down at size 1, so no size gets an estimate.
        monkeypatch.setattr("arnagg.aggregate._border", lambda inverse, h: None)
        got = pipeline_dynamic(p, p0, p.n, 1e-8, step_size=2)
        assert calls == list(range(2, want.size + 1, 2))
        assert np.array_equal(got.stationary, want.stationary)
        assert got.criterion == want.criterion

    @staticmethod
    def factorization(hessenberg):
        j = len(hessenberg)
        return ArnoldiFactorization(basis=np.eye(j), hessenberg=np.array(hessenberg),
                                    residual_norm=0.5, residual_direction=np.ones(j),
                                    deflated=False)

    @pytest.mark.parametrize("hessenberg", [
        [[1.0, 0.0], [0.0, 0.5]],                        # Schur complement 0 at size 1
        [[1.0 + 2.0 ** -52, 0.0], [1e300, 1.0 + 2.0 ** -52]],  # W u overflows at size 2
    ], ids=["singular", "overflow"])
    def test_near_singular_shift_gives_no_estimate(self, hessenberg):
        # The border breaks down, which ends the run's estimates.  RuntimeWarning
        # is an error in this suite, so this also checks silence.
        assert bordered_inverse(hessenberg) is None

    def test_unsettled_iteration_gives_no_estimate(self):
        # Left eigenvalues 0.99 and 0.97: |x_2| shrinks threefold a step.
        warm = np.array([1.0, 0.1])
        assert _estimated_criterion(bordered_inverse([[0.99, 0.0], [0.0, 0.97]]), 1.0, warm,
                                    np.ones(2)) is None
        assert warm[1] == pytest.approx(0.1 / 9, rel=1e-2)

    def test_estimate_is_the_criterion_of_the_iterate(self):
        # Left eigenvalues 0.973 and 0.627: two steps from e_1 nearly converge.
        fact = self.factorization([[0.9, 0.1], [0.2, 0.7]])
        agg = aggregated_stationary(build_aggregation(fact, [1.0, 0.0]))
        warm = np.array([1.0, 0.0])
        estimate = _estimated_criterion(bordered_inverse(fact.hessenberg), agg.residual, warm,
                                        fact.basis.sum(axis=1))
        assert abs(warm @ agg.stationary) / np.linalg.norm(agg.stationary) > 0.999
        iterate = np.abs(warm / np.abs(warm).sum())
        # A Krylov aggregation weighs its defect by its last entry alone.
        assert estimate == float(iterate[-1]) * agg.residual

    def test_estimate_reads_no_basis_row(self):
        # Scaling by the row sums needs only H, the residual and the sums.
        fact = ArnoldiFactorization(basis=None, hessenberg=np.array([[0.9, 0.1], [0.2, 0.7]]),
                                    residual_norm=0.5, residual_direction=np.ones(2),
                                    deflated=False)
        estimate = _estimated_criterion(bordered_inverse(fact.hessenberg), 1.0,
                                        np.array([1.0, 0.0]), np.ones(2))
        assert estimate == pytest.approx(0.2667, abs=1e-4)

    def test_bordered_estimate_matches_the_solves(self):
        # Both estimates start from e_1 at every size before the stop size.  Each
        # iterate's direction errs by O(kappa u), kappa the largest condition number
        # of H_i^T - I over i <= j (see the next test), so the two unit iterates
        # differ by at most kappa u (measured: 0.057 kappa u here, 0.061 kappa u over
        # all six variants run to full size).  The estimate is |z_j| / |z @ row_sums|
        # times the residual, so to first order it moves relatively by at most
        # ||dz|| (1 / |z_j| + ||row_sums|| / |z @ row_sums|).  The largest relative
        # difference here is 2.4e-10, 3.1% of that bound.
        u = np.finfo(float).eps
        compared = 0
        for p, p0, eps in estimate_pool():
            stop = pipeline_dynamic(p, p0, p.n, eps).size
            builder = ArnoldiBuilder(p, p0, stop)
            inverse = np.empty((0, 0))
            kappa = 0.0
            builder.expand()
            while not builder.done:
                j = builder.size
                inverse = _border(inverse, builder.hessenberg)
                kappa = max(kappa, np.linalg.cond(builder.hessenberg.T - np.eye(j)))
                row_sums = builder.basis.sum(axis=1)
                residual = builder.residual_norm * np.abs(builder.residual_direction).sum()
                x = np.eye(j)[0]
                z = x.copy()
                got = _estimated_criterion(inverse, residual, x, row_sums)
                want = estimate_by_solve(builder.hessenberg, residual, z, row_sums)
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.linalg.norm(x - z) <= kappa * u
                    slack = 1 / abs(z[-1]) + np.linalg.norm(row_sums) / abs(z @ row_sums)
                    assert abs(got - want) <= kappa * u * slack * want
                    compared += 1
                builder.expand()
        assert compared >= 200

    def test_warm_start_is_the_last_iterate_padded_with_zeros(self, monkeypatch):
        starts, iterates = [], []

        def recorded(inverse, residual, x, row_sums):
            starts.append(x.copy())
            estimate = estimated(inverse, residual, x, row_sums)
            iterates.append(x.copy())
            return estimate

        estimated = _estimated_criterion
        monkeypatch.setattr("arnagg.aggregate._estimated_criterion", recorded)
        p = random_ncd(6, 10, 1e-3, seed=[7, 0])
        pipeline_dynamic(p, Distribution.random(p.n, seed=[8, 0]), p.n, 1e-8, step_size=3)
        assert len(starts) >= 10
        assert np.array_equal(starts[0], [1.0, 0.0, 0.0])
        for start, last in zip(starts[1:], iterates):
            assert np.array_equal(start, np.concatenate([last, np.zeros(len(start) - len(last))]))

    @pytest.mark.parametrize("step_size", [1, 3])
    def test_border_matches_the_inverse_at_every_size(self, monkeypatch, step_size):
        # Bordering is elimination without pivoting, so W carries the rounding of
        # every leading block: kappa is the largest 2-norm condition number of
        # H_i^T - I over i <= j.  With kappa of H_j^T - I alone, the first
        # coupling-1e-3 chain of the pool reads 39 kappa u at size 12.  c = 4; the
        # measured maximum is 0.17 here, 1.47 over all six variants run to full size.
        u = np.finfo(float).eps
        sizes, kappa = [], [0.0]

        def checked(inverse, hessenberg):
            inverse = border(inverse, hessenberg)
            j = len(hessenberg)
            shifted = hessenberg.T - np.eye(j)
            if j == 1:  # a new run
                kappa[0] = 0.0
            kappa[0] = max(kappa[0], np.linalg.cond(shifted))
            want = np.linalg.inv(shifted)
            assert inverse.shape == (j, j)
            assert np.abs(inverse - want).max() <= 4 * kappa[0] * u * np.abs(want).max()
            sizes.append(j)
            return inverse

        border = _border
        monkeypatch.setattr("arnagg.aggregate._border", checked)
        for p, p0, eps in estimate_pool():
            sizes.clear()
            agg = pipeline_dynamic(p, p0, p.n, eps, step_size=step_size)
            # Every size but a deflated or full last one is bordered, skipped or not.
            assert sizes == list(range(1, len(sizes) + 1))
            assert len(sizes) >= agg.size - 1

    def test_border_is_j_by_j_past_the_builders_first_capacity(self, monkeypatch):
        # A lazy cycle from a point gains one state per Krylov step, so at epsilon
        # 1e-300 the run reaches size 300, past the 256 steps the builder holds at first.
        n = 300
        p = StochasticMatrix(0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1))
        p0 = Distribution.point(n, 0)
        want = dynamic_geev_every_size(p, p0, n, 1e-300)
        shapes = []

        def recorded(inverse, hessenberg):
            inverse = border(inverse, hessenberg)
            shapes.append(inverse.shape)
            return inverse

        border = _border
        monkeypatch.setattr("arnagg.aggregate._border", recorded)
        calls = self.count_geev(monkeypatch)
        got = pipeline_dynamic(p, p0, n, 1e-300)
        assert got.size == want.size == n
        assert got.stationary.tobytes() == want.stationary.tobytes()
        assert got.criterion == want.criterion
        assert shapes == [(j, j) for j in range(1, n)]
        # Every size before the last got an estimate, so geev ran at the last size alone.
        assert calls == [n]


class TestPipelineDynamic:
    def test_identity_chain_stops_at_size_one(self):
        p = StochasticMatrix(np.eye(4))
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trace_reads_the_dynamic_criterion(self, variant):
        method = OrthMethod(variant)
        compared = 0
        for c in range(3):
            p = random_ncd(6, 10, 1e-4, seed=[7, c])
            p0 = Distribution.random(p.n, seed=[8, c])
            try:
                d = pipeline_dynamic(p, p0, p.n, 1e-8, method=method)
            except ComplexStationary:
                continue  # plain CGS on chains 0 and 1
            trace = error_trace(p, p0, pipeline_schur(p, p0, d.size, method=method), [1])
            assert trace.criterion == d.criterion
            compared += 1
        assert compared >= 1

    def test_final_complex_size_names_the_orthogonality_loss(self):
        # Plain CGS loses orthogonality completely on this chain, and the
        # size-60 step matrix has a complex leading eigenpair.
        p = random_ncd(6, 10, 1e-3, seed=[1, 0])
        p0 = Distribution.random(p.n, seed=[1, 3])
        with pytest.raises(ComplexStationary) as err:
            pipeline_dynamic(p, p0, p.n, 1e-8, method=CGS)
        loss = orthogonality_loss(arnoldi_iterate(p, p0, p.n, method=CGS).basis)
        assert loss > 0.5
        message = str(err.value)
        assert (f"selected stationary eigenvalue has imaginary part of magnitude "
                f"{err.value.imag_magnitude:.3e}") in message
        assert f"size-60 cgs basis has orthogonality loss {loss:.3e}" in message

    def test_parameter_validation(self):
        p, p0 = counterexample(0.5)
        for epsilon in (0.0, np.inf, np.nan):
            with pytest.raises(InputError):
                pipeline_dynamic(p, p0, 3, epsilon)
        with pytest.raises(InputError):
            pipeline_dynamic(p, p0, 3, 1e-8, step_size=0)

    def test_step_size_must_be_an_integer(self):
        p, p0 = counterexample(0.5)
        with pytest.raises(InputError, match="^step_size must be an integer, got 2.5$"):
            pipeline_dynamic(p, p0, 3, 1e-8, step_size=2.5)
