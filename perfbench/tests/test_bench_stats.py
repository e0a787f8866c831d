import pytest

from perfbench.stats import nearest_rank, quartile_spread, tail


@pytest.mark.parametrize("n, pct, beyond", [
    (1, 100.0, 0),
    (3, 100.0, 0),
    (19, 100.0, 0),
    (20, 50.0, 10),
    (99, 50.0, 49),
    (100, 90.0, 10),
    (999, 90.0, 99),
    (1000, 99.0, 10),
    (10_000, 99.9, 10),
])
def test_tail_takes_the_highest_percentile_with_ten_samples_beyond(n, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    value, got_pct, got_beyond = tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == nearest_rank(sorted(values), pct)
    assert sum(v > value for v in values) == beyond


def test_tail_without_a_qualifying_percentile_is_the_slowest_sample():
    assert tail([0.3, 0.9, 0.1]) == (0.9, 100.0, 0)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


def test_quartile_spread_is_the_interquartile_range_over_the_median():
    # statistics.quantiles (exclusive) of 1..9 gives quartiles 2.5 and 7.5.
    assert quartile_spread(list(range(1, 10))) == pytest.approx(5.0 / 5.0)
    assert quartile_spread([2.0] * 10) == 0.0
