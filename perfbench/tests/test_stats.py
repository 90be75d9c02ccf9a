import pytest

from harness.stats import median, percentile, supported, tail_percentile


@pytest.mark.parametrize("n, pct", [
    (10, 100.0),
    (20, 50.0),
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
    (100000, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    got_pct, value, count = tail_percentile(values)
    assert (got_pct, count) == (pct, n)
    assert sum(1 for v in values if v > value) >= 10 or pct == 100.0


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1


def test_supported_needs_ten_beyond():
    assert supported(1000, 99)
    assert not supported(999, 99)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
