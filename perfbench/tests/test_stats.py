import statistics

import pytest

from perfbench.stats import percentile, quartiles, tail


@pytest.mark.parametrize("n, p", [(20, 50), (39, 50), (40, 75), (99, 75),
                                  (100, 90), (199, 90), (200, 95),
                                  (999, 95), (1000, 99)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, p):
    values = [float(i) for i in range(n)]
    got, value = tail(values)
    assert got == p
    assert value == pytest.approx(percentile(values, p))
    assert sum(1 for v in values if v > value) >= 10


def test_fewer_than_twenty_samples_have_no_tail():
    assert tail([1.0] * 19) is None


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_one_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
