"""The tail guard and the order statistics."""

import pytest

import stats


def test_tail_names_the_highest_supported_percentile():
    assert stats.tail([1.0] * 40)[0] == 75.0
    assert stats.tail([1.0] * 50)[0] == 80.0
    assert stats.tail([1.0] * 100)[0] == 90.0
    assert stats.tail([1.0] * 199)[0] == 90.0
    assert stats.tail([1.0] * 200)[0] == 95.0
    assert stats.tail([1.0] * 1000)[0] == 99.0


def test_guard_refuses_a_percentile_with_fewer_than_ten_beyond():
    for count in range(40, 1200, 7):
        pct, _ = stats.tail([float(v) for v in range(count)])
        assert stats.samples_beyond(count, pct) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        assert all(stats.samples_beyond(count, p) < stats.MIN_BEYOND for p in higher)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 39)  # p75 would have 9 samples beyond it


def test_percentile_interpolates_linearly():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.percentile([5.0], 99.0) == 5.0
    assert stats.percentile(list(range(11)), 90.0) == 9.0
    assert stats.tail([float(v) for v in range(100)]) == (90.0, pytest.approx(89.1))
