"""The benchmark's own arithmetic: quantile rule, spread and self time."""

import statistics

import pytest

from arith import geomean, iqr_share, percentile, self_times, tail_percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 1.0) == 10
    assert percentile([3.0], 0.9) == 3.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101)), 0.9) == 90
    # 99 samples: the p90 is still 90, but only nine lie beyond it.
    assert tail_percentile(list(range(1, 100)), 0.9) is None
    assert tail_percentile([], 0.9) is None


def test_tail_percentile_counts_only_strictly_greater_samples():
    # Ties with the percentile are not "beyond" it.
    values = [1.0] * 80 + [2.0] * 15 + [3.0] * 5
    assert percentile(values, 0.9) == 2.0
    assert tail_percentile(values, 0.9) is None
    values = [1.0] * 80 + [2.0] * 10 + [3.0] * 10
    assert tail_percentile(values, 0.9) == 2.0


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / q2)
    assert iqr_share([5.0] * 4) == 0.0


def test_geomean_skips_nonpositive_values():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([0.0, 2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [
        ("root", None, 10.0),
        ("a", 0, 6.0),
        ("a.x", 1, 2.5),
        ("a.y", 1, 1.5),
        ("b", 0, 3.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx([1.0, 2.0, 2.5, 1.5, 3.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_times_rejects_a_parent_listed_after_its_child():
    with pytest.raises(ValueError):
        self_times([("child", 1, 1.0), ("parent", None, 2.0)])


def test_host_speed_adjustment_rescales_to_reference_speed():
    from hostspeed import REFERENCE_S, adjust, bracket, pass_factor

    # Probe readings around three points: the host ran at reference
    # speed, then twice as slow, then at reference speed again.
    readings = [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S]
    speeds = bracket(readings)
    assert speeds == pytest.approx([REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S])
    points = [1.0, 2.0, 4.0]
    assert adjust(points, speeds) == pytest.approx([1.0, 1.0, 2.0])
    # The pass factor weights each point by its raw time.
    assert pass_factor(points, speeds) == pytest.approx(4.0 / 7.0)
    assert pass_factor([1.0], [REFERENCE_S]) == pytest.approx(1.0)


def test_probe_is_positive_and_leaves_gc_as_it_found_it():
    import gc

    from hostspeed import probe

    assert gc.isenabled()
    assert probe(units=1) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        probe(units=1)
        assert not gc.isenabled()
    finally:
        gc.enable()
