"""Percentiles, sample counts, slice quartiles and the result line."""

import json

import pytest

import common


def test_percentile_is_nearest_rank():
    ordered = [float(i) for i in range(1, 101)]
    assert common.percentile(ordered, 50) == 50.0
    assert common.percentile(ordered, 90) == 90.0
    assert common.percentile(ordered, 99) == 99.0
    assert common.percentile(ordered, 100) == 100.0
    assert common.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_latency_summary_states_the_sample_count():
    summary = common.latency_summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert summary == {"p50": 3.0, "p90": 5.0, "p99": 5.0, "max": 5.0, "samples": 5}


def test_run_reports_the_mean_of_its_fastest_quarter_of_slices():
    slices = [
        common.slice_metrics(100 + i, 1.0, 0.5, [1.0 + i, 2.0 + i]) for i in range(8)
    ]
    values = common.end_to_end(slices)
    # The two fastest of eight: highest rates, lowest times and costs.
    assert values["commit_txn_s"] == (107.0 + 106.0) / 2
    assert values["txn_p50_ms"] == (1.0 + 2.0) / 2
    assert values["cpu_us_per_txn"] == pytest.approx(0.5e6 * (1 / 107 + 1 / 106) / 2)
    assert common.end_to_end(slices[:1]) == slices[0]
    with pytest.raises(ValueError):
        common.end_to_end([])


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_names_are_exactly_the_benchmarks(trace):
    spec = common.load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = {entry["name"]: 1.5 for entry in wanted[:6]}
    line = json.loads(common.result_line(spec, trace, values, 10, 0, True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    with pytest.raises(KeyError):
        common.result_line(spec, trace, {**values, "no.such.metric": 1.0}, 1, 0, True)


def test_an_end_to_end_metric_cannot_be_left_out():
    spec = common.load_spec()
    with pytest.raises(KeyError):
        common.result_line(spec, False, {"commit_txn_s": 1.0}, 1, 0, True)
