import pytest

import metrics


def test_percentile_interpolates_between_order_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert metrics.percentile(values, 0.5) == 3.0
    assert metrics.percentile(values, 0.9) == pytest.approx(4.6)
    assert metrics.percentile(values, 0.0) == 1.0
    assert metrics.percentile(values, 1.0) == 5.0
    assert metrics.percentile([1.0, 2.0], 0.5) == 1.5
    assert metrics.percentile([7.0], 0.9) == 7.0
    assert metrics.percentile(list(range(1, 101)), 0.9) == pytest.approx(90.1)


def test_percentile_of_no_samples_raises():
    with pytest.raises(ValueError):
        metrics.percentile([], 0.5)


@pytest.mark.parametrize("count", [100, 250, 60, 50, 21, 20, 18, 9, 1])
def test_tail_quantile_keeps_ten_samples_above(count):
    q = metrics.tail_quantile(count)
    if count >= 100:
        assert q == 0.9
    elif count >= 21:
        # ten samples lie wholly above the interpolated position, none spare
        assert count - 1 - q * (count - 1) == pytest.approx(10)
    else:
        assert q == 0.5


def test_union_length_merges_overlaps():
    assert metrics.union_length([]) == 0.0
    assert metrics.union_length([(0, 1), (2, 3)]) == 2.0
    assert metrics.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert metrics.union_length([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("chromatic.yg", 1.0, 4.0, 0, 0),
        ("elements.convert", 3.0, 6.0, 0, 0),     # overlaps its sibling
        ("chromatic.route_subset", 1.5, 2.5, 1, 0),
        ("graphs.parse", 9.0, 12.0, 0, 0),        # runs past the parent's end
    ]
    own = metrics.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_traces():
    trace = {
        "import_s": 0.25,
        "spans": [
            ["cli.main", 0.0, 10.0, -1, 0],
            ["chromatic.yg", 1.0, 4.0, 0, 0],
            ["chromatic.route_subset", 1.5, 2.5, 1, 0],
            ["elements.convert", 5.0, 7.0, 0, 0],
            ["verification.suite:trees", 7.0, 9.0, 0, 0],
        ],
        "counters": {"partitions.refines_calls": 7, "chromatic.auto_calls": 4,
                     "chromatic.auto_hits": 1},
    }
    values = metrics.layer_metrics([trace, trace])
    assert values["cli.import_s"] == pytest.approx(0.5)
    assert values["cli.self_s"] == pytest.approx(2 * (10.0 - 3.0 - 2.0 - 2.0))
    assert values["chromatic.yg_s"] == pytest.approx(6.0)
    assert values["chromatic.yg_calls"] == 2
    assert values["chromatic.route_subset_calls"] == 2
    assert values["elements.convert_s"] == pytest.approx(4.0)
    assert values["verification.suite_s"] == pytest.approx(4.0)
    assert values["verification.trees_s"] == pytest.approx(4.0)
    assert values["partitions.refines_calls"] == 14
    assert values["chromatic.auto_hit_frac"] == pytest.approx(0.25)


def test_benchmark_json_lists_what_the_run_prints():
    import json

    import run
    from conftest import ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert entry["unit"] == metrics.unit_of(entry["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.corpus.WORKLOADS)


def test_end_to_end_takes_each_request_median_at_reference_speed():
    import calibration
    import run

    ref = calibration.REFERENCE_S

    def make_pass(latencies, rss=50.0, slowdown=1.0):
        return run.Pass(sum(latencies), [
            run.Outcome(f"r{i}", x * slowdown, rss, None, ref * slowdown)
            for i, x in enumerate(latencies)])

    # the second pass ran on a machine half as fast; rescaling undoes that
    passes = [make_pass([1.0, 0.2, 3.0]), make_pass([0.5, 0.4, 2.0], 60.0, 2.0),
              make_pass([0.8, 0.3, 2.5])]
    assert run.typical(passes) == pytest.approx([0.8, 0.3, 2.5])
    assert run.typical(passes, lambda o: o.latency_s) == pytest.approx([1.0, 0.3, 3.0])
    setup = [run.Outcome("s", x, 40.0, None, ref * k)
             for x, k in ((0.12, 1.0), (0.18, 2.0), (0.10, 1.0))]
    summary = run.end_to_end(passes, setup)
    values = summary["values"]
    assert values["wall_s"] == pytest.approx(3.6)
    assert values["req_p50_s"] == pytest.approx(0.8)
    assert values["req_p90_s"] == pytest.approx(0.8)  # three requests: no tail
    assert values["setup_s"] == pytest.approx(0.10)
    assert values["peak_rss_mb"] == 60.0
    assert summary["samples"]["requests"] == 3 and summary["samples"]["passes"] == 3


def test_calibration_rescales_to_reference_speed():
    import calibration

    assert calibration.rescale(2.0, 2 * calibration.REFERENCE_S) == pytest.approx(1.0)
    assert calibration.loop_s() > 0
