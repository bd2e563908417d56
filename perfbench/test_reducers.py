"""Tests of the benchmark's own reducers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reducers  # noqa: E402


# -- corrected clock ------------------------------------------------------------

def test_same_slowdown_on_step_and_probes_cancels():
    durations = [0.10, 0.50, 0.07]
    probes = [0.006, 0.0062, 0.0059, 0.0061]
    base = reducers.corrected_durations(durations, probes, 0.006)
    for factor in (0.7, 1.3, 2.0):
        slowed = reducers.corrected_durations(
            [d * factor for d in durations], [p * factor for p in probes],
            0.006)
        assert slowed == pytest.approx(base, rel=1e-12)


def test_step_is_divided_by_mean_of_bracketing_probes():
    out = reducers.corrected_durations([1.0, 1.0], [0.004, 0.008, 0.008],
                                       0.006)
    assert out == pytest.approx([1.0, 0.75])


def test_probe_count_must_bracket_every_step():
    with pytest.raises(ValueError):
        reducers.corrected_durations([1.0, 1.0], [0.006, 0.006], 0.006)


def test_lane_clocks_advance_per_worker():
    ends = reducers.lane_clocks([0, 1, 0, 1, 1], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert ends == [1.0, 2.0, 4.0, 6.0, 11.0]


# -- percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("n", [20, 21, 100, 999, 1000, 1272, 5000])
def test_reported_tail_has_ten_samples_beyond_it(n):
    q = reducers.supported_tail(n)
    assert q is not None and q <= 99.0
    assert n * (1.0 - q / 100.0) >= reducers.TAIL_SAMPLES - 1e-9
    if n >= 1000:
        assert q == 99.0


def test_small_sample_has_no_tail_and_falls_back_to_median():
    assert reducers.supported_tail(12) is None
    values = [float(v) for v in range(12)]
    assert reducers.tail(values) == (50.0, reducers.percentile(values, 50))


def test_percentile_matches_linear_interpolation():
    values = [4.0, 1.0, 3.0, 2.0]
    assert reducers.percentile(values, 50) == pytest.approx(2.5)
    assert reducers.percentile(values, 100) == 4.0
    assert reducers.percentile(values, 0) == 1.0


def test_every_end_to_end_metric_carries_its_sample_count():
    run = pytest.importorskip("run")
    outcome = types.SimpleNamespace(
        ttfts=[1.0, 2.0, 3.0], gaps=[0.1] * 1200, output_tokens=1203,
        prompt_tokens=1500, serving_s=10.0, slo_attain=1.0, attempted=3)
    metrics = run.e2e_metrics(outcome, [0.4, 0.5, 0.6])
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(isinstance(m[1], int) and m[1] >= 1 for m in metrics.values())
    assert metrics["itl_p99_s"][1:] == (1200, 99.0)
    assert metrics["ttft_p50_s"] == (2.0, 3)


# -- failures and SLO -------------------------------------------------------------

def test_failed_frac_counts_against_attempted():
    assert reducers.failed_frac(40, 3) == pytest.approx(0.075)
    with pytest.raises(ValueError):
        reducers.failed_frac(0, 0)


def test_refused_requests_miss_the_slo():
    outcomes = [
        (True, 1.0, [0.1, 0.2]),     # meets both limits
        (True, 5.0, [0.1]),          # TTFT too slow
        (True, 1.0, [0.1, 0.9]),     # one gap too long
        (False, None, ()),           # refused: a miss, never a pass
    ]
    assert reducers.slo_attainment(outcomes, 2.0, 0.5) == pytest.approx(0.25)
    assert reducers.slo_attainment([(False, None, ())], 1e9, 1e9) == 0.0


# -- self time ------------------------------------------------------------------------

def test_self_time_subtracts_child_coverage_once():
    # Children overlap (1-3 and 2-4) and one pokes out of the parent.
    children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]
    assert reducers.self_time(0.0, 10.0, children) == pytest.approx(6.0)


def test_self_time_without_children_is_duration():
    assert reducers.self_time(2.0, 5.5, []) == pytest.approx(3.5)


# -- digest -------------------------------------------------------------------------------

def test_digest_ignores_order_but_not_placement_or_tokens():
    rows = [(0, 0, [1, 2]), (1, 1, [3])]
    digest = reducers.output_digest(rows)
    assert reducers.output_digest(list(reversed(rows))) == digest
    assert reducers.output_digest([(0, 1, [1, 2]), (1, 1, [3])]) != digest
    assert reducers.output_digest([(0, 0, [1, 4]), (1, 1, [3])]) != digest


@pytest.mark.parametrize("name", ["long_decode", "shared_prefix_fleet"])
def test_digest_is_stable_across_two_in_process_runs(name, tmp_path):
    workloads = pytest.importorskip("workloads")
    base = workloads.WORKLOADS[name]
    tiny = dataclasses.replace(
        base, prompt_tokens=(24, 40), output_tokens=4, requests_per_s=0.0,
        min_requests=4, shared_prefix=min(base.shared_prefix, 32),
        clients=min(base.clients, 2))
    digests = []
    for _ in range(2):
        served = workloads.set_up(tiny, tmp_path)
        requests = workloads.make_requests(tiny, seed=3, seconds=1.0)
        log = workloads.StepLog(lambda: 0.006)
        workloads.serve(tiny, served, requests, log)
        served.close()
        outcome = workloads.reduce_run(tiny, log, log.durations)
        assert outcome.failed == 0
        digests.append(outcome.digest)
    assert digests[0] == digests[1]
