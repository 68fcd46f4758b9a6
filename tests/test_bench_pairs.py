"""The summary step of tools/bench_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.24},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
              {"name": "throughput", "better": "higher", "bound": 0.1}]


def _run(pair, side, wall, rss, rate, failed=0, attempted=20):
    return {"pair": pair, "side": side, "workloads": {"w": {
        "attempted": attempted, "failed": failed, "correct": not failed,
        "metrics": {"wall_s": wall, "peak_rss_mb": rss, "throughput": rate}}}}


RUNS = [
    _run(0, "parent", 1.0, 37.9, 10.0), _run(0, "change", 1.1, 34.0, 11.0),
    _run(1, "change", 1.0, 34.1, 9.0, failed=1), _run(1, "parent", 1.2, 37.8, 10.0),
    _run(2, "parent", 0.9, 37.7, 10.0), _run(2, "change", 1.3, 34.0, 12.0),
    _run(3, "change", 1.2, 33.9, 8.0), _run(3, "parent", 1.1, 37.9, 9.0, attempted=21),
]


def test_summary_statistics_per_side():
    s = bench_pairs.summarize(RUNS, END_TO_END)["w"]
    # parent wall_s 0.9, 1.0, 1.1, 1.2: inclusive quartiles 0.975 and 1.125
    assert s["wall_s"]["parent"] == pytest.approx(
        {"median": 1.05, "q1": 0.975, "q3": 1.125, "n": 4})
    assert s["wall_s"]["change"] == pytest.approx(
        {"median": 1.15, "q1": 1.075, "q3": 1.225, "n": 4})
    assert s["wall_s"]["median_change_over_parent"] == pytest.approx(1.15 / 1.05 - 1)
    assert s["wall_s"]["change_better_pairs"] == 1          # only pair 1 is faster
    assert s["wall_s"]["pairs"] == 4
    assert s["wall_s"]["bound"] == 0.24 and s["wall_s"]["within_bound"]
    assert s["peak_rss_mb"]["change_better_pairs"] == 4
    assert s["peak_rss_mb"]["parent"]["median"] == pytest.approx(37.85)
    assert s["peak_rss_mb"]["change"]["median"] == pytest.approx(34.0)
    assert s["peak_rss_mb"]["within_bound"]                 # lower is better
    # higher is better: pairs 0 and 2 gain; the median falls 10 -> 10, in bound
    assert s["throughput"]["change_better_pairs"] == 2
    assert s["throughput"]["median_change_over_parent"] == pytest.approx(0.0)
    assert s["failed_over_attempted"] == {"parent": "0/81", "change": "1/80"}


def test_within_bound_follows_the_better_direction():
    slow = [{**r, "workloads": {"w": {**r["workloads"]["w"], "metrics": {
        "wall_s": r["workloads"]["w"]["metrics"]["wall_s"] * (1.3 if r["side"] == "change"
                                                              else 1.0)}}}}
            for r in RUNS]
    assert not bench_pairs.summarize(slow, END_TO_END)["w"]["wall_s"]["within_bound"]
    worse_rate = [{**r, "workloads": {"w": {**r["workloads"]["w"], "metrics": {
        "throughput": 5.0 if r["side"] == "change" else 10.0}}}} for r in RUNS]
    s = bench_pairs.summarize(worse_rate, END_TO_END)["w"]
    assert set(s) == {"throughput", "failed_over_attempted"}  # no value, no entry
    assert s["throughput"]["median_change_over_parent"] == pytest.approx(-0.5)
    assert not s["throughput"]["within_bound"]


def test_claim_needs_the_target_the_pairs_and_the_spread():
    summary = bench_pairs.summarize(RUNS, END_TO_END)
    met = bench_pairs.claim(summary, "w", "peak_rss_mb", 34.3, "lower")
    assert met["met"] and met["change_better_pairs"] == met["pairs"] == 4
    assert met["median_gap"] == pytest.approx(3.85)
    assert met["parent_iqr"] == pytest.approx(37.9 - 37.775)
    assert not bench_pairs.claim(summary, "w", "peak_rss_mb", 33.9, "lower")["met"]
    # 1 of 4 pairs is not 9 in 10, though the median reads under a loose target
    assert not bench_pairs.claim(summary, "w", "wall_s", 2.0, "lower")["met"]


def test_parse_output_reads_each_workload_block():
    stdout = "\n".join([
        "full-window: 21 untraced, 0 traced invocations; error_rate 0 (0/21)",
        "  s1_abs_err = 1e-12",
        "  wall_s = 1.05 s",
        'context {"git_sha": null, "src_lines": 1613, "seed": 0}',
        '{"correct": true, "attempted": 21, "failed": 0, "metrics": '
        '{"wall_s": {"value": 1.05, "unit": "s"}}}',
        "lemma-grid: 100 untraced, 0 traced invocations; error_rate 0.01 (1/100)",
        'context {"git_sha": null, "src_lines": 1613, "seed": 0}',
        '{"correct": false, "attempted": 100, "failed": 1, "metrics": '
        '{"peak_rss_mb": {"value": 40.9, "unit": "MB"}}}',
    ])
    workloads, context = bench_pairs.parse_output(stdout)
    assert context["src_lines"] == 1613
    assert workloads == {
        "full-window": {"attempted": 21, "failed": 0, "correct": True,
                        "metrics": {"wall_s": 1.05}},
        "lemma-grid": {"attempted": 100, "failed": 1, "correct": False,
                       "metrics": {"peak_rss_mb": 40.9}}}


def test_claim_note_reads_the_claim():
    summary = bench_pairs.summarize(RUNS, END_TO_END)
    note = bench_pairs.claim_note(bench_pairs.claim(summary, "w", "peak_rss_mb", 34.3, "lower"))
    assert note == ("w peak_rss_mb claim met: median 37.85 -> 34 (target 34.3), 4 of 4 "
                    "pairs better, medians 3.85 apart against a parent interquartile "
                    "range of 0.125.")
    note = bench_pairs.claim_note(bench_pairs.claim(summary, "w", "wall_s", 2.0, "lower"))
    assert note.startswith("w wall_s claim NOT met: median 1.05 -> 1.15 (target 2)")
