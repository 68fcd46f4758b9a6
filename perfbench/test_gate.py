"""Tests of the benchmark's correctness gate and tracer.

    python3 -m pytest perfbench/test_gate.py

Runs each workload's CLI invocation once (about 20 s in all), saves the
outputs, and shows that corrupting one value in them is counted as a failed
invocation.
"""

import csv
import math
import shutil
import threading
import time

import pytest

import gate
import run
from tracer import Tracer

SEED = 3


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One real, untraced invocation per workload, kept for corruption."""
    base = tmp_path_factory.mktemp("saved")
    out = {}
    for name, workload in run.WORKLOADS.items():
        argv, check = workload(SEED)
        out[name] = (run.invoke(argv, base, False), check)
    return out


def _problems(saved, name, tmp_path, corrupt=None):
    inv, check = saved[name]
    work = tmp_path / name
    shutil.copytree(inv["work"], work)
    if corrupt is not None:
        path = work / "out" / "results.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        corrupt(rows)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return run.checked(dict(inv, work=work), check)["problems"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_clean_output_passes(saved, name, tmp_path):
    assert _problems(saved, name, tmp_path) == []


def test_corrupt_count_fails(saved, tmp_path):
    def corrupt(rows):
        rows[4999]["count"] = str(int(rows[4999]["count"]) + 1)
    problems = _problems(saved, "full-window", tmp_path, corrupt)
    assert any(p.startswith("k=5000: count") for p in problems)


def test_corrupt_lambda_sum_fails_against_oracle(saved, tmp_path):
    k = gate.oracle_ks(SEED, run.FULL_WINDOW["K"])[0]

    def corrupt(rows):
        # shift lambda_sum and residual together, so only the oracle can tell
        row = rows[k - 1]
        row["lambda_sum"] = repr(float(row["lambda_sum"]) + 1.0)
        row["residual"] = repr(float(row["residual"]) + 1.0)
    problems = _problems(saved, "full-window", tmp_path, corrupt)
    assert any(f"k={k}: lambda_sum" in p for p in problems)


def test_corrupt_combined_fails(saved, tmp_path):
    def corrupt(rows):
        rows[10]["combined"] = repr(float(rows[10]["combined"]) * (1 + 1e-6))
    problems = _problems(saved, "dispersion-profile", tmp_path, corrupt)
    assert len(problems) == 1 and "combined" in problems[0]


def test_corrupt_lemma_pass_fails(saved, tmp_path):
    def corrupt(rows):
        rows[3]["pass"] = "false"
    problems = _problems(saved, "lemma-grid", tmp_path, corrupt)
    assert problems == [f"{gate.LEMMA_IDS[3]}: pass=false"]


def test_failed_exit_is_a_failure(saved, tmp_path):
    inv, check = saved["lemma-grid"]
    work = tmp_path / "w"
    shutil.copytree(inv["work"], work)
    problems = run.checked(dict(inv, work=work, exit_code=2), check)["problems"]
    assert problems and problems[0].startswith("exit code 2")


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(150 << 20)  # the parent's high-water mark passes 150 MB
    ballast[::4096] = b"x" * len(range(0, len(ballast), 4096))
    inv = run.invoke([], tmp_path, False)
    del ballast
    assert inv["exit_code"] == 0
    assert inv["peak_rss_mb"] < 120


def test_batch_median_averages_short_invocations():
    short = [{"wall_s": w} for w in (1.0, 1.0, 1.0, 1.0, 3.0) * 3]  # 7 s batches
    assert run.batch_median(short, "wall_s") == pytest.approx(1.4)
    long = [{"wall_s": w} for w in (8.0, 9.0, 30.0)]  # one invocation per batch
    assert run.batch_median(long, "wall_s") == 9.0


@pytest.mark.parametrize("t,delta,K", [(0, 50, 3), (10, 200, 7), (90, 400, 40)])
def test_useful_cells_matches_brute_force(t, delta, K):
    hit = {n * n + k for n in range(1, math.isqrt(t + delta) + 1)
           for k in range(1, K + 1)}
    assert run._useful_cells(t, delta, K) == sum(1 for m in hit if t < m <= t + delta)


def test_missing_hook_is_an_absent_metric():
    report = {"hooked": ["arith.sieve_window", "cli.run"],
              "spans": [["cli.run", -1, 0.0, 1.0, None],
                        ["arith.sieve_window", 0, 0.1, 0.3, [2, 102]]]}
    metrics = run.layer_metrics({"report": report, "csv_bytes": 10, "wall_s": 1.25})
    assert "scan.progression_sums.calls" not in metrics
    assert "singular.batch_singular_values.s" not in metrics
    assert metrics["arith.sieve_window.cells"] == 100
    assert metrics["cli.run.self_s"] == pytest.approx(0.8)
    assert metrics["trace.span_coverage"] == pytest.approx(0.8)


def test_sieving_out_of_sight_leaves_sieve_counters_out():
    # progression_sums ran, but its sieve_window calls happened elsewhere
    report = {"hooked": ["arith.sieve_window", "scan.progression_sums"],
              "spans": [["scan.progression_sums", -1, 0.0, 1.0, [10, 200, 7]]]}
    metrics = run.layer_metrics({"report": report, "csv_bytes": 10, "wall_s": 1.0})
    assert metrics["scan.progression_sums.calls"] == 1
    assert not [name for name in metrics if name.startswith("arith.sieve_window")]
    assert "scan.useful_cell_ratio" not in metrics


def test_tracer_keeps_a_stack_per_thread():
    tracer = Tracer()
    inner = tracer._wrap("m.inner", lambda: time.sleep(0.01))
    outer = tracer._wrap("m.outer", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    spans = tracer.spans
    assert sorted(s[0] for s in spans) == ["m.inner"] * 4 + ["m.outer"] * 4
    assert sorted(s[1] for s in spans if s[0] == "m.inner") == sorted(
        i for i, s in enumerate(spans) if s[0] == "m.outer")
    for name, parent, start, end, _ in spans:
        if name == "m.outer":
            assert parent == -1
        else:
            assert spans[parent][0] == "m.outer"
            assert spans[parent][2] <= start <= end <= spans[parent][3]
