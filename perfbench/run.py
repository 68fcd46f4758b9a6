"""Benchmark of the quadprimes command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the src/ directory next to perfbench/.
Each invocation is a fresh child process running one real CLI command, one
at a time from this process (a closed loop with one client), since users
pay a cold process on every call.  Invocations never pass --threads, --P or
--cache_dir, and write --out into a scratch directory under .perfbench_runs/.
One import-only child first warms the OS file cache; then invocations run
until the next one would end past --seconds, and at least MIN_ROUNDS times.
Every output is checked by gate.py.

--trace 0 reports the end-to-end metrics, each the median over batches of
consecutive invocations (at least BATCH_S of wall time each) of the batch
mean:
  wall_s       spawn of the child to its exit
  setup_s      spawn of the child until quadprimes.cli is imported
  peak_rss_mb  the child's own peak RSS (VmHWM, read by the child at exit)
--trace 1 alternates untraced and traced invocations and reports per-layer
metrics from tracer.py's spans (medians over the traced invocations), the
span coverage (summed self time over the traced invocation's wall time, so
the interpreter start and imports in setup_s count as uncovered) and the
tracing overhead (median traced/untraced wall-time ratio of adjacent pairs).

The last line of standard output is the result: a JSON object with the keys
correct, attempted, failed and metrics (with --workload all, one such line
ends each workload's block).  The lines before it give each
metric with its unit, the error rate, |S(1) - 1.3728134628| on full-window,
and the context (git sha, src/ line count, Python and numpy versions, nproc,
seed).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUNS = ROOT / ".perfbench_runs"
MIN_ROUNDS = {0: 3, 1: 1}  # rounds per run: invocations, or untraced/traced pairs
RUN_LIMIT_S = 165.0        # children are killed past this, so a run ends within 180 s
BATCH_S = 5.0              # least invocation wall time averaged into one sample

FULL_WINDOW = {"z": 10**8, "K": 10**5}
DISPERSION = {"z": 10**6, "K": 3982, "delta": 63096, "grid": 64}
LEMMA_CHECKS = ("large_sieve_avg_check", "large_sieve_single_check",
                "polya_vinogradov_check", "mean_square_check",
                "mean_square_twisted_check", "short_ap_check",
                "phi_average_check", "legendre_sum_check")


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def full_window(seed: int):
    """moment1 over (z, 2z]: the only bulk sieve, scatter-add and 1e5-row CSV."""
    z, K = FULL_WINDOW["z"], FULL_WINDOW["K"]
    oracle = gate.lambda_sum_oracle(gate.oracle_ks(seed, K), z, z)

    def check(out: Path):
        problems, s1_err = gate.check_full_window(out, z, K, oracle)
        return problems, {"s1_abs_err": s1_err}

    return ["moment1", f"--z={z}", f"--K={K}"], check


def dispersion_profile(seed: int):
    """dispersion on 64 seeded t: the singular batch plus 64 small scan windows."""
    p = DISPERSION
    argv = ["dispersion", f"--z={p['z']}", f"--K={p['K']}", f"--delta={p['delta']}",
            f"--grid={p['grid']}", f"--seed={seed}"]
    return argv, lambda out: (gate.check_dispersion_profile(out, p["grid"]), {})


def lemma_grid(seed: int):
    """lemmas: 400 small sieve windows, the characters module, no singular batch."""
    return ["lemmas", f"--seed={seed}"], lambda out: (gate.check_lemma_grid(out), {})


WORKLOADS = {"full-window": full_window,
             "dispersion-profile": dispersion_profile,
             "lemma-grid": lemma_grid}


def invoke(argv: list[str], run_dir: Path, trace: bool,
           timeout: float = RUN_LIMIT_S) -> dict:
    """Spawn one child, wait for it, and return what it measured and wrote."""
    work = Path(tempfile.mkdtemp(dir=run_dir))
    report_path = work / "report.json"
    cmd = [sys.executable, str(CHILD), str(report_path), "1" if trace else "0", *argv]
    if argv:
        cmd.append(f"--out={work / 'out'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return {"work": work, "exit_code": proc.returncode, "report": report,
            "wall_s": exited - spawned,
            "setup_s": report["imported"] - spawned if report else math.nan,
            # ru_maxrss only if the child died before reporting its own peak
            "peak_rss_mb": ((report or {}).get("peak_rss_kb") or usage.ru_maxrss) / 1024.0,
            "stderr": (work / "stderr").read_bytes().decode(errors="replace")}


def checked(inv: dict, check) -> dict:
    """Attach the correctness verdict (and the CSV size) to an invocation."""
    out = inv["work"] / "out"
    if inv["exit_code"] != 0:
        problems = [f"exit code {inv['exit_code']}: {inv['stderr'].strip()[-500:]}"]
        extra = {}
    elif not (out / "results.csv").exists() or not (out / "summary.json").exists():
        problems, extra = ["missing results.csv or summary.json"], {}
    else:
        try:
            problems, extra = check(out)
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            problems, extra = [f"unreadable output: {exc!r}"], {}
        inv["csv_bytes"] = (out / "results.csv").stat().st_size
    inv["problems"] = problems
    inv.update(extra)
    shutil.rmtree(inv["work"])
    return inv


def _useful_cells(t: int, delta: int, K: int) -> int:
    """Cells of (t, t+delta] that some n^2 + k (n >= 1, 1 <= k <= K) lands on."""
    useful, covered = 0, t
    top = t + delta
    for n in range(math.isqrt(max(t - K, 0)) + 1, math.isqrt(max(top - 1, 0)) + 1):
        a = max(n * n + 1, covered + 1)
        b = min(n * n + K, top)
        if b >= a:
            useful += b - a + 1
            covered = b
    return useful


def layer_metrics(inv: dict) -> dict[str, float]:
    """Per-layer numbers from one traced invocation's spans.

    A layer whose function no longer exists is left out, not reported as 0.
    So are the sieve counters when progression_sums ran but no sieve_window
    span lies under it (its sieving happened in another process or thread).
    """
    report = inv["report"]
    spans, hooked = report["spans"], set(report["hooked"])
    dur = [end - start for _, _, start, end, _ in spans]
    self_t = list(dur)
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]
    totals: dict[str, dict[str, float]] = {}
    for i, (name, *_rest) in enumerate(spans):
        agg = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur[i]
        agg["self_s"] += self_t[i]

    def ancestor(i: int, name: str) -> int:
        parent = spans[i][1]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        return parent

    m: dict[str, float] = {}

    def layer(name: str, *fields: str) -> bool:
        if name not in hooked:
            return False
        agg = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            m[f"{name}.{f}"] = agg[f]
        return True

    layer("singular.batch_singular_values", "calls", "s")
    layer("singular.main_term_constant", "s")
    sieves = [i for i, s in enumerate(spans) if s[0] == "arith.sieve_window"]
    progressions = [s[4] for s in spans if s[0] == "scan.progression_sums"]
    owned = [i for i in sieves if ancestor(i, "scan.progression_sums") >= 0]
    sieved_here = bool(owned) or not progressions
    # a renamed parameter is recorded as None: leave out the counters it feeds
    sieve_args = None not in (a for i in sieves for a in spans[i][4])
    progression_args = None not in (a for args in progressions for a in args)
    if sieved_here and layer("arith.sieve_window", "calls", "s") and sieve_args:
        cells = [spans[i][4][1] - spans[i][4][0] for i in sieves]
        m["arith.sieve_window.cells"] = sum(cells)
        m["arith.sieve_window.ns_per_cell"] = (
            1e9 * m["arith.sieve_window.s"] / sum(cells) if cells else 0.0)
        m["arith.sieve_window.max_cells"] = max(cells, default=0)
    if (layer("scan.progression_sums", "calls", "self_s") and progression_args
            and sieved_here and sieve_args and "arith.sieve_window" in hooked):
        cells_sieved = sum(spans[i][4][1] - spans[i][4][0] for i in owned)
        useful = sum(_useful_cells(*args) for args in progressions)
        m["scan.progression_sums.segments"] = len(owned)
        m["scan.progression_sums.cells"] = cells_sieved
        # 0 when progression_sums sieved nothing (lemma-grid never calls it)
        m["scan.useful_cell_ratio"] = useful / cells_sieved if cells_sieved else 0.0
    layer("arith.primes_up_to", "calls", "s")
    layer("scan.scan_all_k", "self_s")
    layer("cli.run", "self_s")
    m["cli.results_csv.bytes"] = inv["csv_bytes"]
    layer("dispersion.identity_check", "calls", "self_s")
    layer("dispersion.dispersion_profile", "self_s")
    for check in LEMMA_CHECKS:
        layer(f"lemmas.{check}", "self_s")
    layer("characters.primitive_characters", "calls", "s")
    m["trace.span_coverage"] = sum(self_t) / inv["wall_s"]
    return m


UNITS = {"calls": "count", "cells": "count", "segments": "count",
         "max_cells": "count", "s": "s", "self_s": "s", "ns_per_cell": "ns",
         "bytes": "bytes", "useful_cell_ratio": "ratio", "span_coverage": "ratio",
         "overhead": "ratio", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def context(seed: int) -> dict:
    sha = None  # stays None when the checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_sha": sha, "src_lines": src_lines,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    argv, check = WORKLOADS[workload](seed)
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=RUNS, prefix=f"{workload}-"))
    try:
        limit = time.monotonic() + RUN_LIMIT_S
        warm = invoke([], run_dir, False)
        if warm["exit_code"] != 0 or warm["report"] is None:
            raise SetupError(f"cannot import quadprimes.cli from {ROOT / 'src'}:\n"
                             + warm["stderr"])
        done: list[dict] = []
        started = time.monotonic()
        rounds = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                timeout = max(1.0, limit - time.monotonic())
                inv = checked(invoke(argv, run_dir, traced, timeout), check)
                inv["traced"] = traced
                done.append(inv)
            rounds += 1
            elapsed = time.monotonic() - started
            next_end = elapsed * (rounds + 1) / rounds
            if (rounds >= MIN_ROUNDS[trace] and next_end > seconds
                    or started + next_end > limit):
                return done
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:  # not empty: another run is using it
            pass


def batch_median(invs: list[dict], name: str) -> float:
    """Median over batches of consecutive invocations of their mean `name`.

    Each batch spans at least BATCH_S of wall time.  This machine's speed
    swings by up to 1.8x over 5-20 s, so a sub-second invocation samples a
    single swing; averaging short invocations into batches first keeps the
    run's median from flipping between a fast and a slow value.
    """
    means, batch, spent = [], [], 0.0
    for inv in invs:
        batch.append(inv[name])
        spent += inv["wall_s"]
        if spent >= BATCH_S:
            means.append(statistics.fmean(batch))
            batch, spent = [], 0.0
    if batch:
        means.append(statistics.fmean(batch))
    return statistics.median(means)


def results(done: list[dict], trace: bool) -> dict[str, float]:
    """Metrics over the invocations whose output passed the gate."""
    ok = [inv for inv in done if not inv["problems"]]
    if not trace:
        return {name: batch_median(ok, name)
                for name in ("wall_s", "setup_s", "peak_rss_mb")} if ok else {}
    per = [layer_metrics(inv) for inv in ok if inv["traced"]]
    if not per:
        return {}
    metrics = {name: statistics.median(p[name] for p in per) for name in per[0]}
    # each traced invocation against the untraced one just before it, so a
    # change in machine speed between pairs cancels
    metrics["trace.overhead"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(done[::2], done[1::2]))
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload and print its metrics; the result is the last line."""
    done = measure(workload, seed, seconds, trace)
    failed = [inv for inv in done if inv["problems"]]
    for inv in failed:
        print(f"FAILED invocation: {'; '.join(inv['problems'][:5])}", file=sys.stderr)
    metrics = results(done, trace)
    traced = sum(inv["traced"] for inv in done)
    print(f"{workload}: {len(done) - traced} untraced, {traced} traced invocations; "
          f"error_rate {len(failed) / len(done):.6g} ({len(failed)}/{len(done)})")
    s1 = [inv["s1_abs_err"] for inv in done if inv.get("s1_abs_err") is not None]
    if s1:
        print(f"  s1_abs_err = {statistics.median(s1):.10g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {UNITS[name.rpartition('.')[2]]}")
    print("context " + json.dumps(context(seed), sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": len(done), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name.rpartition(".")[2]]}
                    for name, value in metrics.items()}}), flush=True)


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(args)
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    try:
        for name in names:
            run_workload(name, opts.seed, opts.seconds, bool(opts.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
