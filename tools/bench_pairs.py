"""Alternating parent/change pairs of the quadprimes benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_23.json --scratch DIR
        [--rev HEAD] [--pairs 10] [--seeds 0 1]
        [--claim full-window:peak_rss_mb:34.3] [--note TEXT ...]

Two copies are made under DIR: `parent`, the src/ and perfbench/ of --rev
taken with `git archive`, and `change`, the working tree's src/ and
perfbench/.  For every seed, each of --pairs pairs runs

    python3 perfbench/run.py --workload all --seed SEED --seconds S

once in each copy, alternating which copy runs first.  Before every run the
copy's __pycache__ directories are deleted, and the run is made with
PYTHONDONTWRITEBYTECODE=1, so both sides compile the package on every
invocation.  The run length S (`run_seconds`) and the bounds and directions
of the end-to-end metrics come from BENCHMARK.json.  Quartiles are
statistics.quantiles(n=4, method='inclusive').

The output holds the runs and, per workload and end-to-end metric, the
parent's and the change's median/q1/q3/n, how many pairs the change won,
the relative change of the median and whether it lies within its bound, and
per side the failed and attempted invocations.  The first seed's summary is
`summary`; each further seed's is `summary_seed<N>`.  A --claim
WORKLOAD:METRIC:TARGET is met on a seed when the change's median is on the
better side of TARGET, the change wins at least 9 in 10 of the pairs, and the
medians lie further apart than the parent's interquartile range; a note per
seed says whether it is.  The --note texts follow the tool's own notes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "perfbench")
SIDES = ("parent", "change")


def prepare(scratch: Path, rev: str) -> tuple[dict[str, Path], str]:
    """The parent and change copies under scratch, and the parent's full sha."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dirs = {side: scratch / side for side in SIDES}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha, *COPIED], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dirs["parent"], filter="data")
    for name in COPIED:
        shutil.copytree(ROOT / name, dirs["change"] / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_runs"))
    return dirs, sha


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(workloads, context) from run.py's output: each workload block opens
    with `NAME: ... invocations; ...`, and ends with a context line and a
    JSON result line."""
    workloads, context, name = {}, {}, None
    for line in stdout.splitlines():
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
        elif line.startswith("{") and name is not None:
            result = json.loads(line)
            workloads[name] = {
                "attempted": result["attempted"], "failed": result["failed"],
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        elif not line.startswith(" ") and ": " in line and "invocations" in line:
            name = line.split(":", 1)[0]
    return workloads, context


def run_side(side_dir: Path, seed: int, seconds: float) -> dict:
    """One `run.py --workload all` in a copy, with no bytecode cached or written."""
    for cache in list(side_dir.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)             # run.py puts the copy's src/ on it
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=side_dir, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    workloads, context = parse_output(done.stdout)
    if done.returncode:
        sys.stderr.write(done.stderr[-2000:])
    return {"exit": done.returncode, "git_sha": context.get("git_sha"),
            "src_lines": context.get("src_lines"), "workloads": workloads}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _value(workloads: dict, workload: str, metric: str) -> float | None:
    return workloads.get(workload, {}).get("metrics", {}).get(metric)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric, the parent/change statistics over the pairs.

    runs: dicts with `pair`, `side` and `workloads` as run_side returns them;
    end_to_end: BENCHMARK.json's entries with `name`, `better` and `bound`.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["workloads"]
    summary = {}
    for workload in dict.fromkeys(name for run in runs for name in run["workloads"]):
        block = {}
        for spec in end_to_end:
            metric, sign = spec["name"], 1 if spec["better"] == "lower" else -1
            values = {side: [v for r in runs if r["side"] == side and
                             (v := _value(r["workloads"], workload, metric)) is not None]
                      for side in SIDES}
            if not all(values.values()):
                continue
            pairs = [(_value(w.get("parent", {}), workload, metric),
                      _value(w.get("change", {}), workload, metric))
                     for w in by_pair.values()]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            stats = {side: quartiles(values[side]) for side in SIDES}
            rel = stats["change"]["median"] / stats["parent"]["median"] - 1
            block[metric] = {
                **stats,
                "change_better_pairs": sum(sign * (c - p) < 0 for p, c in pairs),
                "pairs": len(pairs),
                "median_change_over_parent": rel,
                "bound": spec["bound"],
                "within_bound": sign * rel <= spec["bound"]}
        block["failed_over_attempted"] = {
            side: "%d/%d" % tuple(sum(r["workloads"][workload][key] for r in runs
                                      if r["side"] == side and workload in r["workloads"])
                                  for key in ("failed", "attempted"))
            for side in SIDES}
        summary[workload] = block
    return summary


def claim(summary: dict, workload: str, metric: str, target: float, better: str) -> dict:
    """Whether the change's gain on one metric is met, as the module docstring says."""
    s = summary[workload][metric]
    parent, change = s["parent"]["median"], s["change"]["median"]
    sign = 1 if better == "lower" else -1
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    return {"metric": metric, "workload": workload, "parent_median": parent,
            "change_median": change, "change_better_pairs": s["change_better_pairs"],
            "pairs": s["pairs"], "median_gap": sign * (parent - change),
            "parent_iqr": iqr, "target": target,
            "met": (sign * (change - target) <= 0 and sign * (parent - change) > iqr
                    and 10 * s["change_better_pairs"] >= 9 * s["pairs"])}


def medians_note(summary: dict) -> str:
    parts = []
    for workload, block in summary.items():
        for metric, s in block.items():
            if metric == "failed_over_attempted":
                continue
            parts.append(f"{workload} {metric} {s['parent']['median']:.4g} -> "
                         f"{s['change']['median']:.4g} "
                         f"({100 * s['median_change_over_parent']:+.1f}%, "
                         f"{s['change_better_pairs']} of {s['pairs']} better)")
    return "Medians, parent -> change: " + "; ".join(parts) + "."


def claim_note(c: dict) -> str:
    return (f"{c['workload']} {c['metric']} claim {'met' if c['met'] else 'NOT met'}: "
            f"median {c['parent_median']:.4g} -> {c['change_median']:.4g} "
            f"(target {c['target']:g}), {c['change_better_pairs']} of {c['pairs']} pairs "
            f"better, medians {c['median_gap']:.4g} apart against a parent "
            f"interquartile range of {c['parent_iqr']:.4g}.")


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the two copies (emptied and refilled)")
    parser.add_argument("--rev", default="HEAD", help="the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--claim", help="WORKLOAD:METRIC:TARGET of a claimed gain")
    parser.add_argument("--note", action="append", default=[], help="a note to add")
    opts = parser.parse_args(args)
    if opts.pairs < 1:
        parser.error("--pairs must be >= 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    dirs, sha = prepare(opts.scratch, opts.rev)
    command = f"python3 perfbench/run.py --workload all --seed SEED --seconds {seconds:g}"
    what = (f"{command} runs of the parent commit ({sha[:7]}, its src/ and perfbench/ "
            "from git archive) and of the working tree (a copy of its src/ and "
            f"perfbench/), {opts.pairs} pairs per seed alternating which side runs first "
            "(ran_first). Both copies' __pycache__ directories were deleted before every "
            "run and the runs were made with PYTHONDONTWRITEBYTECODE=1. Quartiles are "
            "statistics.quantiles(n=4, method='inclusive'). Host: "
            f"{len(os.sched_getaffinity(0))} vCPU, Python {platform.python_version()}, "
            f"numpy {importlib.metadata.version('numpy')}.")
    src_lines, runs_by_seed, summaries, claims, notes = {}, {}, {}, {}, []
    for n, seed in enumerate(opts.seeds):
        suffix = "" if n == 0 else f"_seed{seed}"
        runs = runs_by_seed[f"seed{seed}"] = []
        for pair in range(opts.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"seed {seed} pair {pair} {side}", file=sys.stderr, flush=True)
                run = {"pair": pair, "side": side, "ran_first": side == order[0],
                       **run_side(dirs[side], seed, seconds)}
                if side == "parent":
                    run["git_sha"] = sha
                runs.append(run)
                src_lines.setdefault(side, run["src_lines"])
        summary = summaries[f"summary{suffix}"] = summarize(runs, end_to_end)
        within = all(s["within_bound"] for block in summary.values()
                     for m, s in block.items() if m != "failed_over_attempted")
        notes += [f"seed {seed}: {medians_note(summary)}",
                  f"seed {seed}: every median within its BENCHMARK.json bound: "
                  f"{str(within).lower()}."]
        if opts.claim:
            workload, metric, target = opts.claim.split(":")
            better = next(e["better"] for e in end_to_end if e["name"] == metric)
            c = claims[f"claim{suffix}"] = claim(summary, workload, metric, float(target),
                                                 better)
            notes.append(f"seed {seed}: {claim_note(c)}")
    out = {"what": what, "command": command.replace("SEED", str(opts.seeds[0])),
           "made_with": (f"python3 tools/bench_pairs.py --rev {opts.rev} --pairs {opts.pairs} "
                         f"--seeds {' '.join(map(str, opts.seeds))}"
                         + (f" --claim {opts.claim}" if opts.claim else "")),
           "src_lines": src_lines, "claim": claims.pop("claim", None), **claims,
           **summaries, "runs": runs_by_seed, "notes": [*notes, *opts.note]}
    opts.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
