"""Command-line orchestration.

Commands: scan, moment1, moment2, dispersion, lemmas, singular, constant.
Parameters come from --key=value flags and/or a plain-text config file of
`key = value` lines (# comments); flags override file values.  Each command
returns its CSV as columns of values and its summary values; run() alone
writes results.csv (blocks of rows, each cell formatted by _write_rows) and
summary.json (full effective config echo, the row count, a git-style content
hash of the CSV's bytes as read back from disk) into the output directory, so
a run is reproducible from its summary alone.  Only `timings` differs between
reruns: wall_seconds, compute_seconds (until the library call returns), the
peak RSS of the process and of its workers, and the process's minor page faults.
The `moment` and `profile` blocks hold computed values only, no copy of
`parameters`; moment2's `moment` adds sampling_sd (null for one sample) and
has exceptional_count null.

Exit codes: 0 success, 2 when a computed check reports pass=false,
1 for any error (unknown command/key, malformed or out-of-range value,
I/O failure).
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

try:     # not hashlib, which maps OpenSSL's libcrypto (see README)
    from _sha1 import sha1
except ImportError:      # a CPython built without its own SHA-1
    from hashlib import sha1

from .dispersion import dispersion_profile
from .lemmas import default_grid
from .scan import (MomentReport, ScanColumns, ScanConfig, _worker, full_window_moment,
                   scan_all_k, theorem2_moment, worker_peaks)
from .singular import (CONSTANT_TRUNCATION, DEFAULT_TRUNCATION, batch_singular_values,
                       main_term_constant, singular_error_bound)

# key -> type of its value
_PARAM_TYPES = {
    "z": int, "K": int, "delta": int, "B": float, "P": int,
    "t_samples": int, "seed": int, "grid": int,
    "out": str, "config": str,
}

_REQUIRED = object()     # marks a key that has no default

# command -> {key: default} for every key the command reads, besides the
# --out and --config that every command takes; any other key is refused.
_KEYS = {
    "scan": {"z": _REQUIRED, "K": _REQUIRED, "delta": None, "P": DEFAULT_TRUNCATION},
    "moment1": {"z": _REQUIRED, "K": _REQUIRED, "B": 1.0, "P": DEFAULT_TRUNCATION},
    "moment2": {"z": _REQUIRED, "K": _REQUIRED, "delta": _REQUIRED, "B": 1.0,
                "P": DEFAULT_TRUNCATION, "t_samples": 16, "seed": None},
    "dispersion": {"z": _REQUIRED, "K": _REQUIRED, "delta": _REQUIRED, "B": 1.0,
                   "P": DEFAULT_TRUNCATION, "grid": 64, "seed": None},
    "lemmas": {"seed": 0},
    "singular": {"K": _REQUIRED, "P": DEFAULT_TRUNCATION},
    "constant": {"P": CONSTANT_TRUNCATION},
}


class CliError(Exception):
    """Configuration or runtime error; maps to exit code 1."""


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output_dir: Path = Path(".")


def _coerce(key: str, raw: str):
    typ = _PARAM_TYPES[key]
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        raise CliError(f"malformed value for {key}: {raw!r} "
                       f"(expected {typ.__name__})") from None


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _PARAM_TYPES:
            raise CliError(f"{path}:{lineno}: unknown key: {key}")
        if key == "config":
            raise CliError(f"{path}:{lineno}: config files do not nest")
        values[key] = _coerce(key, raw)
    return values


def parse_config(args: list[str]) -> RunConfig:
    """Build a RunConfig from CLI tokens and the optional --config file.

    Flags override file values; unknown commands/keys, keys the command
    does not read and malformed values raise CliError with a distinct message.
    """
    if not args:
        raise CliError(f"missing command (one of: {', '.join(_KEYS)})")
    command = args[0]
    if command not in _KEYS:
        raise CliError(f"unknown command: {command}")
    flag_values: dict = {}
    for token in args[1:]:
        if not token.startswith("--") or "=" not in token:
            raise CliError(f"malformed flag: {token!r} (expected --key=value)")
        key, raw = token[2:].split("=", 1)
        if key not in _PARAM_TYPES:
            raise CliError(f"unknown key: {key}")
        flag_values[key] = _coerce(key, raw)

    file_path = flag_values.pop("config", None)
    merged = _read_config_file(file_path) if file_path else {}
    merged.update(flag_values)

    keys = _KEYS[command]
    for key in merged:
        if key not in keys and key not in ("out", "config"):
            raise CliError(f"{command} does not take --{key}")
    for key, default in keys.items():
        merged.setdefault(key, default)
        if merged[key] is _REQUIRED:
            raise CliError(f"missing required key: {key}")

    out = merged.pop("out", None) or f"runs/{command}"
    return RunConfig(command=command, parameters=merged, output_dir=Path(out))


# Rows per string handed to the file, and bytes per read when hashing it
# back: the output path holds one block, not the whole CSV.
_BLOCK_ROWS = 1024
_HASH_CHUNK = 1 << 18
# A CSV of this many blocks or more has its back half formatted by a worker: a
# block of scan rows takes 2.8 ms, so that half outlasts the fork (see
# scan._FORK_MIN_PIECES) twice over.
_FORK_MIN_BLOCKS = 8


def _content_hash(path: Path) -> str:
    """Git blob-style SHA1 of the file's bytes on disk."""
    h = sha1(b"blob %d\0" % path.stat().st_size)
    buf = bytearray(_HASH_CHUNK)
    with path.open("rb") as fh:
        while n := fh.readinto(buf):
            h.update(memoryview(buf)[:n])
    return h.hexdigest()


def _peak_rss_mb() -> float | None:
    """This process's high-water RSS (VmHWM) in MiB, or None if unreadable."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(ln.split()[1]) / 1024 for ln in fh if ln.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


def _write_rows(fh, columns: tuple, lo: int, hi: int) -> None:
    """Write rows lo..hi-1 of the columns as CSV lines, a block at a time; a cell
    is str() of its value (repr for a float), taken from an ndarray by .tolist()."""
    line = ",".join(["%s"] * len(columns)) + "\n"       # %s formats by str()
    for start in range(lo, hi, _BLOCK_ROWS):
        part = slice(start, min(start + _BLOCK_ROWS, hi))
        cells = [c[part].tolist() if hasattr(c, "tolist") else c[part] for c in columns]
        fh.write("".join(map(line.__mod__, zip(*cells))).encode())
    fh.flush()                  # a worker leaves by os._exit, which flushes nothing


def _write_outputs(config: RunConfig, header: str, columns: tuple,
                   extra: dict, started: float, compute_seconds: float) -> None:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = config.output_dir / "results.csv"
    count = len(columns[0])
    blocks = -(-count // _BLOCK_ROWS)
    split = blocks // 2 * _BLOCK_ROWS if blocks >= _FORK_MIN_BLOCKS else count

    def write_back_half():
        back.seek(0)        # a failed worker shares the file offset and may leave bytes
        back.truncate()
        _write_rows(back, columns, split, count)

    # a worker formats the back half into an unnamed file beside the CSV
    with (csv_path.open("wb") as fh,
          tempfile.TemporaryFile(dir=config.output_dir) as back,
          _worker(write_back_half, split < count) as join):
        fh.write(header.encode() + b"\n")
        _write_rows(fh, columns, 0, split)
        join()
        back.seek(0)
        shutil.copyfileobj(back, fh)
    peaks = worker_peaks.get()
    summary = {
        "command": config.command,
        "parameters": {k: v for k, v in sorted(config.parameters.items())},
        "output_dir": str(config.output_dir),
        "rows": count,
        "content_hash": _content_hash(csv_path),
        "timings": {"wall_seconds": time.perf_counter() - started,
                    "compute_seconds": compute_seconds,
                    "peak_rss_mb": _peak_rss_mb(),
                    "worker_peak_rss_mb": max(peaks) / 1024 if peaks else None,
                    "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt},
    }
    if config.command not in ("lemmas", "constant"):    # the others compute S(k)
        summary["health"] = {
            "singular_error_bound": singular_error_bound(config.parameters["P"])}
    summary.update(extra)
    (config.output_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _scan_csv(scan: ScanColumns) -> tuple[str, tuple]:
    """The header and columns of a scan's CSV: one row per k."""
    return "k,lambda_sum,count,singular,residual", (
        range(1, scan.lambda_sum.size + 1), scan.lambda_sum, scan.count, scan.singular,
        scan.residual)


def _report_dict(report: MomentReport) -> dict:
    return {"lhs": report.lhs, "bound": report.bound, "ratio": report.ratio,
            "exceptional_count": report.exceptional_count,
            "runtime_stats": {"segments": report.segments, "cells": report.cells}}


def _scan_config(p: dict) -> ScanConfig:
    """The command's ScanConfig; its range warnings go to stderr."""
    cfg = ScanConfig(**{k: p[k] for k in ("z", "K", "delta", "B") if k in p})
    for warning in cfg.range_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


# Each runner maps the parameters to (header, columns, extra): the CSV header,
# a tuple of equal-length columns (a range, an ndarray or a list) holding the
# cells' values unformatted, and the summary's own keys.

def _run_scan(p: dict):
    scan = scan_all_k(_scan_config(p), P=p["P"])
    return *_scan_csv(scan), {}


def _run_moment1(p: dict):
    scan, report = full_window_moment(_scan_config(p), P=p["P"])
    return *_scan_csv(scan), {"moment": _report_dict(report)}


def _run_moment2(p: dict):
    report = theorem2_moment(_scan_config(p), P=p["P"], t_samples=p["t_samples"],
                             seed=p["seed"])
    ts, values = zip(*report.samples)
    return "sample,t,inner_sum", (range(len(ts)), ts, values), {
        "moment": {**_report_dict(report), "sampling_sd": report.sampling_sd}}


def _run_dispersion(p: dict):
    samples, summary = dispersion_profile(_scan_config(p), P=p["P"],
                                          grid_points=p["grid"], seed=p["seed"])
    columns = [[getattr(s, name) for s in samples]
               for name in ("t", "U", "V", "W", "combined", "direct_square", "main_term")]
    return "t,U,V,W,combined,direct_square,main_term", columns, {"profile": summary}


def _run_lemmas(p: dict):
    reports = default_grid(seed=p["seed"])
    for r in reports:
        print(f"{r.lemma_id}: {'pass' if r.passed else 'FAIL'} "
              f"(observed={r.observed:.6g}, reference={r.reference:.6g})")
    columns = ([r.lemma_id for r in reports],
               [";".join(f"{k}={v}" for k, v in r.params.items()) for r in reports],
               [r.observed for r in reports], [r.reference for r in reports],
               [r.ratio for r in reports], [str(r.passed).lower() for r in reports],
               ["" if r.seed is None else r.seed for r in reports])
    return "lemma_id,params,observed,reference,ratio,pass,seed", columns, {
        "failures": [r.lemma_id for r in reports if not r.passed]}


def _run_singular(p: dict):
    return "k,value", (range(1, p["K"] + 1), batch_singular_values(p["K"], p["P"])), {}


def _run_constant(p: dict):
    value = main_term_constant(p["P"])
    print(f"main-term constant at P={p['P']}: {value!r}")
    return "P,value", ([p["P"]], [value]), {"constant": value}


_RUNNERS = {"scan": _run_scan, "moment1": _run_moment1, "moment2": _run_moment2,
            "dispersion": _run_dispersion, "lemmas": _run_lemmas,
            "singular": _run_singular, "constant": _run_constant}


def run(config: RunConfig) -> int:
    """Execute the configured command; returns the process exit code."""
    started = time.perf_counter()
    token = worker_peaks.set([])
    try:
        header, columns, extra = _RUNNERS[config.command](config.parameters)
        compute_seconds = time.perf_counter() - started
        _write_outputs(config, header, columns, extra, started, compute_seconds)
    except OSError as exc:
        raise CliError(f"I/O failure: {exc}") from exc
    except (ValueError, OverflowError) as exc:  # the library's own range checks
        raise CliError(str(exc)) from exc
    finally:
        worker_peaks.reset(token)
    return 2 if extra.get("failures") else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return run(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
