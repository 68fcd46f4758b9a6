"""Command-line orchestration.

Commands: scan, moment1, moment2, dispersion, lemmas, singular, constant.
Parameters come from --key=value flags and/or a
plain-text config file of `key = value` lines (# comments); flags override
file values.  Every run writes results.csv and summary.json (full effective
config echo, the row count, a git-style content hash of the CSV's bytes as
read back from disk, timings with the process's peak RSS) into the output
directory, so a run is reproducible from its summary alone.  The CSV is
written in blocks of rows, so the output path holds one block at a time.

Exit codes: 0 success, 2 when a computed check reports pass=false,
1 for any error (unknown command/key, malformed or out-of-range value,
I/O failure).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .dispersion import dispersion_profile
from .lemmas import default_grid
from .scan import (MomentReport, ScanColumns, ScanConfig, full_window_moment,
                   scan_all_k, theorem2_moment)
from .singular import (DEFAULT_TRUNCATION, batch_singular_values, main_term_constant,
                       singular_error_bound)

COMMANDS = ("scan", "moment1", "moment2", "dispersion", "lemmas",
            "singular", "constant")

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
    "constant": {"P": 10**6},
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
        values[key] = _coerce(key, raw)
    return values


def parse_config(args: list[str]) -> RunConfig:
    """Build a RunConfig from CLI tokens and the optional --config file.

    Flags override file values; unknown commands/keys, keys the command
    does not read and malformed values raise CliError with a distinct message.
    """
    if not args:
        raise CliError(f"missing command (one of: {', '.join(COMMANDS)})")
    command = args[0]
    if command not in COMMANDS:
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


def _content_hash(path: Path) -> str:
    """Git blob-style SHA1 of the file's bytes on disk."""
    h = hashlib.sha1(b"blob %d\0" % path.stat().st_size)
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


def _write_outputs(config: RunConfig, header: str, rows: Iterable[str],
                   extra: dict, started: float) -> None:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = config.output_dir / "results.csv"
    count = 0
    rows = iter(rows)
    with csv_path.open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        while block := list(islice(rows, _BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")
            count += len(block)
    summary = {
        "command": config.command,
        "parameters": {k: v for k, v in sorted(config.parameters.items())},
        "output_dir": str(config.output_dir),
        "rows": count,
        "content_hash": _content_hash(csv_path),
        "timings": {"wall_seconds": time.perf_counter() - started,
                    "peak_rss_mb": _peak_rss_mb()},
    }
    if config.command not in ("lemmas", "constant"):    # the others compute S(k)
        summary["health"] = {
            "singular_error_bound": singular_error_bound(config.parameters["P"])}
    summary.update(extra)
    (config.output_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")


_SCAN_HEADER = "k,lambda_sum,count,singular,residual"


def _row_lines(scan: ScanColumns) -> Iterator[str]:
    for lo in range(0, scan.lambda_sum.size, _BLOCK_ROWS):
        part = slice(lo, lo + _BLOCK_ROWS)
        columns = zip(scan.lambda_sum[part].tolist(), scan.count[part].tolist(),
                      scan.singular[part].tolist(), scan.residual[part].tolist())
        for k, (lam, count, sing, resid) in enumerate(columns, lo + 1):
            yield f"{k},{lam!r},{count},{sing!r},{resid!r}"


def _report_dict(report: MomentReport) -> dict:
    cfg = report.config
    return {
        "z": cfg.z, "K": cfg.K, "delta": cfg.delta, "B": cfg.B,
        "lhs": report.lhs, "bound": report.bound, "ratio": report.ratio,
        "exceptional_count": report.exceptional_count,
        "runtime_stats": {k: v for k, v in report.runtime_stats.items()
                          if k != "inner_sums"},
    }


def _run_scan(config: RunConfig, started: float) -> int:
    p = config.parameters
    cfg = ScanConfig(z=p["z"], K=p["K"], delta=p.get("delta"))
    for warning in cfg.range_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    scan = scan_all_k(cfg, P=p["P"])
    _write_outputs(config, _SCAN_HEADER, _row_lines(scan), {}, started)
    return 0


def _run_moment1(config: RunConfig, started: float) -> int:
    p = config.parameters
    cfg = ScanConfig(z=p["z"], K=p["K"], B=p["B"])
    for warning in cfg.range_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    scan, report = full_window_moment(cfg, P=p["P"])
    _write_outputs(config, _SCAN_HEADER, _row_lines(scan),
                   {"moment": _report_dict(report)}, started)
    return 0


def _run_moment2(config: RunConfig, started: float) -> int:
    p = config.parameters
    cfg = ScanConfig(z=p["z"], K=p["K"], delta=p["delta"], B=p["B"])
    for warning in cfg.range_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    report = theorem2_moment(cfg, P=p["P"], t_samples=p["t_samples"],
                             seed=p.get("seed"))
    inner = report.runtime_stats["inner_sums"]
    ts = report.runtime_stats["t_points"]
    rows = [f"{i},{t},{val!r}" for i, (t, val) in enumerate(zip(ts, inner))]
    _write_outputs(config, "sample,t,inner_sum", rows,
                   {"moment": _report_dict(report)}, started)
    return 0


def _run_dispersion(config: RunConfig, started: float) -> int:
    p = config.parameters
    cfg = ScanConfig(z=p["z"], K=p["K"], delta=p["delta"], B=p["B"])
    samples, summary = dispersion_profile(cfg, P=p["P"], grid_points=p["grid"],
                                          seed=p.get("seed"))
    E = summary["E"]
    rows = [f"{s.t},{s.U!r},{s.V!r},{s.W!r},{s.combined!r},"
            f"{s.direct_square!r},{s.main_term!r},{E!r}"
            for s in samples]
    _write_outputs(config, "t,U,V,W,combined,direct_square,main_term,E",
                   rows, {"profile": summary}, started)
    return 0


def _params_field(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def _run_lemmas(config: RunConfig, started: float) -> int:
    reports = default_grid(seed=config.parameters["seed"])
    rows = [f"{r.lemma_id},{_params_field(r.params)},{r.observed!r},"
            f"{r.reference!r},{r.ratio!r},{str(r.passed).lower()},"
            f"{'' if r.seed is None else r.seed}"
            for r in reports]
    failures = [r.lemma_id for r in reports if not r.passed]
    _write_outputs(config, "lemma_id,params,observed,reference,ratio,pass,seed",
                   rows, {"failures": failures}, started)
    for r in reports:
        print(f"{r.lemma_id}: {'pass' if r.passed else 'FAIL'} "
              f"(observed={r.observed:.6g}, reference={r.reference:.6g})")
    return 2 if failures else 0


def _run_singular(config: RunConfig, started: float) -> int:
    p = config.parameters
    K, P = p["K"], p["P"]
    values = batch_singular_values(K, P)
    rows = (f"{k},{P},{value!r}"
            for lo in range(0, K, _BLOCK_ROWS)
            for k, value in enumerate(values[lo:lo + _BLOCK_ROWS].tolist(), lo + 1))
    _write_outputs(config, "k,P,value", rows, {}, started)
    return 0


def _run_constant(config: RunConfig, started: float) -> int:
    P = config.parameters["P"]
    value = main_term_constant(P)
    _write_outputs(config, "P,value", [f"{P},{value!r}"],
                   {"constant": value}, started)
    print(f"main-term constant at P={P}: {value!r}")
    return 0


_RUNNERS = {
    "scan": _run_scan,
    "moment1": _run_moment1,
    "moment2": _run_moment2,
    "dispersion": _run_dispersion,
    "lemmas": _run_lemmas,
    "singular": _run_singular,
    "constant": _run_constant,
}


def run(config: RunConfig) -> int:
    """Execute the configured command; returns the process exit code."""
    started = time.perf_counter()
    try:
        return _RUNNERS[config.command](config, started)
    except CliError:
        raise
    except OSError as exc:
        raise CliError(f"I/O failure: {exc}") from exc
    except (ValueError, OverflowError) as exc:  # the library's own range checks
        raise CliError(str(exc)) from exc


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
