"""Tests for the command-line runner: parsing, outputs, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quadprimes.arith as arith
import quadprimes.cli as cli
import quadprimes.scan as scan
from quadprimes.cli import CliError, RunConfig, main, parse_config
from quadprimes.lemmas import LemmaReport
from quadprimes.scan import ScanConfig, full_window_moment
from quadprimes.singular import (DEFAULT_TRUNCATION, batch_singular_values,
                                 singular_error_bound)

GOLDEN_SCAN_Z100_K5 = """k,lambda_sum,count,singular,residual
1,9.898324245579248,5,1.3728133547075894,3.0342574720413014
2,0.0,5,0.7130630808676268,-3.565315404338134
3,9.928033812954128,5,1.1207326318553708,4.324370653677274
4,6.76272950693188,5,1.3728133547075894,-0.10133726660606701
5,5.003946305945459,4,0.528245504815524,2.890964286683363
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_basic_moment1():
    cfg = parse_config(["moment1", "--z=1000000", "--K=1000", "--B=1"])
    assert cfg.command == "moment1"
    assert cfg.parameters["z"] == 10**6
    assert cfg.parameters["K"] == 1000
    assert cfg.parameters["B"] == 1.0
    assert cfg.parameters["P"] == DEFAULT_TRUNCATION == 10**4  # default


def test_parse_missing_required_key():
    with pytest.raises(CliError, match="missing required key: delta"):
        parse_config(["moment2", "--z=1000", "--K=10"])


def test_parse_unknown_command_and_key():
    with pytest.raises(CliError, match="unknown command: frobnicate"):
        parse_config(["frobnicate"])
    with pytest.raises(CliError, match="unknown key: zz"):
        parse_config(["moment1", "--zz=5"])
    for key in ("tol", "x", "lo", "hi", "action", "cache_dir", "C", "threads"):  # removed
        with pytest.raises(CliError, match=f"unknown key: {key}$"):
            parse_config(["moment1", "--z=1000", "--K=10", f"--{key}=1"])
    for command, key, args in (("moment1", "delta", ["--z=1000", "--K=10"]),  # not read
                               ("lemmas", "grid", []),
                               ("scan", "B", ["--z=100", "--K=5"])):
        with pytest.raises(CliError, match=f"^{command} does not take --{key}$"):
            parse_config([command, *args, f"--{key}=2"])
    with pytest.raises(CliError, match="unknown command: cache"):
        parse_config(["cache", "--action=stat"])
    with pytest.raises(CliError, match="missing command"):
        parse_config([])


def test_parse_malformed_value_and_flag():
    with pytest.raises(CliError, match="malformed value for z"):
        parse_config(["moment1", "--z=abc", "--K=3"])
    with pytest.raises(CliError, match="malformed flag"):
        parse_config(["moment1", "-z=10"])
    for threads in (0, -3):
        with pytest.raises(CliError, match="^unknown key: threads$"):
            parse_config(["scan", "--z=100", "--K=5", f"--threads={threads}"])


def test_every_parsed_key_is_read_by_a_command():
    read = set().union(*(keys.keys() for keys in cli._KEYS.values()))
    assert set(cli._PARAM_TYPES) == {"out", "config"} | read


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# experiment defaults\nz = 1000000\nK = 50\n")
    cfg = parse_config(["moment1", f"--config={cfg_file}", "--z=10000000"])
    assert cfg.parameters["z"] == 10**7   # flag wins
    assert cfg.parameters["K"] == 50      # file value survives


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("zz = 3\n")
    with pytest.raises(CliError, match="unknown key: zz"):
        parse_config(["moment1", f"--config={bad}"])
    bad.write_text("just words\n")
    with pytest.raises(CliError, match="expected 'key = value'"):
        parse_config(["moment1", f"--config={bad}"])
    with pytest.raises(CliError, match="cannot read config file"):
        parse_config(["moment1", f"--config={tmp_path}/nope.cfg"])
    bad.write_text("z = 1000\nconfig = /nonexistent.cfg\n")
    with pytest.raises(CliError, match=f"^{bad}:2: config files do not nest$"):
        parse_config(["moment1", "--K=5", f"--config={bad}"])


# ---------------------------------------------------------------------------
# runs and outputs
# ---------------------------------------------------------------------------

def test_scan_golden_file(tmp_path):
    code = main(["scan", "--z=100", "--K=5", f"--out={tmp_path}"])
    assert code == 0
    assert (tmp_path / "results.csv").read_text() == GOLDEN_SCAN_Z100_K5
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["command"] == "scan"
    assert summary["parameters"]["z"] == 100
    assert summary["rows"] == 5
    assert len(summary["content_hash"]) == 40


def test_moment1_deterministic_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["moment1", "--z=20000", "--K=150", f"--out={out1}"]) == 0
    assert main(["moment1", "--z=20000", "--K=150", f"--out={out2}"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["content_hash"] == s2["content_hash"]
    assert s1["moment"]["lhs"] == s2["moment"]["lhs"]


def test_moment1_reports_scan_stats_and_theorem1_values(tmp_path):
    assert main(["moment1", "--z=20000", "--K=150", "--B=1.5", f"--out={tmp_path}"]) == 0
    moment = json.loads((tmp_path / "summary.json").read_text())["moment"]
    assert moment["runtime_stats"]["segments"] > 0
    assert moment["runtime_stats"]["cells"] > 0
    assert set(moment["runtime_stats"]) == {"segments", "cells"}
    assert "sampling_sd" not in moment
    report = full_window_moment(ScanConfig(z=20000, K=150, B=1.5))[1]
    assert moment["lhs"] == report.lhs
    assert moment["exceptional_count"] == report.exceptional_count
    assert moment["bound"] == report.bound


def test_moment2_outputs_and_seed_echo(tmp_path):
    code = main(["moment2", "--z=3000", "--K=20", "--delta=500",
                 "--t_samples=4", "--seed=11", f"--out={tmp_path}"])
    assert code == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "sample,t,inner_sum"
    assert len(lines) == 5
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["parameters"]["seed"] == 11
    assert summary["parameters"]["t_samples"] == 4
    moment = summary["moment"]
    assert set(moment["runtime_stats"]) == {"segments", "cells"}
    assert moment["sampling_sd"] > 0
    assert moment["exceptional_count"] is None


def test_moment2_one_sample_has_no_sampling_sd(tmp_path):
    assert main(["moment2", "--z=1000000", "--K=3982", "--delta=63096",
                 "--t_samples=1", f"--out={tmp_path}"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["moment"]["sampling_sd"] is None     # written as null


def _refused(argv, out, capsys) -> list[str]:
    """Run argv into out; it must exit 1 and write no file there.  Returns its
    non-warning stderr lines (a traceback would have raised out of main)."""
    assert main([*argv, f"--out={out}"]) == 1
    assert not any(out.iterdir())
    return [ln for ln in capsys.readouterr().err.splitlines()
            if not ln.startswith("warning: ")]


def test_dispersion_rows_leave_the_reference_error_to_the_summary(tmp_path):
    assert main(["dispersion", "--z=1000", "--K=20", "--delta=300", "--grid=3",
                 f"--out={tmp_path}"]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "t,U,V,W,combined,direct_square,main_term"
    assert {len(ln.split(",")) for ln in lines[1:]} == {7}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["profile"]["E"] > 0


def test_dispersion_zero_delta(tmp_path, capsys):
    # an empty window has no dispersion terms: E = 0 made NaN in summary.json
    assert _refused(["dispersion", "--z=1000", "--K=5", "--delta=0", "--grid=4"],
                    tmp_path, capsys) == [
        "error: the dispersion terms need delta >= 1"]


def test_moment2_zero_delta(tmp_path, capsys):
    assert _refused(["moment2", "--z=1000", "--K=40", "--delta=0"],
                    tmp_path, capsys) == [
        "error: theorem2_moment requires delta >= 1"]


@pytest.mark.parametrize("B", ["nan", "inf", "-1000"])
def test_moment1_refuses_a_non_finite_or_negative_B(tmp_path, capsys, B):
    assert _refused(["moment1", "--z=1000", "--K=40", f"--B={B}"],
                    tmp_path, capsys) == [
        f"error: B must be finite and >= 0, got {float(B)}"]


def test_lemmas_default_grid_run(tmp_path):
    code = main(["lemmas", f"--out={tmp_path}"])
    assert code == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "lemma_id,params,observed,reference,ratio,pass,seed"
    assert len(lines) - 1 >= 8
    assert all(",true," in line for line in lines[1:])
    assert "health" not in json.loads((tmp_path / "summary.json").read_text())


def test_lemmas_exit_code_on_failure(tmp_path, monkeypatch):
    failing = [LemmaReport(lemma_id="PHI_AVG", params={"x": 1}, observed=1.0,
                           reference=2.0, ratio=0.5, passed=False, seed=0)]
    monkeypatch.setattr(cli, "default_grid", lambda seed: failing)
    code = main(["lemmas", f"--out={tmp_path}"])
    assert code == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["failures"] == ["PHI_AVG"]


def test_singular_and_constant_commands(tmp_path):
    code = main(["singular", "--K=8", "--P=1000", f"--out={tmp_path}/s"])
    assert code == 0
    lines = (tmp_path / "s" / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "k,value"
    assert len(lines) == 9
    assert lines[1].startswith("1,")
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["parameters"]["P"] == 1000
    assert summary["health"] == {"singular_error_bound": singular_error_bound(1000)}
    code = main(["constant", "--P=1000", f"--out={tmp_path}/c"])
    assert code == 0
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["constant"] == pytest.approx(1.2957, abs=1e-3)
    assert "health" not in summary


@pytest.mark.parametrize("K, P", [(300, 1000), (40, 5), (5, 3)])
def test_singular_columns_are_the_batch_and_its_bound(tmp_path, K, P):
    assert main(["singular", f"--K={K}", f"--P={P}", f"--out={tmp_path}"]) == 0
    text = (tmp_path / "results.csv").read_text()
    rows = [r.split(",") for r in text.splitlines()[1:]]
    values = np.array([float(r[1]) for r in rows])
    full = batch_singular_values(K, P)
    assert values.view(np.int64).tolist() == full.view(np.int64).tolist()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["health"] == {"singular_error_bound": singular_error_bound(P)}


def test_singular_refuses_an_oversized_batch(tmp_path, capsys):
    for K, P, estimate in ((1, 10**7, "7.79e+12"),      # the correction product
                           (10**7, 3, "7.31e+10")):     # the class numbers
        started = time.perf_counter()
        assert main(["singular", f"--K={K}", f"--P={P}", f"--out={tmp_path}"]) == 1
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: S(k) for K={K} with P={P} needs about {estimate} cell")
        assert not (tmp_path / "results.csv").exists()


def test_an_oversized_batch_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def not_called(*args):
        raise AssertionError("sieve_window ran")

    monkeypatch.setattr(scan, "sieve_window", not_called)
    with pytest.raises(ValueError) as refusal:
        batch_singular_values(10**7, DEFAULT_TRUNCATION)
    assert _refused(["moment1", "--z=100000000", "--K=10000000"], tmp_path, capsys) == [
        f"error: {refusal.value}"]
    tracemalloc.start()                 # no [P] * K column before the refusal
    try:
        assert main(["singular", "--K=20000000", f"--out={tmp_path}"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert capsys.readouterr().err.startswith("error: S(k) for K=20000000 with P=")


def test_health_reports_the_singular_error_bound(tmp_path):
    runs = {"scan": ["--z=1000", "--K=20"],
            "moment1": ["--z=1000", "--K=20", "--P=5000"],
            "moment2": ["--z=1000", "--K=20", "--delta=300", "--t_samples=2"],
            "dispersion": ["--z=1000", "--K=20", "--delta=300", "--grid=2"]}
    for command, args in runs.items():
        out = tmp_path / command
        assert main([command, *args, f"--out={out}"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        P = summary["parameters"]["P"]
        assert summary["health"] == {"singular_error_bound": singular_error_bound(P)}
        assert "error_bound" not in (out / "results.csv").read_text()


_SMALL_RUNS = {
    "scan": ["--z=1000", "--K=20"],
    "moment1": ["--z=1000", "--K=20"],
    "moment2": ["--z=1000", "--K=20", "--delta=300", "--t_samples=9"],
    "dispersion": ["--z=1000", "--K=20", "--delta=300", "--grid=9"],
    "lemmas": [],
    "singular": ["--K=3000", "--P=100"],
    "constant": ["--P=1000"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_content_hash_and_rows_describe_the_file_on_disk(tmp_path, monkeypatch, command):
    # default blocks, then blocks of 7 rows hashed back 1000 bytes at a time
    for out, block_rows, chunk in ((tmp_path / "a", cli._BLOCK_ROWS, cli._HASH_CHUNK),
                                   (tmp_path / "b", 7, 1000)):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(cli, "_HASH_CHUNK", chunk)
        assert main([command, *_SMALL_RUNS[command], f"--out={out}"]) == 0
        data = (out / "results.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        assert summary["content_hash"] == blob
        assert summary["rows"] == len(data.splitlines()) - 1
    assert (tmp_path / "a" / "results.csv").read_bytes() == data


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_no_command_loads_numpy_random_or_openssl(tmp_path, command):
    # a fresh interpreter, since this one imported hashlib and numpy.random for
    # the oracles; moment2 and dispersion draw their t grid only when seeded
    argv = [command, *_SMALL_RUNS[command], f"--out={tmp_path}"]
    argv += ["--seed=5"] if command in ("moment2", "dispersion") else []
    code = (f"import sys; from quadprimes.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False False"


@pytest.mark.parametrize("command", ["moment2", "dispersion", "lemmas"])
def test_negative_seed_is_refused(tmp_path, capsys, command):
    # numpy's SeedSequence refusal, kept by the package's own stream
    assert _refused([command, *_SMALL_RUNS[command], "--seed=-1"], tmp_path, capsys) == [
        "error: expected non-negative integer"]


def test_content_hash_falls_back_to_hashlib_without_builtin_sha1(tmp_path):
    # a CPython built without _sha1 takes SHA-1 from hashlib, with the same digest
    code = ("import sys; sys.modules['_sha1'] = None; import json, pathlib; "
            "from quadprimes.cli import main; "
            f"rc = main(['moment1', '--z=1000', '--K=20', '--out={tmp_path}']); "
            f"s = json.loads(pathlib.Path(r'{tmp_path}', 'summary.json').read_text()); "
            "print(rc, '_hashlib' in sys.modules, s['content_hash'])")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    data = (tmp_path / "results.csv").read_bytes()
    blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
    assert done.stdout.split() == ["0", "True", blob]


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_summary_payload_is_deterministic(tmp_path, command):
    payloads = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main([command, *_SMALL_RUNS[command], f"--out={out}"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        timings = summary.pop("timings")
        assert set(timings) == {"wall_seconds", "compute_seconds", "peak_rss_mb",
                                "worker_peak_rss_mb", "minor_faults"}
        assert type(timings["minor_faults"]) is int
        del summary["output_dir"]
        payloads.append(summary)
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("command, block", [("moment1", "moment"), ("moment2", "moment"),
                                            ("dispersion", "profile")])
def test_result_blocks_do_not_echo_parameters(tmp_path, command, block):
    assert main([command, *_SMALL_RUNS[command], f"--out={tmp_path}"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary[block]
    assert set(summary[block]) & set(summary["parameters"]) == set()


def test_csv_writer_holds_a_block_not_the_file(tmp_path, monkeypatch):
    write, peaks = cli._write_outputs, []

    def traced(*args):
        tracemalloc.start()             # traces the writer alone, not the scan
        try:
            write(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_outputs", traced)
    assert main(["scan", "--z=1000000", "--K=50000", f"--out={tmp_path}"]) == 0
    assert peaks[0] < (tmp_path / "results.csv").stat().st_size / 4


def test_peak_rss_is_a_timing_and_null_when_unreadable(tmp_path, monkeypatch):
    assert main(["scan", "--z=100", "--K=5", f"--out={tmp_path}/a"]) == 0
    timings = json.loads((tmp_path / "a" / "summary.json").read_text())["timings"]
    assert timings["peak_rss_mb"] > 0

    def unreadable(*args, **kwargs):
        raise OSError("no status file")

    monkeypatch.setattr(cli, "open", unreadable, raising=False)
    assert main(["scan", "--z=100", "--K=5", f"--out={tmp_path}/b"]) == 0
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["timings"]["peak_rss_mb"] is None
    assert (tmp_path / "b" / "results.csv").read_text() == GOLDEN_SCAN_Z100_K5


def test_error_exit_code_from_main(tmp_path, capsys):
    assert main(["moment2", "--z=100", "--K=2"]) == 1  # missing delta
    assert main(["nonsense"]) == 1
    assert main(["moment1", "--z=100", "--K=2", "--delta=5"]) == 1  # key not read
    for threads in (0, -3):
        assert main(["moment1", "--z=100", "--K=2", f"--threads={threads}"]) == 1
        assert capsys.readouterr().err.endswith("error: unknown key: threads\n")


def test_library_range_error_moment1_z_too_small(tmp_path, capsys):
    assert main(["moment1", "--z=2", "--K=1", f"--out={tmp_path}"]) == 1
    assert capsys.readouterr().err == "error: z must be >= 3\n"


def test_library_range_error_moment1_window_over_cap(tmp_path, capsys):
    assert main(["moment1", "--z=5000000000000000000", "--K=1", f"--out={tmp_path}"]) == 1
    lines = capsys.readouterr().err.splitlines()   # after the range warnings
    assert [ln for ln in lines if not ln.startswith("warning: ")] == [
        "error: window top exceeds the 2^63-1 cap"]


def test_library_range_error_large_B_before_any_scan(tmp_path, capsys, monkeypatch):
    def not_called(*args):
        raise AssertionError("progression_sums ran")

    monkeypatch.setattr(scan, "progression_sums", not_called)
    assert main(["moment1", "--z=1000", "--K=40", "--B=1e6", f"--out={tmp_path}"]) == 1
    assert capsys.readouterr().err == (
        "error: B=1000000.0 is too large: (log z)^B overflows\n")


def test_summary_refuses_nan(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "constant", lambda p: (
        "P,value", ([1], [float("nan")]), {"constant": float("nan")}))
    assert main(["constant", f"--out={tmp_path}"]) == 1
    assert not (tmp_path / "summary.json").exists()


def test_write_rows_gives_the_repr_lines(monkeypatch):
    ks = range(1, 7)
    ints = np.array([0, -1, 2**62, 7, 8, 9], dtype=np.int64)
    floats = np.array([-0.0, math.inf, math.nan, 5e-324, 1e16, 0.1])
    texts = ["a", "x=1;y=2", "true", "", "7", "false"]
    want = "".join(f"{k},{i},{x!r},{s}\n"
                   for k, i, x, s in zip(ks, ints.tolist(), floats.tolist(), texts))
    assert want.startswith("1,0,-0.0,a\n2,-1,inf,x=1;y=2\n3,4611686018427387904,nan,")
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)   # blocks split the rows 0-3 and 4-5
    for splits in ((0, 6), (0, 3, 6), (0, 1, 5, 6)):
        out = io.BytesIO()
        for lo, hi in zip(splits, splits[1:]):
            cli._write_rows(out, (ks, ints, floats, texts), lo, hi)
        assert out.getvalue().decode() == want


def test_prime_table_over_the_cap_exits_before_any_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(arith, "MAX_PRIME_LIMIT", 1000)
    out = tmp_path / "out"
    assert main(["constant", "--P=1001", f"--out={out}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: prime-table limit 1001 exceeds the cap 1e+03\n"
    assert captured.out == "" and not out.exists()


def test_library_range_error_singular_k_zero(tmp_path, capsys):
    assert main(["singular", "--K=0", f"--out={tmp_path}"]) == 1
    assert capsys.readouterr().err == "error: K must be positive\n"


def test_library_range_error_dispersion_empty_grid(tmp_path, capsys):
    assert main(["dispersion", "--z=1000000", "--K=100", "--delta=1000",
                 "--grid=0", f"--out={tmp_path}"]) == 1
    lines = capsys.readouterr().err.splitlines()   # after the range warnings
    assert [ln for ln in lines if not ln.startswith("warning: ")] == [
        "error: need at least one sample point"]


@pytest.mark.parametrize("args", [["moment1", f"--z=1{'0' * 400}", "--K=5"],
                                  ["scan", "--z=1000", "--K=5", f"--delta=1{'0' * 400}"]])
def test_window_over_the_cap_is_refused_before_any_warning(tmp_path, capsys, args):
    assert main([*args, f"--out={tmp_path}/out"]) == 1
    assert capsys.readouterr().err == "error: window top exceeds the 2^63-1 cap\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scan", "moment1", "moment2", "dispersion"])
def test_scan_commands_print_range_warnings(tmp_path, capsys, command):
    assert main([command, *_SMALL_RUNS[command], f"--out={tmp_path}"]) == 0
    assert capsys.readouterr().err.startswith(
        "warning: K=20 outside the intended range [z^(1/2), z/2] = [32, 500]\n")


# ---------------------------------------------------------------------------
# forked workers: S(k) beside the first sieve, the CSV's back half
# ---------------------------------------------------------------------------

_WORKER_RUN = ["moment1", "--z=3000000", "--K=3000"]    # 3 sieve pieces, 3 CSV blocks


@pytest.fixture
def workers(monkeypatch):
    """Thresholds low and two CPUs, so _WORKER_RUN forks both workers; the
    list returned records each fork."""
    monkeypatch.setattr(scan, "_FORK_MIN_PIECES", 1)
    monkeypatch.setattr(cli, "_FORK_MIN_BLOCKS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _payload(out):
    summary = json.loads((out / "summary.json").read_text())
    del summary["output_dir"]
    return (out / "results.csv").read_bytes(), summary, summary.pop("timings")


def test_worker_paths_write_the_in_process_files(tmp_path, monkeypatch, workers):
    assert main([*_WORKER_RUN, f"--out={tmp_path}/w"]) == 0
    assert len(workers) == 2 and _no_child_left()
    monkeypatch.setattr(scan, "_FORK_MIN_PIECES", 10**9)
    monkeypatch.setattr(cli, "_FORK_MIN_BLOCKS", 10**9)
    assert main([*_WORKER_RUN, f"--out={tmp_path}/p"]) == 0
    assert len(workers) == 2
    csv, summary, timings = _payload(tmp_path / "w")
    assert (csv, summary) == _payload(tmp_path / "p")[:2]
    assert timings["worker_peak_rss_mb"] > 0
    assert _payload(tmp_path / "p")[2]["worker_peak_rss_mb"] is None


def test_failed_worker_leaves_the_library_error_to_the_cli(tmp_path, capfd, monkeypatch,
                                                          workers):
    def refusing(K, P):
        raise ValueError(f"S(k) refused for K={K} with P={P}")

    monkeypatch.setattr(scan, "batch_singular_values", refusing)
    with pytest.raises(ValueError) as refusal:
        scan.batch_singular_values(3000, DEFAULT_TRUNCATION)
    assert main([*_WORKER_RUN, f"--out={tmp_path}"]) == 1
    assert len(workers) == 1 and _no_child_left()
    assert capfd.readouterr().err == f"error: {refusal.value}\n"


@pytest.mark.parametrize("module, name, code", [(cli, "_write_rows", 3),
                                                (scan, "batch_singular_values", 4)])
def test_failed_worker_is_redone_in_process(tmp_path, monkeypatch, workers, module,
                                            name, code):
    parent, real = os.getpid(), getattr(module, name)

    def failing(*args):
        if os.getpid() == parent:
            return real(*args)
        if code == 3:           # the CSV worker leaves bytes in its file first
            args[0].write(b"junk\n" * 1400)
            args[0].flush()
        os._exit(code)

    monkeypatch.setattr(module, name, failing)
    assert main([*_WORKER_RUN, f"--out={tmp_path}/failed"]) == 0
    assert len(workers) == 2 and _no_child_left()
    monkeypatch.setattr(module, name, real)
    monkeypatch.setattr(scan, "_FORK_MIN_PIECES", 10**9)
    monkeypatch.setattr(cli, "_FORK_MIN_BLOCKS", 10**9)
    assert main([*_WORKER_RUN, f"--out={tmp_path}/p"]) == 0
    assert len(workers) == 2
    assert _payload(tmp_path / "failed")[:2] == _payload(tmp_path / "p")[:2]


@pytest.mark.parametrize("module, name, forks", [(scan, "progression_sums", 1),
                                                 (cli, "_write_rows", 2)])
def test_interrupt_after_fork_kills_the_worker(tmp_path, monkeypatch, workers,
                                               module, name, forks):
    parent, real = os.getpid(), getattr(module, name)

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(module, name, interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*_WORKER_RUN, f"--out={tmp_path}/out"])
    assert len(workers) == forks and _no_child_left()
    assert {p.name for p in tmp_path.glob("out/*")} <= {"results.csv"}


def test_single_cpu_affinity_never_forks(tmp_path, monkeypatch, workers):
    def refused():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", refused)
    assert main([*_WORKER_RUN, f"--out={tmp_path}"]) == 0
    assert _payload(tmp_path)[2]["worker_peak_rss_mb"] is None
