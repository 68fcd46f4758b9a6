"""Tests for the progression scanner and the moment statistics."""

import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadprimes.scan
from oracles import (isqrt_array, progression_sums_full, theorem2_exact_integral,
                     von_mangoldt, window_count, window_lambda_sum)
from quadprimes.arith import INT63_CAP, SEGMENT_SIZE, primes_up_to
from quadprimes.cli import main
from quadprimes.dispersion import dispersion_profile
from quadprimes.scan import (MomentReport, ScanConfig, _windows, exceptional_set,
                             full_window_moment, progression_sums, sample_points,
                             scan_all_k, theorem2_moment)
from quadprimes.singular import DEFAULT_TRUNCATION, batch_singular_values


def count_brute(k, t, delta):
    n, c = 1, 0
    while n * n + k <= t + delta:
        if n * n + k > t:
            c += 1
        n += 1
    return c


def lambda_brute(k, t, delta):
    n, s = 1, 0.0
    while n * n + k <= t + delta:
        if n * n + k > t:
            s += von_mangoldt(n * n + k)
        n += 1
    return s


# ---------------------------------------------------------------------------
# per-k window primitives
# ---------------------------------------------------------------------------

def test_window_count_examples():
    assert window_count(1, 100, 50) == 3      # n in {10, 11, 12}
    assert window_count(1, 100, 0) == 0
    assert window_count(200, 100, 50) == 0


def test_window_count_random_against_enumeration():
    rng = random.Random(20)
    for _ in range(2000):
        k = rng.randint(1, 300)
        t = rng.randint(0, 10**6)
        delta = rng.randint(0, 2000)
        assert window_count(k, t, delta) == count_brute(k, t, delta), (k, t, delta)


def count_walk(k, t, delta):
    """Brute count over n from a float estimate of the lowest n, for t up to 2^63."""
    n = max(1, int(math.sqrt(max(t - k, 0))) - 2)
    assert n == 1 or (n - 1) ** 2 + k <= t      # no n below the start counts
    c = 0
    while n * n + k <= t + delta:
        c += n * n + k > t
        n += 1
    return c


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**4), st.integers(0, 10**6), st.integers(0, 10**4))
def test_window_count_matches_enumeration_from_one(k, t, delta):
    assert window_count(k, t, delta) == count_brute(k, t, delta)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.integers(0, INT63_CAP - 2 * 10**7),
       st.integers(0, 10**7))
@example(1, INT63_CAP - 10**7 - 1, 10**7)
@example(1, 3037000499**2 - 2, 1)
def test_window_count_matches_enumeration_up_to_cap(k, t, delta):
    assert window_count(k, t, delta) == count_walk(k, t, delta)


def test_window_lambda_sum_examples():
    assert window_lambda_sum(1, 100, 50) == pytest.approx(math.log(101), rel=1e-12)
    assert window_lambda_sum(1, 100, 0) == 0.0
    assert window_lambda_sum(2, 7, 4) == pytest.approx(math.log(11), rel=1e-12)


def test_window_lambda_sum_overflow_guard():
    with pytest.raises(OverflowError):
        window_lambda_sum(10, 2**63 - 5, 10)


# ---------------------------------------------------------------------------
# the scanner
# ---------------------------------------------------------------------------

def test_scan_all_k_small_example():
    scan = scan_all_k(ScanConfig(z=100, K=10))
    assert len(scan.residual) == 10
    assert scan.count[0] == 5
    assert scan.lambda_sum[0] == pytest.approx(math.log(101) + math.log(197), rel=1e-12)
    assert scan.residual[0] == pytest.approx(
        scan.lambda_sum[0] - scan.singular[0] * scan.count[0], rel=1e-12)
    assert np.array_equal(scan.singular, batch_singular_values(10, DEFAULT_TRUNCATION))
    assert scan.stats["segments"] > 0 and scan.stats["cells"] > 0


def test_scan_matches_per_k_evaluation():
    scan = scan_all_k(ScanConfig(z=1000, K=50))
    for k in range(1, 51):
        assert scan.count[k - 1] == window_count(k, 1000, 1000)
        assert scan.lambda_sum[k - 1] == pytest.approx(
            window_lambda_sum(k, 1000, 1000), rel=1e-9, abs=1e-9)


def test_scan_partial_window():
    lam, counts, _ = progression_sums(t=5000, delta=777, K=40)
    for k in range(1, 41):
        assert counts[k - 1] == count_brute(k, 5000, 777)
        assert lam[k - 1] == pytest.approx(lambda_brute(k, 5000, 777),
                                           rel=1e-9, abs=1e-9)


def test_scan_with_tiny_segments_matches_default(monkeypatch):
    lam_a, cnt_a, _ = progression_sums(10**4, 10**4, 200)
    monkeypatch.setattr(quadprimes.scan, "SEGMENT_SIZE", 257)
    lam_b, cnt_b, _ = progression_sums(10**4, 10**4, 200)
    assert np.array_equal(lam_a, lam_b)
    assert np.array_equal(cnt_a, cnt_b)


@pytest.mark.parametrize("t, delta, K, seg_size", [
    (10**4, 10**4, 200, 257),
    (10**4, 10**4, 200, 256),
    (0, 20000, 300, 997),        # crosses 2, 4, ..., 16384
    (1, 5000, 64, 1024),
    (10**6, 63096, 3982, 1 << 22),
    (10**7, 3 * 10**6, 3000, 1 << 22),
    (10**7, 3 * 10**6, 3000, 1 << 20),       # three sieve windows
    (10**7, 3 * 10**6, 3000, SEGMENT_SIZE),  # two, at the production size
    (10**7, 10**6, 2000, 99_999),
    (10**6, 10**5, 50, 257),     # the gaps between n-windows outgrow a window
    (2**27 - 4097, 8192, 6000, 4096),   # 2^27 is a piece's first cell: k = 5503, n = 11585
])
def test_progression_sums_bit_identical_to_full_cell_scan(monkeypatch, t, delta, K,
                                                          seg_size):
    monkeypatch.setattr(quadprimes.scan, "SEGMENT_SIZE", seg_size)
    lam, _, _ = progression_sums(t, delta, K)
    table = primes_up_to(math.isqrt(t + delta) + 1)
    oracle = progression_sums_full(t, delta, K, table)
    assert lam.view(np.int64).tolist() == oracle.view(np.int64).tolist()


@pytest.mark.parametrize("t, delta, K", [(10**6, 10**5, 50), (10**4, 10**4, 200)])
def test_scan_sieves_only_cells_some_n2_plus_k_lands_on(monkeypatch, t, delta, K):
    monkeypatch.setattr(quadprimes.scan, "SEGMENT_SIZE", 1)
    _, _, stats = progression_sums(t, delta, K)
    landed = {n * n + k for n in range(1, math.isqrt(t + delta) + 1)
              for k in range(1, K + 1)}
    assert stats["cells"] == sum(t < m <= t + delta for m in landed)


@pytest.mark.parametrize("t, delta, K, seg_size", [
    (10**6, 10**5, 5000, 4096),     # dense: 2n + 1 < K, one run of pieces
    (10**6, 10**5, 50, 4096),       # sparse: 2n + 1 > K
    (10**6, 0, 50, 4096),           # empty
    (10**6, 10**5, 50, 257),        # each gap is wider than a piece
    (0, 5000, 3, 16),               # from t = 0, where isqrt(lo - 1) = 0 < 1
])
def test_windows_are_disjoint_pieces_covering_every_landing_cell(monkeypatch, t, delta,
                                                                 K, seg_size):
    monkeypatch.setattr(quadprimes.scan, "SEGMENT_SIZE", seg_size)
    pieces = list(_windows(t, delta, K))
    end = t + 1
    for lo, hi in pieces:
        assert end <= lo < hi <= t + delta + 1 and hi - lo <= seg_size
        end = hi
    landed = {n * n + k for n in range(1, math.isqrt(t + delta) + 1)
              for k in range(1, K + 1) if t < n * n + k <= t + delta}
    assert all(any(lo <= m < hi for lo, hi in pieces) for m in landed)
    assert sum(hi - lo for lo, hi in pieces) == progression_sums(t, delta, K)[2]["cells"]


def test_scan_degenerate_windows():
    lam, counts, _ = progression_sums(t=100, delta=0, K=5)
    assert lam.sum() == 0 and counts.sum() == 0
    with pytest.raises(OverflowError):
        progression_sums(t=2**63 - 10, delta=5, K=5)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**12), st.integers(0, 10**5), st.integers(1, 10**5))
@example(0, 0, 1)
@example(0, 10, 50)              # t = 0 and K > t + delta
@example(5, 100, 1000)           # t < K
@example(10**12, 0, 10**5)       # delta = 0
@example(10**6, 10**5, 10**5)
def test_progression_counts_match_the_isqrt_formula(t, delta, K):
    _, counts, _ = progression_sums(t, delta, K)
    ks = np.arange(1, K + 1, dtype=np.int64)
    expect = isqrt_array(np.maximum(t + delta - ks, 0)) - isqrt_array(np.maximum(t - ks, 0))
    assert counts.tolist() == expect.tolist()


def test_progression_sums_peak_memory():
    # a sieve window keeps only its prime-power cells, and c_k takes no
    # K-length square-root temporaries: 6.16 MiB with dense 1M-cell windows
    progression_sums(10**5, 10**5, 100)         # first-call allocations stay out
    tracemalloc.start()
    try:
        progression_sums(10**7, 10**7, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0 * 2**20


def test_scan_config_validation_and_warnings():
    with pytest.raises(ValueError):
        ScanConfig(z=2, K=1)
    with pytest.raises(ValueError):
        ScanConfig(z=100, K=0)
    with pytest.raises(ValueError):
        ScanConfig(z=100, K=1, delta=-1)
    warns = ScanConfig(z=10**6, K=10).range_warnings()
    assert any("K=10" in w for w in warns)
    warns = ScanConfig(z=10**6, K=10**3, delta=10).range_warnings()
    assert any("delta=10" in w for w in warns)
    assert ScanConfig(z=10**6, K=10**3, delta=5 * 10**5).range_warnings() == []


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_theorem1_single_k():
    report = full_window_moment(ScanConfig(z=500, K=1, B=1.0))[1]
    scan = scan_all_k(ScanConfig(z=500, K=1))
    assert report.lhs == pytest.approx(scan.residual[0] ** 2, rel=1e-12)
    assert report.bound == pytest.approx(500 / math.log(500), rel=1e-12)
    assert report.ratio == pytest.approx(report.lhs / report.bound, rel=1e-12)


def test_theorem1_rejects_partial_window():
    with pytest.raises(ValueError):
        full_window_moment(ScanConfig(z=500, K=5, delta=100))


def test_theorem1_truncation_stability():
    z, K = 10**6, 1995
    lhs = {}
    for P in (5 * 10**4, 10**5):
        lhs[P] = full_window_moment(ScanConfig(z=z, K=K, B=1.0), P=P)[1].lhs
    assert abs(lhs[10**5] - lhs[5 * 10**4]) < 0.01 * lhs[10**5]


def test_theorem2_full_window_matches_theorem1():
    m1 = full_window_moment(ScanConfig(z=1000, K=30))[1]
    m2 = theorem2_moment(ScanConfig(z=1000, K=30, delta=1000), t_samples=1)
    assert m2.lhs / 1000 == pytest.approx(m1.lhs, rel=1e-12)


def test_theorem2_requires_delta(tmp_path, capsys):
    """The moment2 command refuses a run without --delta and writes nothing;
    the library runs an unset delta as delta = z (see test_dispersion)."""
    assert main(["moment2", "--z=1000", "--K=30", f"--out={tmp_path}"]) == 1
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err == "error: missing required key: delta\n"


def test_theorem2_refuses_an_empty_window():
    with pytest.raises(ValueError, match="^theorem2_moment requires delta >= 1$"):
        theorem2_moment(ScanConfig(z=1000, K=30, delta=0))


@pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf, -1000.0, -1e-9])
def test_scan_config_refuses_a_non_finite_or_negative_B(B):
    with pytest.raises(ValueError, match="^B must be finite and >= 0"):
        ScanConfig(z=1000, K=30, B=B)


def test_scan_config_refuses_a_B_whose_log_power_overflows():
    with pytest.raises(ValueError, match=r"^B=1000000.0 is too large: \(log z\)\^B"):
        ScanConfig(z=1000, K=40, B=1e6)
    assert ScanConfig(z=1000, K=40, B=2.0).log_power == math.log(1000) ** 2.0


def test_scan_config_accepts_B_zero():
    report = full_window_moment(ScanConfig(z=1000, K=30, B=0.0))[1]
    assert report.bound == 30 * 1000


def test_theorem2_sampling_consistency():
    cfg = ScanConfig(z=2000, K=40, delta=500)
    one = theorem2_moment(cfg, t_samples=1)
    sixteen = theorem2_moment(cfg, t_samples=16)
    assert one.sampling_sd is None      # one sample gives no spread
    assert sixteen.sampling_sd > 0
    assert abs(one.lhs - sixteen.lhs) <= 6 * sixteen.sampling_sd + 0.5 * sixteen.lhs
    assert [t for t, _ in sixteen.samples] == sample_points(2000, 16)
    assert sixteen.exceptional_count is None


def test_theorem2_peak_memory_does_not_grow_with_samples(monkeypatch):
    # one sample's K-length columns are freed before the next window is
    # scanned.  The run's S(k), which every window shares, is computed
    # before tracing starts, so each run holds the same one array.
    cfg = ScanConfig(z=10**6, K=20000, delta=2000)
    singular = batch_singular_values(cfg.K, DEFAULT_TRUNCATION)
    monkeypatch.setattr(quadprimes.scan, "batch_singular_values", lambda K, P: singular)
    theorem2_moment(cfg, t_samples=2)           # first-call allocations stay out
    peaks = {}
    for t_samples in (1, 16):
        tracemalloc.start()
        try:
            theorem2_moment(cfg, t_samples=t_samples)
            peaks[t_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] <= 1.1 * peaks[1]


def test_fork_follows_the_pieces_the_walker_gives(monkeypatch):
    """A sparse first window whose Delta spans two SEGMENT_SIZE pieces but
    whose landing cells fit in one starts no worker; a dense one does."""
    def refused():
        raise AssertionError("forked")

    monkeypatch.setattr(quadprimes.scan, "SEGMENT_SIZE", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", refused)
    assert list(_windows(1020, 17, 1)) == [(1025, 1038)]    # only 32^2 + 1 lands
    assert theorem2_moment(ScanConfig(z=1020, K=1, delta=17), t_samples=1).segments == 1
    assert list(_windows(1020, 17, 100)) == [(1021, 1037), (1037, 1038)]
    with pytest.raises(AssertionError, match="^forked$"):
        theorem2_moment(ScanConfig(z=1020, K=100, delta=17), t_samples=1)


def test_theorem2_exact_integral_matches_dense_sampling():
    cfg = ScanConfig(z=500, K=20, delta=100)
    exact = theorem2_exact_integral(cfg)
    dense = theorem2_moment(cfg, t_samples=500)  # left endpoints cover every j
    assert exact == pytest.approx(dense.lhs, rel=1e-9)
    _, profile = dispersion_profile(cfg, grid_points=500)
    assert exact == pytest.approx(profile["integral_combined"], rel=1e-9)
    with pytest.raises(ValueError):
        theorem2_exact_integral(ScanConfig(z=10**7, K=5, delta=10))


def test_sample_points_conventions():
    pts = sample_points(1000, 4)
    assert pts[0] == 1000 and all(1000 <= t < 2000 for t in pts)
    seeded = sample_points(1000, 8, seed=7)
    assert seeded == sample_points(1000, 8, seed=7)
    assert all(1000 <= t < 2000 for t in seeded)
    for z, seed in ((1000, 7), (10**8, 0), (2**62, 2**70)):  # 32- and 64-bit draws
        assert sample_points(z, 9, seed) == np.random.default_rng(seed).integers(
            z, 2 * z, size=9).tolist()
    with pytest.raises(ValueError):
        sample_points(2**62 + 1, 4, seed=0)                 # 2z - 1 past int64


def test_exceptional_set():
    residual = np.array([0.0, 5.0, -50.0, 500.0])
    assert exceptional_set(residual, ScanConfig(z=10**6, K=4, B=0.0)) == 0  # threshold 1000
    assert exceptional_set(residual, ScanConfig(z=10**6, K=4, B=1.0)) == 1  # threshold ~72.4
    assert exceptional_set(residual, ScanConfig(z=10**6, K=4, B=2.0)) == 2  # threshold ~5.24
    assert exceptional_set(np.zeros(1), ScanConfig(z=100, K=1, B=0.0)) == 0


def test_exceptional_fraction_small_at_desk_scale():
    config = ScanConfig(z=10**6, K=10**3, B=0.0)
    scan = scan_all_k(config)
    frac = exceptional_set(scan.residual, config) / 10**3
    assert frac < 0.20


def test_parity_structure_for_even_shifts():
    # k even, n even: n^2 + k is even and > 2, so Lambda vanishes except at
    # powers of two; the even-n contribution must be exactly those log-2 terms
    t, delta = 1000, 1000
    lam, _, _ = progression_sums(t, delta, 20)
    for k in (2, 4, 8, 12, 16, 20):
        odd_part = sum(von_mangoldt(n * n + k)
                       for n in range(1, 50) if n % 2 == 1
                       and t < n * n + k <= t + delta)
        even_part = sum(von_mangoldt(n * n + k)
                        for n in range(2, 50, 2) if t < n * n + k <= t + delta)
        for n in range(2, 50, 2):
            m = n * n + k
            if t < m <= t + delta and von_mangoldt(m) > 0:
                assert m == 2 ** round(math.log2(m))  # only powers of 2 survive
        assert lam[k - 1] == pytest.approx(odd_part + even_part, rel=1e-12, abs=1e-12)
