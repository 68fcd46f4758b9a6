"""High-throughput scans of quadratic progressions.

For a window (t, t+delta] and every shift k <= K this computes

    A_k = sum of Lambda(n^2 + k) over n >= 1 with t < n^2 + k <= t + delta
    c_k = count of such n (exact, from the k-interval of each n)

The admissible m = n^2 + k of each n form an integer interval of length
<= K.  _pieces, the one sieve walker (the lemma checks' window sums use it
too), sieves the window in ascending pieces of at most SEGMENT_SIZE cells,
skipping the gaps no n^2 + k lands on; _rows cuts each piece into one row
per n, scatter-added into per-k accumulators: O(cells * log log) sieve work
instead of one primality test per candidate (the tests' cross-check oracle).
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from ._stream import Stream
from .arith import INT63_CAP, SEGMENT_SIZE, SieveWindow, primes_up_to, sieve_window
from .singular import DEFAULT_TRUNCATION, _check_batch, batch_singular_values


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of one scan: window (z, z+delta]; an unset delta is stored as z."""
    z: int
    K: int
    delta: int | None = None
    B: float = 1.0
    log_power: float = field(init=False, repr=False, compare=False)   # (log z)^B

    def __post_init__(self):
        if self.z < 3:
            raise ValueError("z must be >= 3")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.delta is None:
            object.__setattr__(self, "delta", self.z)
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.z + self.delta + self.K >= INT63_CAP:   # before any float of z
            raise OverflowError("window top exceeds the 2^63-1 cap")
        if not 0 <= self.B < math.inf:
            raise ValueError(f"B must be finite and >= 0, got {self.B}")
        try:
            object.__setattr__(self, "log_power", math.log(self.z) ** self.B)
        except OverflowError:
            raise ValueError(f"B={self.B} is too large: (log z)^B overflows") from None

    @property
    def theorem2_bound(self) -> float:
        """Theorem 2's bound Delta^2 K / (log z)^B on the t-integral."""
        return self.delta**2 * self.K / self.log_power

    def range_warnings(self) -> list[str]:
        """Advisory range checks; desk-scale runs may sit outside on purpose."""
        out = []
        if not math.sqrt(self.z) <= self.K <= self.z / 2:
            out.append(f"K={self.K} outside the intended range "
                       f"[z^(1/2), z/2] = [{math.sqrt(self.z):.0f}, {self.z / 2:.0f}]")
        if not self.z ** (2 / 3) <= self.delta <= self.z:
            out.append(f"delta={self.delta} outside the intended range "
                       f"[z^(2/3), z] = [{self.z ** (2 / 3):.0f}, {self.z}]")
        return out


@dataclass(frozen=True)
class ScanColumns:
    """Per-k columns of one scan; entry i belongs to k = i + 1."""
    lambda_sum: np.ndarray
    count: np.ndarray
    singular: np.ndarray
    residual: np.ndarray
    stats: dict

    @property
    def residual_square_sum(self) -> float:
        """sum_k (A_k - S(k) c_k)^2, the inner sum of both moments."""
        return float((self.residual * self.residual).sum())


@dataclass(frozen=True)
class MomentReport:
    lhs: float
    bound: float
    ratio: float
    exceptional_count: int | None   # None for the sampled moment
    segments: int                   # sieve windows, summed over the scans
    cells: int                      # cells sieved, summed over the scans
    samples: list[tuple[int, float]]    # (t, inner sum) per sample point
    sampling_sd: float | None       # standard error of the sampled lhs; None for 1 sample


def _windows(t: int, delta: int, K: int) -> Iterator[tuple[int, int]]:
    """The pieces [lo, hi) of (t, t+delta] to sieve, ascending, of at most
    SEGMENT_SIZE cells, skipping the gaps no n^2 + k (n >= 1, k <= K) lands on."""
    lo, top = t + 1, t + delta
    while lo <= top:
        s = math.isqrt(lo - 1)
        if s < 1 or lo - s * s > K:     # lo lies in a gap: go to (s+1)^2 + 1
            lo = (s + 1) ** 2 + 1
            continue
        yield lo, min(lo + SEGMENT_SIZE, top + 1)
        lo += SEGMENT_SIZE


def _pieces(t: int, delta: int, K: int, table) -> Iterator[SieveWindow]:
    """The SieveWindow of each piece of _windows(t, delta, K), ascending.  A
    consumer drops each piece before asking for the next (a for target keeps it)."""
    for lo, hi in _windows(t, delta, K):
        yield sieve_window(lo, hi, table)


def _rows(t: int, delta: int, K: int, table) -> Iterator[tuple]:
    """(n^2 + 1, m, val) for each n and piece of _pieces(t, delta, K): the prime
    powers m = n^2 + k (k <= K) of the piece, a view of its m cut by np.searchsorted,
    and their Lambda.  A row may arrive in parts, in ascending k."""
    for win in _pieces(t, delta, K, table):
        m, val = win.m, win.val
        firsts = [n * n + 1 for n in range(math.isqrt(max(win.lo - K, 1)),
                                           math.isqrt(win.hi - 2) + 1)]
        cuts = np.searchsorted(m, [(first, first + K) for first in firsts]).tolist()
        for first, (s0, s1) in zip(firsts, cuts):
            yield first, m[s0:s1], val[s0:s1]
        del win, m, val                 # free this piece before sieving the next


def progression_sums(t: int, delta: int, K: int):
    """(A_k array, c_k array, stats) for the window (t, t+delta], k = 1..K.

    Each row of _rows adds its Lambda at m - (n^2 + 1) = k - 1 of A in one
    unbuffered np.add.at, which meets each k once.  For fixed k, m grows with n,
    so every A_k is the plain sum of its terms in ascending n.  n counts in c_k
    for k in (t - n^2, t + delta - n^2], so c_k is the running sum of the
    starts and ends of those intervals, clipped to [1, K]."""
    if t < 0 or delta < 0 or K < 1:
        raise ValueError("require t >= 0, delta >= 0, K >= 1")
    if t + delta + K >= INT63_CAP:
        raise OverflowError("window top exceeds the 2^63-1 cap")
    table = primes_up_to(math.isqrt(t + delta) + 1) if delta else None
    lambda_sums = np.zeros(K)
    for first, m, val in _rows(t, delta, K, table):
        np.add.at(lambda_sums, m - first, val)
        del m, val                      # hold no piece while the next is sieved
    sizes = [hi - lo for lo, hi in _windows(t, delta, K)]
    ns = np.arange(max(math.isqrt(max(t - K, 0)), 1), math.isqrt(t + delta) + 1,
                   dtype=np.int64)
    squares = ns * ns
    counts = np.bincount(np.clip(t + 1 - squares, 1, K + 1), minlength=K + 2)
    counts -= np.bincount(np.clip(t + delta + 1 - squares, 1, K + 1), minlength=K + 2)
    np.cumsum(counts, out=counts)
    return lambda_sums, counts[1:K + 1], {"segments": len(sizes), "cells": sum(sizes)}


# ru_maxrss (KiB) of the workers joined during a cli.run, which sets the list.
worker_peaks: ContextVar[list[int] | None] = ContextVar("worker_peaks", default=None)


@contextmanager
def _worker(work: Callable[[], object], wanted: bool):
    """Run work() in a forked child, if wanted and the CPU affinity set has a
    second CPU.  Yields join(), which returns once work() has run exactly once:
    in the child, or here if none started or it failed, so that a library error
    reaches the caller from here.  The child ends by os._exit, skipping the
    parent's exit hooks; one not joined when the block exits is killed and reaped."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    pid = os.fork() if wanted and cpus > 1 and hasattr(os, "fork") else None
    if pid == 0:
        try:
            work()
            os._exit(0)
        finally:            # reached only if work() raised
            os._exit(1)

    def join() -> None:
        nonlocal pid
        _, status, usage = os.wait4(pid, 0) if pid is not None else (0, 1, None)
        pid = None
        if status:
            work()
        elif (peaks := worker_peaks.get()) is not None:
            peaks.append(usage.ru_maxrss)

    try:
        yield join
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# os.fork plus os.wait4 take 2.7 ms (median of 30) after full_window_moment at z = 1e7,
# K = 1e4 (32 MB peak RSS) on a 2-core box; one full SEGMENT_SIZE piece at z = 1e8 sieves
# in 5.3-7.3 ms.  S(k) moves to a worker only where the sieve outlasts the fork.
_FORK_MIN_PIECES = 2


def _window_scans(config: ScanConfig, ts: list[int],
                  P: int) -> Iterator[tuple[int, ScanColumns]]:
    """(t, columns of the window (t, t + delta]) for each t in ts, in order.

    The run's S(k) is computed once, into shared memory, and shared by every
    window's columns: by a worker while a first window of _FORK_MIN_PIECES
    pieces or more is sieved, else (or if the worker fails) after that window."""
    K, delta = config.K, config.delta
    _check_batch(K, P)          # refuse an over-cap S(k) before any window is sieved
    singular = np.frombuffer(mmap.mmap(-1, 8 * K))
    first_pieces = itertools.islice(_windows(ts[0], delta, K), _FORK_MIN_PIECES)
    with _worker(lambda: np.copyto(singular, batch_singular_values(K, P)),
                 len(list(first_pieces)) >= _FORK_MIN_PIECES) as join:
        for i, t in enumerate(ts):
            lam, counts, stats = progression_sums(t, delta, K)
            if i == 0:
                join()
            yield t, ScanColumns(lambda_sum=lam, count=counts, singular=singular,
                                 residual=lam - singular * counts, stats=stats)
            del lam, counts         # free this window's columns before the next scan


def scan_all_k(config: ScanConfig, P: int = DEFAULT_TRUNCATION) -> ScanColumns:
    """A_k, c_k, S(k) and A_k - S(k) c_k for every k <= K over the window."""
    [(_, scan)] = _window_scans(config, [config.z], P)
    return scan


def full_window_moment(config: ScanConfig,
                       P: int = DEFAULT_TRUNCATION) -> tuple[ScanColumns, MomentReport]:
    """Scan (z, 2z] and reduce it: lhs = sum_k (A_k - S(k) c_k)^2.

    Compared against the bound K z / (log z)^B; the report also counts the
    exceptional k (see exceptional_set).
    """
    if config.delta != config.z:
        raise ValueError("the full-window moment uses (z, 2z]; leave delta unset")
    scan = scan_all_k(config, P)
    lhs = scan.residual_square_sum
    bound = config.K * config.z / config.log_power
    report = MomentReport(lhs=lhs, bound=bound, ratio=lhs / bound,
                          exceptional_count=exceptional_set(scan.residual, config),
                          samples=[], sampling_sd=None, **scan.stats)
    return scan, report


def sample_points(z: int, t_samples: int, seed: int | None = None) -> list[int]:
    """t-sample grid in [z, 2z): evenly spaced, or given a seed numpy's
    default_rng(seed).integers(z, 2z, t_samples), drawn by _stream.Stream."""
    if t_samples < 1:
        raise ValueError("need at least one sample point")
    if seed is None:
        return [z + (j * z) // t_samples for j in range(t_samples)]
    return Stream(seed).integers(z, 2 * z, t_samples)


def _t_integral(z: int, values: list[float]) -> tuple[float, float | None]:
    """int_z^{2z} of a function sampled at len(values) points of [z, 2z):
    z times their mean, and its standard error (None for one point)."""
    inner = np.array(values)
    sd = float(inner.std(ddof=1)) * z / math.sqrt(inner.size) if inner.size > 1 else None
    return z * float(inner.mean()), sd


def theorem2_moment(config: ScanConfig, P: int = DEFAULT_TRUNCATION,
                    t_samples: int = 16, seed: int | None = None) -> MomentReport:
    """Short-segment moment: estimates int_z^{2z} sum_k |...|^2 dt by sampling.

    The t-integral is approximated by z times the mean of the inner sum at
    t_samples points; the bound is Delta^2 K / (log z)^B.
    """
    if config.delta < 1:
        raise ValueError("theorem2_moment requires delta >= 1")
    samples = []
    segments = cells = 0
    for t, scan in _window_scans(config, sample_points(config.z, t_samples, seed), P):
        samples.append((t, scan.residual_square_sum))
        segments += scan.stats["segments"]
        cells += scan.stats["cells"]
        del scan                # free this sample's columns before the next scan
    lhs, sd = _t_integral(config.z, [value for _, value in samples])
    bound = config.theorem2_bound
    # exceptional counts are a full-window notion; see full_window_moment
    return MomentReport(lhs=lhs, bound=bound, ratio=lhs / bound,
                        exceptional_count=None, segments=segments, cells=cells,
                        samples=samples, sampling_sd=sd)


def exceptional_set(residual: np.ndarray, config: ScanConfig) -> int:
    """Count of k whose residual exceeds sqrt(z) / (log z)^B in magnitude."""
    threshold = math.sqrt(config.z) / config.log_power
    return int((np.abs(residual) > threshold).sum())
