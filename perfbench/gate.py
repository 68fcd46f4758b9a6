"""Correctness gate for the benchmark's CLI invocations.

Each check reads the files one invocation wrote (results.csv, summary.json)
and returns a list of problems; an empty list means the output is correct.
The checks test properties that hold for any correct implementation, not
byte hashes, so an intended change of S(k) values does not trip them.
Tolerance tests read `not err <= tol`, so that a NaN fails them.

The Lambda-sum oracle below is independent of the package: it tests each
n^2 + k with Miller-Rabin and looks proper prime powers up in a table,
instead of sieving.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

# Known value of the singular series at k = 1 (Shanks 1960), to 10 digits.
S1_REFERENCE = 1.3728134628
S1_TOLERANCE = 1e-3
LEMMA_IDS = ("LS_AVG", "LS_SINGLE", "POLYA_VINOGRADOV", "MEAN_SQ",
             "MEAN_SQ_TWISTED", "SHORT_AP", "PHI_AVG", "LEGENDRE_SUM")
LEGENDRE_SUM_EXPECTED = -48  # mu(105) * phi(105) for the default grid's l = 105
ORACLE_KS = 3                # k values per run checked against the oracle

# Deterministic Miller-Rabin witnesses for every n < 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _read_rows(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_power_logs(lo: int, hi: int) -> dict[int, float]:
    """{p^e: log p} for the proper prime powers (e >= 2) in [lo, hi]."""
    root = math.isqrt(hi)
    flags = bytearray([1]) * (root + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(root) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, root + 1, p)))
    out = {}
    for p in range(2, root + 1):
        if flags[p]:
            pe = p * p
            while pe <= hi:
                if pe >= lo:
                    out[pe] = math.log(p)
                pe *= p
    return out


def lambda_sum_oracle(ks: list[int], t: int, delta: int) -> dict[int, float]:
    """sum of Lambda(n^2 + k) over t < n^2 + k <= t + delta, for each k."""
    powers = _prime_power_logs(t + 1, t + delta)
    out = {}
    for k in ks:
        terms = []
        n_lo = math.isqrt(max(t - k, 0)) + 1
        n_hi = math.isqrt(t + delta - k) if t + delta >= k else 0
        for n in range(n_lo, n_hi + 1):
            m = n * n + k
            if is_prime(m):
                terms.append(math.log(m))
            elif m in powers:
                terms.append(powers[m])
        out[k] = math.fsum(terms)
    return out


def oracle_ks(seed: int, K: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(1, K + 1), min(ORACLE_KS, K)))


def check_full_window(out_dir: Path, z: int, K: int,
                      oracle: dict[int, float]) -> tuple[list[str], float | None]:
    """Checks for `moment1` over (z, 2z]; returns (problems, |S(1) - ref|)."""
    t, delta = z, z
    rows = _read_rows(out_dir)
    problems = []
    if [r["k"] for r in rows] != [str(k) for k in range(1, K + 1)]:
        return [f"expected rows k = 1..{K}, got {len(rows)} rows"], None
    squares = []
    for r in rows:
        k, count = int(r["k"]), int(r["count"])
        lam, sing, resid = (float(r[c]) for c in ("lambda_sum", "singular", "residual"))
        expected = math.isqrt(t + delta - k) - math.isqrt(max(t - k, 0))
        if count != expected:
            problems.append(f"k={k}: count {count} != {expected}")
        if not abs(resid - (lam - sing * count)) <= 1e-9 * max(1.0, abs(lam)):
            problems.append(f"k={k}: residual {resid!r} != lambda_sum - singular*count")
        if k in oracle and not abs(lam - oracle[k]) <= 1e-9 * max(1.0, oracle[k]):
            problems.append(f"k={k}: lambda_sum {lam!r} != oracle {oracle[k]!r}")
        squares.append(resid * resid)
    lhs = json.loads((out_dir / "summary.json").read_text())["moment"]["lhs"]
    if not abs(lhs - math.fsum(squares)) <= 1e-9 * max(1.0, lhs):
        problems.append(f"moment.lhs {lhs!r} != sum of squared residuals")
    s1_err = abs(float(rows[0]["singular"]) - S1_REFERENCE)
    if not s1_err < S1_TOLERANCE:
        problems.append(f"|S(1) - {S1_REFERENCE}| = {s1_err!r} >= {S1_TOLERANCE}")
    return problems[:20], s1_err


def check_dispersion_profile(out_dir: Path, grid: int) -> list[str]:
    rows = _read_rows(out_dir)
    if len(rows) != grid:
        return [f"expected {grid} rows, got {len(rows)}"]
    problems = []
    for r in rows:
        combined, direct = float(r["combined"]), float(r["direct_square"])
        if not abs(combined - direct) <= 1e-9 * max(1.0, direct):
            problems.append(f"t={r['t']}: combined {combined!r} != "
                            f"direct_square {direct!r}")
    return problems


def check_lemma_grid(out_dir: Path) -> list[str]:
    rows = _read_rows(out_dir)
    ids = [r["lemma_id"] for r in rows]
    if sorted(ids) != sorted(LEMMA_IDS):
        return [f"expected lemma rows {LEMMA_IDS}, got {ids}"]
    problems = [f"{r['lemma_id']}: pass={r['pass']}" for r in rows
                if r["pass"] != "true"]
    legendre = next(r for r in rows if r["lemma_id"] == "LEGENDRE_SUM")
    if float(legendre["observed"]) != LEGENDRE_SUM_EXPECTED:
        problems.append(f"LEGENDRE_SUM observed {legendre['observed']} "
                        f"!= {LEGENDRE_SUM_EXPECTED}")
    return problems
