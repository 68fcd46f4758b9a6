"""Exact integer arithmetic kernel.

Provides:
- trial-division factorization, Mobius function, Euler totient
- prime tables and segmented sieve windows carrying Lambda on the odd
  prime powers

Everything downstream (singular series, progression scans, dispersion terms,
lemma checks) is built on these primitives; Lambda is only ever evaluated
through sieve windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# All scanned quantities (n^2 + k, window tops) must stay below 2^63 so that
# int64 array arithmetic is exact.
INT63_CAP = 2**63 - 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of n >= 1 into (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    step = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += step
        step = 6 - step  # alternate 5,7,11,13,... (6k +- 1)
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    phi = n
    for p, _ in factorize(n):
        phi -= phi // p
    return phi


# ---------------------------------------------------------------------------
# Prime tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, as an int64 array, and the odd prime
    powers p^e (e >= 3) up to (limit + 1)^2 - 1 or 2^63 - 1, the top of any
    window the table can sieve: `powers` ascending, `bases` their primes."""
    limit: int
    primes: np.ndarray
    powers: np.ndarray
    bases: np.ndarray


# primes_array refuses a limit above this: primes_array(3e7) peaked 2.0 bytes of
# RSS per unit of limit (0.45 s, 2-core x86 box), so a table stays near 200 MB.
MAX_PRIME_LIMIT = 10**8


def primes_array(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array, via a flag sieve."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > MAX_PRIME_LIMIT:
        raise ValueError(f"prime-table limit {limit} exceeds the cap {MAX_PRIME_LIMIT:.0e}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags)


def primes_up_to(limit: int) -> PrimeTable:
    """The PrimeTable of primes_array(limit), for sieving windows."""
    primes = primes_array(limit)
    top = min((limit + 1) ** 2 - 1, INT63_CAP)
    pairs = []
    for p in primes[1: int(np.searchsorted(primes, top ** (1 / 3) + 1))].tolist():
        m = p ** 3
        while m <= top:
            pairs.append((m, p))
            m *= p
    powers, bases = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    return PrimeTable(limit=limit, primes=primes, powers=powers, bases=bases)


# ---------------------------------------------------------------------------
# Sieve windows
# ---------------------------------------------------------------------------

# Cells per sieve window of a long scan.  A window keeps one flag byte per odd
# cell while it sieves (1 MB, inside a 2 MB per-core L2) and 16 bytes per odd
# prime power after; 4M-cell windows were no faster at z = 1e8.
SEGMENT_SIZE = 1 << 21
LOG2 = math.log(2)


@dataclass(frozen=True)
class SieveWindow:
    """Von Mangoldt data for [lo, hi), stored for the odd prime powers only.

    pos holds (m - 1)/2 for each odd prime power m in [lo, hi), ascending, and
    val[i] = Lambda(2 pos[i] + 1) (natural log); every other odd m has
    Lambda(m) = 0.  pos does not depend on lo, so the pieces of adjacent
    windows concatenate into those of their union.  An even m has Lambda(m) =
    log 2 if it is a power of 2 (listed by `powers_of_two`) and 0 otherwise.
    """
    lo: int
    hi: int
    pos: np.ndarray
    val: np.ndarray

    @property
    def powers_of_two(self) -> list[int]:
        """The powers of 2 in [lo, hi), ascending."""
        return [1 << e for e in range((self.lo - 1).bit_length(),
                                      (self.hi - 1).bit_length())]

    @property
    def lam(self) -> np.ndarray:
        """lam[i] = Lambda(lo + i) for every cell, expanded afresh on each read."""
        out = np.zeros(self.hi - self.lo, dtype=np.float64)
        out[2 * self.pos + 1 - self.lo] = self.val
        for m in self.powers_of_two:
            out[m - self.lo] = LOG2
        return out


def sieve_window(lo: int, hi: int, table: PrimeTable) -> SieveWindow:
    """Sieve Lambda over the odd cells of [lo, hi).

    Requires 2 <= lo < hi and table.limit >= isqrt(hi): smaller tables would
    miss composite witnesses and mislabel composites as prime.  An odd prime
    p at least as large as the odd-cell count strikes at most one cell, so
    all such p strike in one indexed write; only smaller p loop.  Prime
    powers come from two binary searches, in ps and in the table's powers:
    their cells are flagged with the primes, then take log p for log m.
    val is built in place from the cells j of m = o + 2j, o = lo | 1, rounding
    each m to a float once as int64 m.astype(float) does, also above 2^53."""
    if not 2 <= lo < hi:
        raise ValueError("require 2 <= lo < hi")
    if hi - 1 > INT63_CAP:
        raise OverflowError("window exceeds the 2^63-1 cap")
    if table.limit < math.isqrt(hi):
        raise ValueError(f"prime table limit {table.limit} < isqrt({hi}); "
                         "composite witnesses would be missed")
    o = lo | 1
    size = max(0, (hi - o + 1) // 2)
    primes = table.primes
    ps = primes[1: int(np.searchsorted(primes, math.isqrt(hi - 1), side="right"))]
    pe = ps * ps
    # first struck cell: p^2, or the j with o + 2j = 0 (mod p) if p^2 < o
    starts = np.where(pe >= o, (pe - o) // 2, (-(o % ps) * ((ps + 1) // 2)) % ps)
    flags = np.ones(size, dtype=bool)
    small = int(np.searchsorted(ps, size))
    for p, j in zip(ps[:small].tolist(), starts[:small].tolist()):
        flags[j:: p] = False
    once = starts[small:]
    flags[once[once < size]] = False
    # odd prime powers: squares from the tail of ps, p^e (e >= 3) from the table
    sq = int(np.searchsorted(ps, math.isqrt(o - 1), side="right"))
    i, j = np.searchsorted(table.powers, (o - 1, hi - 1), side="right").tolist()
    power_cells = (np.concatenate((pe[sq:], table.powers[i:j])) - o) // 2
    flags[power_cells] = True
    pos = np.flatnonzero(flags)
    del flags
    val = pos.astype(np.float64)
    val *= 2
    val += o & 4095         # exact, then o's high bits (exact as a float): m rounds once
    val += o - (o & 4095)
    np.log(val, out=val)
    val[np.searchsorted(pos, power_cells)] = [
        math.log(p) for p in ps[sq:].tolist() + table.bases[i:j].tolist()]
    pos += o >> 1           # (m - 1)/2 = j + o // 2
    return SieveWindow(lo=lo, hi=hi, pos=pos, val=val)
