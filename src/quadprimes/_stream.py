"""numpy's default_rng(seed) stream, bit for bit, without importing numpy's random
module, which maps OpenSSL (secrets -> hmac -> _hashlib): PCG64 seeded by
SeedSequence, with integers bounded by Lemire's multiply-shift rejection."""

import itertools
import operator

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix, its hash constant running from const by mult."""
    def hashmix(value: int) -> int:
        nonlocal const
        const, value = const * mult & _M32, value ^ const
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) as Python ints."""
    if (seed := operator.index(seed)) < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    out = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool + pool))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The draws of default_rng(seed); a negative seed raises ValueError."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = (i0 << 65 | i1 << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128
        self._spare = []        # the unused half of a word split for 32-bit draws

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (self._state >> 64 ^ self._state) & _M64, self._state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if not self._spare:
            word = self._next64()
            self._spare += [word >> 32, word & _M32]        # low half first
        return self._spare.pop()

    def integers(self, lo: int, hi: int, n: int) -> list[int]:
        """Generator.integers(lo, hi, n) with dtype int64, endpoint=False."""
        if not -1 << 63 <= lo < hi <= 1 << 63:
            raise ValueError(f"need -2^63 <= low < high <= 2^63, got {lo}, {hi}")
        span = hi - lo          # Lemire's rng + 1; a span of 1 draws no word
        if span == 1:
            return [lo] * n
        bits, draw = (32, self._next32) if span <= 1 << 32 else (64, self._next64)
        mask, threshold = (1 << bits) - 1, (1 << bits) % span  # 0: words pass whole
        out = []
        for _ in range(n):
            m = draw() * span
            while m & mask < threshold:
                m = draw() * span
            out.append(lo + (m >> bits))
        return out

    def random(self, n: int) -> list[float]:
        """Generator.random(n): each double is (64-bit word >> 11) * 2^-53."""
        return [(self._next64() >> 11) * 2.0**-53 for _ in range(n)]
