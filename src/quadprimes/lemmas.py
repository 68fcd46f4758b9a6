"""One verification operation per supporting lemma.

Exact identities are checked exactly (integer arithmetic); inequalities are
checked exhaustively where periodicity allows it and statistically (seeded
Monte Carlo) where the statement is an integral.  Each check returns a
LemmaReport carrying observed value, reference bound, their ratio and the
pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._stream import Stream
from .arith import (LOG2, euler_phi, factorize, mobius, primes_array, primes_up_to,
                    sieve_window)
from .characters import MAX_MODULUS, build_character_group, primitive_characters
from .scan import _windows
from .singular import CONSTANT_TRUNCATION, main_term_constant

LS_AVG_C0 = 4.0      # worst dyadic-average large-sieve ratio (params "c0")
MEAN_SQ_C0 = 2.0     # C0, the log power of both mean-square bounds
SHORT_AP_TOL = 0.05  # relative deviation from delta/phi(l)
PHI_AVG_C = 5.0      # deviation from (x/2) * constant, in units of log x
_BLOCK_CELLS = 1 << 20      # cells per block of a units x l or q x q sweep


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    params: dict = field(default_factory=dict)
    observed: float = 0.0
    reference: float = 0.0
    ratio: float = 0.0
    passed: bool = False
    seed: int | None = None


def _report(lemma_id, params, observed, reference, passed, seed=None):
    ratio = observed / reference if reference else math.inf if observed else 0.0
    return LemmaReport(lemma_id=lemma_id, params=params, observed=float(observed),
                       reference=float(reference), ratio=float(ratio),
                       passed=bool(passed), seed=seed)


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------

def _jacobi_table(l: int) -> np.ndarray:
    """(r/l) for r = 0..l-1 and odd square-free l: the product over p | l of
    the Legendre table of p, read off the squares mod p."""
    table = np.ones(l, dtype=np.int64)
    for p, _ in factorize(l):
        legendre = np.full(p, -1, dtype=np.int64)
        legendre[np.arange(1, (p + 1) // 2) ** 2 % p] = 1
        legendre[0] = 0
        table *= np.tile(legendre, l // p)
    return table


def legendre_sum_check(l: int) -> LemmaReport:
    """sum_{(a,l)=1} sum_{m mod l} ((m^2 - a)/l) against mu(l) phi(l), exactly.

    Defined for odd square-free l: the quadratic symbol with even modulus is
    not periodic mod l, so the double sum would be ill-posed there.  The work
    is phi(l) l, so l is capped at characters.MAX_MODULUS.
    """
    if not 1 <= l <= MAX_MODULUS:
        raise ValueError(f"l must be in 1..{MAX_MODULUS}, got {l}")
    if l % 2 == 0:
        raise ValueError("l must be odd (the symbol sum is ill-posed for even moduli)")
    if mobius(l) == 0:
        raise ValueError("l must be square-free")
    symbols = _jacobi_table(l)
    sq = (np.arange(l, dtype=np.int64) ** 2) % l
    units = np.flatnonzero(symbols)         # l is square-free: (a/l) != 0 iff (a, l) = 1
    rows = max(1, _BLOCK_CELLS // l)        # units per block; every l <= 1000 takes one
    observed = sum(int(symbols[(sq[None, :] - units[i:i + rows, None]) % l].sum())
                   for i in range(0, len(units), rows))
    reference = mobius(l) * euler_phi(l)
    return _report("LEGENDRE_SUM", {"l": l}, observed, reference,
                   observed == reference)


def phi_average_check(x: int) -> LemmaReport:
    """sum_{q<=x} q/phi(4q) against (x/2) * constant, within PHI_AVG_C log x."""
    if x < 1:
        raise ValueError("x must be positive")
    observed = phi_average_sum(x)
    reference = 0.5 * x * main_term_constant(CONSTANT_TRUNCATION)
    deviation = abs(observed - reference)
    return _report("PHI_AVG", {"x": x, "c": PHI_AVG_C}, observed, reference,
                   deviation <= PHI_AVG_C * math.log(x))


def phi_average_sum(x: int) -> float:
    """Exact sum_{q<=x} q/phi(4q) via a totient sieve (phi(4q) = 2 phi(q) for
    odd q, 4 phi(q) for even q)."""
    phi = np.arange(x + 1, dtype=np.int64)
    for p in primes_array(max(2, x)).tolist():
        phi[p::p] -= phi[p::p] // p
    q = np.arange(1, x + 1, dtype=np.float64)
    phi4 = np.where(np.arange(1, x + 1) % 2 == 0, 4 * phi[1:], 2 * phi[1:])
    return float((q / phi4).sum())


# ---------------------------------------------------------------------------
# Large sieve and character-sum inequalities
# ---------------------------------------------------------------------------

def _char_matrix(q: int, M: int, N: int) -> np.ndarray:
    """Rows chi(M+1), ..., chi(M+N), one per primitive chi mod q; (0, N) if none."""
    prim = primitive_characters(build_character_group(q))
    if not prim:
        return np.zeros((0, N), dtype=np.complex128)
    cols = np.arange(M + 1, M + N + 1, dtype=np.int64) % q
    return np.stack([chi.values()[cols] for chi in prim])


def large_sieve_avg_check(Q: int, M: int, N: int, trials: int = 100,
                          seed: int = 0) -> LemmaReport:
    """Dyadic-average large sieve: LHS over q in [Q, 2Q] weighted 1/phi(q)
    against (Q + N/Q) sum |a_n|^2; the worst ratio over the coefficient
    draws must stay below LS_AVG_C0 (the bound's constant is unspecified).
    """
    if Q < 1 or N < 1 or trials < 1:
        raise ValueError("require Q >= 1, N >= 1 and trials >= 1")
    mats = [(_char_matrix(q, M, N), euler_phi(q)) for q in range(Q, 2 * Q + 1)]

    def lhs(a):
        total = 0.0
        for mat, phi in mats:       # a q with no primitive chi adds 0.0
            total += float((np.abs(mat @ a) ** 2).sum()) / phi
        return total

    rng = Stream(seed)
    draws = [np.ones(N, dtype=np.complex128)]
    draws += [np.exp(2j * np.pi * np.array(rng.random(N))) for _ in range(trials - 1)]
    worst = (0.0, 0.0, 0.0)  # (ratio, observed, reference)
    for a in draws:
        obs = lhs(a)
        ref = (Q + N / Q) * float((np.abs(a) ** 2).sum())
        ratio = obs / ref if ref else 0.0
        if ratio >= worst[0]:
            worst = (ratio, obs, ref)
    params = {"Q": Q, "M": M, "N": N, "trials": trials, "c0": LS_AVG_C0}
    return _report("LS_AVG", params, worst[1], worst[2], worst[0] <= LS_AVG_C0, seed)


def large_sieve_single_check(q: int, M: int, N: int,
                             coeffs: np.ndarray) -> LemmaReport:
    """Single-modulus large sieve with constant 1: a hard inequality."""
    if q < 2:
        raise ValueError("q must be >= 2")
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.shape != (N,):
        raise ValueError("coeffs must have length N")
    observed = float((np.abs(_char_matrix(q, M, N) @ a) ** 2).sum())
    reference = (q + N) * float((np.abs(a) ** 2).sum())
    passed = observed <= reference * (1 + 1e-9)
    return _report("LS_SINGLE", {"q": q, "M": M, "N": N}, observed, reference, passed)


def polya_vinogradov_check(q: int) -> LemmaReport:
    """Exhaustive character-sum maximum against 6 sqrt(q) log q.

    Periodicity mod q makes the windows 0 <= M < q, 1 <= N <= q exhaustive
    over all (M, N).  A window sum P[M+N] - P[M] of chi's partial sums P has
    modulus at most the diagonal hypot(ptp(P.real), ptp(P.imag)) of their
    bounding box, so the characters are searched in descending order of that
    bound until it falls below the running maximum.  The skip is exact: both
    come from the same float P, and rounding a difference and its modulus
    costs a few ulp, well inside the bound's 1e-12 relative slack.
    """
    if q < 3:
        raise ValueError("q must be >= 3")
    chars = [chi for chi in build_character_group(q).characters if not chi.is_principal]

    def partial_sums(chi):
        vals = np.tile(chi.values(), 2)
        return np.concatenate(([0.0], np.cumsum(vals[1: 2 * q + 1])))

    bounds = [math.hypot(np.ptp(P.real), np.ptp(P.imag)) * (1 + 1e-12)
              for P in map(partial_sums, chars)]
    rows = max(1, _BLOCK_CELLS // q)            # window starts M per block
    observed = 0.0
    for i in sorted(range(len(chars)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < observed:
            break
        P = partial_sums(chars[i])
        windows = np.lib.stride_tricks.sliding_window_view(P, q)[1: q + 1]
        for m in range(0, q, rows):
            observed = max(observed, float(np.abs(windows[m:m + rows]
                                                  - P[:q][m:m + rows, None]).max()))
    reference = 6.0 * math.sqrt(q) * math.log(q)
    return _report("POLYA_VINOGRADOV", {"q": q}, observed, reference,
                   observed <= reference)


# ---------------------------------------------------------------------------
# Short-interval statistics
# ---------------------------------------------------------------------------

def short_ap_check(t: int, delta: int, l: int, a: int) -> LemmaReport:
    """Lambda-sum over n = a mod l in (t, t+delta] against delta/phi(l).  l is
    at most t + delta, so euler_phi(l) trial-divides no further than the table.
    The sum is one math.fsum over the sparse cells with 2 pos + 1 = a (mod l)
    and the powers of 2 of every piece: correctly rounded, however split."""
    if t < 3 or delta < 1 or not 1 <= l <= t + delta:
        raise ValueError("require t >= 3, delta >= 1 and t + delta >= l >= 1")
    if math.gcd(a, l) != 1:
        raise ValueError(f"require gcd(a, l) = 1, got gcd({a}, {l}) = {math.gcd(a, l)}")
    table = primes_up_to(math.isqrt(t + delta) + 1)

    def terms():
        for lo, hi in _windows(t, delta, t + delta):     # K at the top: no gap to skip
            win = sieve_window(lo, hi, table)
            twice = win.pos * 2
            twice %= l                  # m = 2 pos + 1 = a (mod l) iff 2 pos = a - 1
            yield from win.val[twice == (a - 1) % l]
            yield from (LOG2 for m in win.powers_of_two if m % l == a % l)

    observed = math.fsum(terms())
    reference = delta / euler_phi(l)
    params = {"t": t, "delta": delta, "l": l, "a": a, "tol": SHORT_AP_TOL}
    return _report("SHORT_AP", params, observed, reference,
                   abs(observed / reference - 1.0) <= SHORT_AP_TOL)


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _mean_square(lemma_id: str, square, z: int, delta_exp: float, M_frac: float,
                 samples: int, seed: int, extra: dict) -> LemmaReport:
    """Monte-Carlo mean over t in (z, 2z] of square(t, M, lam), where lam is
    Lambda on (t, t+M], against delta^2 / (log z)^C0 with delta = z^delta_exp
    and M = M_frac delta; extra holds the caller's own parameters.  The
    caller has checked samples with _require_samples.
    """
    delta = int(round(z**delta_exp))
    M = int(round(M_frac * delta))
    if not 0 <= M <= delta:
        raise ValueError("require 0 <= M <= delta")
    params = {"z": z, "delta_exp": delta_exp, "M_frac": M_frac, **extra,
              "samples": samples, "C0": MEAN_SQ_C0, "delta": delta, "M": M}
    reference = delta**2 / math.log(z) ** MEAN_SQ_C0
    if M == 0:
        return _report(lemma_id, params, 0.0, reference, True, seed)
    ts = Stream(seed).integers(z + 1, 2 * z + 1, samples)
    table = primes_up_to(math.isqrt(2 * z + M) + 1)
    vals = []
    for t in ts:
        vals.append(square(t, M, sieve_window(t + 1, t + M + 1, table).lam))
    estimate = float(np.mean(vals))
    return _report(lemma_id, params, estimate, reference,
                   estimate <= reference, seed)


def mean_square_check(z: int, delta_exp: float = 0.4, M_frac: float = 1.0,
                      samples: int = 200, seed: int = 0) -> LemmaReport:
    """Monte-Carlo mean of |psi(t+M) - psi(t) - M|^2 over t in (z, 2z]
    against delta^2 / (log z)^C0, with delta = z^delta_exp and M = M_frac delta.
    """
    _require_samples(samples)

    def square(t, M, lam):
        return (float(lam.sum()) - M) ** 2

    return _mean_square("MEAN_SQ", square, z, delta_exp, M_frac, samples, seed, {})


def mean_square_twisted_check(z: int, delta_exp: float = 0.4, M_frac: float = 1.0,
                              q: int = 3, chi_index: int = 1,
                              samples: int = 200, seed: int = 0) -> LemmaReport:
    """As mean_square_check but for |sum Lambda(n) chi(n)|^2 with no main
    term, for a non-principal chi mod q."""
    _require_samples(samples)
    # refuse a bad chi_index before building the group
    if 1 <= q <= MAX_MODULUS and not 0 <= chi_index < euler_phi(q):
        raise ValueError(f"chi_index={chi_index} outside 0..{euler_phi(q) - 1}")
    chi = build_character_group(q).characters[chi_index]
    if chi.is_principal:
        raise ValueError("chi must be non-principal")
    row = chi.values()

    def square(t, M, lam):
        chivals = row[np.arange(t + 1, t + M + 1, dtype=np.int64) % q]
        return abs(complex((lam * chivals).sum())) ** 2

    return _mean_square("MEAN_SQ_TWISTED", square, z, delta_exp, M_frac, samples,
                        seed, {"q": q, "chi_index": chi_index})


def default_grid(seed: int = 0) -> list[LemmaReport]:
    """One representative check per lemma at desk-fast parameters."""
    coeffs = np.exp(2j * np.pi * np.array(Stream(seed).random(50)))
    return [
        large_sieve_avg_check(Q=10, M=0, N=100, trials=100, seed=seed),
        large_sieve_single_check(q=7, M=0, N=50, coeffs=coeffs),
        polya_vinogradov_check(q=199),
        mean_square_check(z=10**8, delta_exp=0.4, M_frac=0.2,
                          samples=200, seed=seed),
        mean_square_twisted_check(z=10**8, delta_exp=0.4, M_frac=0.2,
                                  q=3, chi_index=1, samples=200, seed=seed),
        short_ap_check(t=10**8, delta=10**6, l=3, a=1),
        phi_average_check(x=10**4),
        legendre_sum_check(l=105),
    ]
