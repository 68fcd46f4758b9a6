"""Tests for the lemma verification operations."""

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

import quadprimes.arith
import quadprimes.lemmas
import quadprimes.scan
from oracles import (kronecker, mean_square_exact, polya_vinogradov_max,
                     sieve_window_full, von_mangoldt)
from quadprimes._stream import Stream
from quadprimes.arith import SEGMENT_SIZE, euler_phi, mobius, primes_up_to
from quadprimes.characters import MAX_MODULUS, build_character_group
from quadprimes.lemmas import (_jacobi_table, default_grid, large_sieve_avg_check,
                               large_sieve_single_check, legendre_sum_check,
                               mean_square_check, mean_square_twisted_check, phi_average_check,
                               phi_average_sum, polya_vinogradov_check,
                               short_ap_check)
from quadprimes.singular import main_term_constant


def legendre_double_sum_brute(l):
    total = 0
    for a in range(l):
        if math.gcd(a, l) != 1:
            continue
        for m in range(l):
            total += kronecker(m * m - a, l)
    return total


# ---------------------------------------------------------------------------
# Legendre-symbol double sum (exact identity)
# ---------------------------------------------------------------------------

def test_legendre_sum_trivial_and_prime():
    r1 = legendre_sum_check(1)
    assert r1.observed == 1 and r1.reference == 1 and r1.passed
    r3 = legendre_sum_check(3)
    assert r3.observed == -2 and r3.reference == -(3 - 1) and r3.passed


def test_legendre_sum_composite_brute():
    r = legendre_sum_check(15)
    assert r.observed == legendre_double_sum_brute(15) == 8
    assert r.reference == mobius(15) * euler_phi(15)
    assert r.passed


def test_legendre_sum_sweep_small():
    for l in range(1, 202, 2):
        if mobius(l) == 0:
            continue
        r = legendre_sum_check(l)
        assert r.passed and r.observed == mobius(l) * euler_phi(l), l


def test_legendre_sum_runs_in_bounded_memory():
    tracemalloc.start()
    try:
        r = legendre_sum_check(2003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6         # one phi(l) x l index array would be 64 MB
    assert r.observed == mobius(2003) * euler_phi(2003) == -2002 and r.passed


def test_jacobi_table_matches_kronecker():
    for l in [1, *range(3, 1001, 2)]:
        if mobius(l) == 0:
            continue
        assert _jacobi_table(l).tolist() == [kronecker(r, l) for r in range(l)], l


def test_legendre_sum_refuses_l_above_the_cap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("factorized an l above the cap")

    # mobius(l) is the check's first factorization; the symbol table's comes after
    monkeypatch.setattr(quadprimes.arith, "factorize", no_work)
    for l in (MAX_MODULUS + 1, 10007, 10**18 + 9):
        with pytest.raises(ValueError, match=f"^l must be in 1..{MAX_MODULUS}, got {l}$"):
            legendre_sum_check(l)


def test_legendre_sum_rejections():
    with pytest.raises(ValueError):
        legendre_sum_check(12)   # not square-free
    with pytest.raises(ValueError):
        legendre_sum_check(6)    # even modulus: symbol sum is ill-posed
    with pytest.raises(ValueError):
        legendre_sum_check(0)


# ---------------------------------------------------------------------------
# average of q / phi(4q)
# ---------------------------------------------------------------------------

def test_phi_average_small_values():
    assert phi_average_sum(1) == pytest.approx(0.5, rel=1e-12)
    assert phi_average_sum(10) == pytest.approx(73.0 / 12.0, rel=1e-12)
    r = phi_average_check(10)
    assert r.reference == pytest.approx(5 * main_term_constant(), rel=1e-9)
    assert r.reference == pytest.approx(6.4787, abs=2e-4)


def test_phi_average_deviation_bounded():
    ratios = []
    for x in (10**3, 10**4, 10**5):
        r = phi_average_check(x)
        assert r.passed
        ratios.append(abs(r.observed - r.reference) / math.log(x))
    assert max(ratios) <= 5.0


def test_phi_average_refuses_an_over_cap_x_before_the_totient_array(monkeypatch):
    # the totient array of x = 1e6 alone is 7.6 MiB
    monkeypatch.setattr(quadprimes.arith, "MAX_PRIME_LIMIT", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            phi_average_check(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# large sieve inequalities
# ---------------------------------------------------------------------------

def test_large_sieve_avg_trivial_modulus():
    # Q=1: only the trivial character mod 1; Cauchy gives ratio <= 1
    r = large_sieve_avg_check(Q=1, M=0, N=20, trials=50, seed=1)
    assert r.passed and r.ratio <= 1.0 + 1e-12


def test_large_sieve_avg_single_coefficient():
    r = large_sieve_avg_check(Q=5, M=0, N=1, trials=20, seed=2)
    assert r.passed


def test_large_sieve_avg_random_batch():
    r = large_sieve_avg_check(Q=10, M=0, N=100, trials=100, seed=3)
    assert r.passed and r.ratio <= 4.0
    again = large_sieve_avg_check(Q=10, M=0, N=100, trials=100, seed=3)
    assert r.observed == again.observed and r.ratio == again.ratio


@pytest.mark.parametrize("trials", [0, -4])
def test_large_sieve_avg_refuses_no_draws(trials):
    with pytest.raises(ValueError, match="trials >= 1"):
        large_sieve_avg_check(Q=2, M=0, N=5, trials=trials)


def test_large_sieve_single_trivial_cases():
    r = large_sieve_single_check(5, 0, 4, np.zeros(4))
    assert r.passed and r.observed == 0.0
    r3 = large_sieve_single_check(3, 0, 3, np.ones(3))
    # chi mod 3 gives 1 - 1 + 0 = 0
    assert r3.observed == pytest.approx(0.0, abs=1e-12)
    assert r3.reference == pytest.approx(18.0)
    assert r3.passed


def test_large_sieve_single_random_sweep():
    rng = np.random.default_rng(4)
    for q in range(2, 21):
        for _ in range(5):
            N = int(rng.integers(1, 21))
            M = int(rng.integers(0, 50))
            coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
            r = large_sieve_single_check(q, M, N, coeffs)
            assert r.passed, (q, M, N)


def test_large_sieve_single_validation():
    with pytest.raises(ValueError):
        large_sieve_single_check(1, 0, 3, np.ones(3))
    with pytest.raises(ValueError):
        large_sieve_single_check(5, 0, 3, np.ones(4))


# ---------------------------------------------------------------------------
# Polya-Vinogradov
# ---------------------------------------------------------------------------

def test_polya_vinogradov_small():
    r3 = polya_vinogradov_check(3)
    assert r3.observed == pytest.approx(1.0, abs=1e-12)
    assert r3.passed
    r5 = polya_vinogradov_check(5)
    assert r5.reference == pytest.approx(6 * math.sqrt(5) * math.log(5), rel=1e-12)
    assert r5.passed


def test_polya_vinogradov_sweep():
    for q in range(3, 61):
        assert polya_vinogradov_check(q).passed, q
    with pytest.raises(ValueError):
        polya_vinogradov_check(2)


def test_polya_vinogradov_bit_identical_to_exhaustive_search():
    # skipping characters whose bound is below the running maximum is exact
    for q in range(3, 251):
        observed = polya_vinogradov_check(q).observed
        assert observed.hex() == polya_vinogradov_max(q).hex(), q


def test_polya_vinogradov_runs_in_bounded_memory():
    tracemalloc.start()
    try:
        r = polya_vinogradov_check(2003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6         # one q x q window table would be about 100 MB
    assert r.passed


def test_polya_vinogradov_observed_is_attained():
    # the reported maximum must be a real window sum for some chi, M, N
    q = 7
    r = polya_vinogradov_check(q)
    from quadprimes.characters import build_character_group
    best = 0.0
    for chi in build_character_group(q).characters:
        if chi.is_principal:
            continue
        row = chi.values()
        for M in range(q):
            for N in range(1, q + 1):
                s = sum(row[n % q] for n in range(M + 1, M + N + 1))
                best = max(best, abs(s))
    assert r.observed == pytest.approx(best, rel=1e-12)


# ---------------------------------------------------------------------------
# short-interval progressions
# ---------------------------------------------------------------------------

def test_short_ap_rejects_common_factor():
    with pytest.raises(ValueError):
        short_ap_check(100, 10, 4, 2)


@pytest.mark.parametrize("l", [0, -3])
def test_short_ap_refuses_nonpositive_modulus_before_the_table(monkeypatch, l):
    def no_table(limit):
        raise AssertionError("a prime table was built")

    monkeypatch.setattr(quadprimes.lemmas, "primes_up_to", no_table)
    with pytest.raises(ValueError, match="l >= 1"):
        short_ap_check(t=1000, delta=10, l=l, a=1)


def test_short_ap_refuses_a_modulus_above_the_window_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work was done")

    monkeypatch.setattr(quadprimes.lemmas, "primes_up_to", no_work)
    monkeypatch.setattr(quadprimes.lemmas, "euler_phi", no_work)
    for l in (1011, 10**18 + 9):
        with pytest.raises(ValueError, match=r"t \+ delta >= l"):
            short_ap_check(t=1000, delta=10, l=l, a=1)
    monkeypatch.undo()
    assert short_ap_check(t=1000, delta=10, l=1010, a=1).reference == 10 / euler_phi(1010)


def test_short_ap_desk_scale():
    r = short_ap_check(t=10**6, delta=2 * 10**5, l=1, a=1)
    assert r.passed and abs(r.ratio - 1) < 0.05
    r1 = short_ap_check(t=10**6, delta=2 * 10**5, l=3, a=1)
    r2 = short_ap_check(t=10**6, delta=2 * 10**5, l=3, a=2)
    assert r1.passed and r2.passed
    assert r1.reference == r2.reference == pytest.approx(10**5)


@pytest.mark.parametrize("t, delta, l, a", [
    (10**6, 2 * 10**5, 1, 1), (10**6, 2 * 10**5, 3, 1), (10**6, 2 * 10**5, 3, 2),
    (10**6, 2 * 10**5, 4, 3), (10**6, 2 * 10**5, 10, 7),
    (3, 5000, 3, 1), (3, 5000, 5, 2), (10, 3, 7, 6),
])
def test_short_ap_observed_bit_identical_to_full_cell_sum(t, delta, l, a):
    """One window: the correctly rounded sum over the progression of a full-cell sieve."""
    lo, hi = t + 1, t + delta + 1
    lam = sieve_window_full(lo, hi, primes_up_to(math.isqrt(hi) + 1))
    first = lo + (a - lo) % l
    expected = math.fsum(lam[first - lo:: l].tolist())
    assert short_ap_check(t, delta, l, a).observed.hex() == expected.hex()


def test_short_ap_builds_no_dense_progression():
    tracemalloc.start()
    try:
        r = short_ap_check(10**8, 10**6, 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20      # the dense progression alone is 333,334 floats
    assert r.passed


# ---------------------------------------------------------------------------
# mean-square checks
# ---------------------------------------------------------------------------

def test_mean_square_zero_window():
    r = mean_square_check(z=10**4, M_frac=0.0, samples=10, seed=0)
    assert r.passed and r.observed == 0.0
    rt = mean_square_twisted_check(z=10**4, M_frac=0.0, samples=10, seed=0)
    assert rt.passed and rt.observed == 0.0


def test_mean_square_exact_against_direct():
    z, delta_exp, m_frac = 300, 0.5, 1.0
    delta = int(round(z**delta_exp))
    M = int(round(m_frac * delta))
    direct = 0.0
    for j in range(z, 2 * z):
        inc = sum(von_mangoldt(n) for n in range(j + 1, j + M + 1))
        direct += (inc - M) ** 2
    assert mean_square_exact(z, delta_exp, m_frac) == pytest.approx(
        direct / z, rel=1e-12)
    with pytest.raises(ValueError):
        mean_square_exact(10**8, 0.4, 1.0)


def test_mean_square_monte_carlo_tracks_exact():
    z = 10**4
    exact = mean_square_exact(z, 0.4, 1.0)
    mc = mean_square_check(z=z, delta_exp=0.4, M_frac=1.0, samples=500, seed=9)
    assert mc.observed == pytest.approx(exact, rel=0.35)


def test_mean_square_desk_scale_pass():
    r = mean_square_check(z=10**8, delta_exp=0.4, M_frac=0.2, samples=100, seed=5)
    assert r.passed
    rt = mean_square_twisted_check(z=10**8, delta_exp=0.4, M_frac=0.2,
                                   samples=100, seed=5)
    assert rt.passed


def test_mean_square_twisted_rejects_principal():
    with pytest.raises(ValueError):
        mean_square_twisted_check(z=10**4, q=3, chi_index=0, samples=5, seed=0)


def test_mean_square_refuses_no_samples_before_the_table(monkeypatch):
    def no_table(limit):
        raise AssertionError("built a prime table for no samples")

    monkeypatch.setattr(quadprimes.lemmas, "primes_up_to", no_table)
    for check in (mean_square_check, mean_square_twisted_check):
        for samples in (0, -1):
            with pytest.raises(ValueError, match=f"^samples must be >= 1, got {samples}$"):
                check(z=10**6, samples=samples)


def test_mean_square_refuses_a_negative_seed_or_a_t_past_int64_before_the_table(
        monkeypatch):
    def no_table(limit):
        raise AssertionError("built a prime table for a refused draw")

    monkeypatch.setattr(quadprimes.lemmas, "primes_up_to", no_table)
    for check in (mean_square_check, mean_square_twisted_check):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            check(z=10**6, samples=5, seed=-1)
        with pytest.raises(ValueError, match="high"):     # t would reach 2z = 2^63
            check(z=2**62, samples=5)


def test_mean_square_refuses_an_over_cap_table_before_drawing_any_t():
    # the prime table for t up to 2z = 2e17 needs primes to 4.5e8, past the cap;
    # drawing the 10^6 t first took 0.77 s and traced 42.4 MiB
    for check in (mean_square_check, mean_square_twisted_check):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^prime-table limit .* exceeds the cap"):
                check(z=10**17, samples=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_mean_square_twisted_refuses_a_chi_index_out_of_range():
    for chi_index in (-1, 2, 100):          # phi(3) = 2 characters mod 3
        with pytest.raises(ValueError, match=rf"^chi_index={chi_index} outside 0\.\.1"):
            mean_square_twisted_check(z=10**4, q=3, chi_index=chi_index, samples=5)


def test_mean_square_twisted_refuses_before_building_the_group():
    # a bad call must not build the 2002 characters mod 2003 first
    for samples, chi_index in ((0, 1), (5, 2002), (5, -1)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                mean_square_twisted_check(z=10**6, q=2003, chi_index=chi_index,
                                          samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (samples, chi_index)


@functools.lru_cache(maxsize=None)
def _mean_square_oracle(z, delta_exp, M_frac, samples, seed, q, chi_index):
    """np.mean over the seeded t of the squared window sum, each sum one
    math.fsum over a full-cell sieve of (t, t+M]; q = 1 is the plain check
    (main term M), any other q twists by that character (real and imaginary
    parts summed apart)."""
    M = int(round(M_frac * int(round(z**delta_exp))))
    table = primes_up_to(math.isqrt(2 * z + M) + 1)
    row = build_character_group(q).characters[chi_index].values()
    squares = []
    for t in Stream(seed).integers(z + 1, 2 * z + 1, samples):
        lam = sieve_window_full(t + 1, t + M + 1, table)
        if q == 1:
            squares.append((math.fsum(lam.tolist()) - M) ** 2)
        else:
            w = lam * row[np.arange(t + 1, t + M + 1) % q]
            squares.append(abs(complex(math.fsum(w.real), math.fsum(w.imag))) ** 2)
    return float(np.mean(squares))


@pytest.mark.parametrize("seg_size", [SEGMENT_SIZE, 64])
@pytest.mark.parametrize("q, chi_index", [(1, 0), (3, 1), (5, 1)])
@pytest.mark.parametrize("z, delta_exp, M_frac, samples, seed", [
    (10**8, 0.4, 0.2, 200, 0),          # the default grid's draw
    (10**6, 0.5, 1.0, 40, 3),
])
def test_mean_square_observed_bit_identical_to_full_cell_sums(
        monkeypatch, z, delta_exp, M_frac, samples, seed, q, chi_index, seg_size):
    # each window sum is correctly rounded, so the cut into pieces cannot show
    monkeypatch.setattr(quadprimes.scan, "SEGMENT_SIZE", seg_size)
    if q == 1:
        r = mean_square_check(z, delta_exp, M_frac, samples, seed)
    else:
        r = mean_square_twisted_check(z, delta_exp, M_frac, q, chi_index, samples, seed)
    expected = _mean_square_oracle(z, delta_exp, M_frac, samples, seed, q, chi_index)
    assert r.observed.hex() == expected.hex()


def test_mean_square_twisted_builds_no_dense_window():
    tracemalloc.start()
    try:
        r = mean_square_twisted_check(z=10**11, delta_exp=0.5, M_frac=1.0, samples=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.params["M"] == 316228
    assert peak <= 4 * 2**20      # a dense float Lambda row and complex chi row: 7.2 MiB


def test_mean_square_invalid_window():
    with pytest.raises(ValueError):
        mean_square_check(z=10**4, M_frac=1.5, samples=5, seed=0)


# ---------------------------------------------------------------------------
# default grid
# ---------------------------------------------------------------------------

def test_default_grid_all_pass():
    reports = default_grid(seed=0)
    assert len(reports) >= 8
    assert {r.lemma_id for r in reports} == {
        "LS_AVG", "LS_SINGLE", "POLYA_VINOGRADOV", "MEAN_SQ",
        "MEAN_SQ_TWISTED", "SHORT_AP", "PHI_AVG", "LEGENDRE_SUM"}
    for r in reports:
        assert r.passed, r.lemma_id
