"""Tests for the singular series and the main-term constant."""

import math

import numpy as np
import pytest

from quadprimes.singular import (_odd_primes_up_to, _reciprocity_block,
                                 batch_singular_values, lower_bound_diagnostic,
                                 main_term_constant)


def zeta3_series(N: int = 20000) -> float:
    """Apery's constant by direct summation with an Euler-Maclaurin tail."""
    s = sum(1.0 / n**3 for n in range(N, 0, -1))
    return s + 1.0 / (2 * N**2) - 1.0 / (2 * N**3) + 1.0 / (4 * N**4)


def test_truncated_hand_products():
    assert batch_singular_values(1, 5)[0] == pytest.approx(1.125, abs=1e-12)
    assert batch_singular_values(3, 3)[2] == pytest.approx(1.0, abs=1e-15)
    # (k=1, P=3): factor 1 - (-1/3)/2 = 3/2
    assert batch_singular_values(1, 3)[0] == pytest.approx(1.5, abs=1e-12)


def test_truncated_validates_input():
    with pytest.raises(ValueError):
        batch_singular_values(0, 100)
    with pytest.raises(ValueError):
        batch_singular_values(1, 2)


def test_classical_constant_for_k_equals_one():
    # S(1) truncated at 1e7: the classical n^2+1 constant, recomputed
    value = batch_singular_values(1, 10**7)[0]
    assert value == pytest.approx(1.3728134628, abs=1e-3)


def test_batch_hand_cases():
    vals = batch_singular_values(1, 3)
    assert vals[0] == pytest.approx(1.5, abs=1e-12)
    # (1 - (-k/3)/2)(1 - (-k/5)/4) for k = 1, 2, 3
    vals = batch_singular_values(3, 5)
    assert vals.tolist() == pytest.approx([1.125, 0.625, 1.25], abs=1e-12)


def per_prime_table_batch(K: int, P: int) -> np.ndarray:
    """Oracle: one float Legendre table of length p per odd prime p <= P,
    its factor-log pattern tiled across k = 1..K (O(p) work per prime)."""
    logacc = np.zeros(K, dtype=np.float64)
    for p in _odd_primes_up_to(P):
        p = int(p)
        leg = np.full(p, -1.0)
        leg[0] = 0.0
        sq = (np.arange(1, (p - 1) // 2 + 1, dtype=np.int64) ** 2) % p
        leg[sq] = 1.0
        flog = np.log1p(-leg / (p - 1.0))       # indexed by (-k) mod p
        # pattern over k = 1, 2, ...: (-k) mod p walks p-1, p-2, ..., 1, 0
        pattern = np.concatenate((flog[:0:-1], flog[:1]))
        logacc += np.resize(pattern, K)
    return np.exp(logacc)


@pytest.mark.parametrize("K, P, reciprocity", [
    (1, 3, False),           # smallest batch
    (1, 1000, True),
    (2, 100, True),
    (3, 3, False),           # K = p
    (7, 100, True),          # p = 3, 5, 7 <= K by pattern, p > K by reciprocity
    (11, 11, False),
    (100, 7, False),         # K > P
    (100, 50, False),
    (97, 1000, True),        # p | k for every p <= K
    (257, 5000, True),
    (1000, 10**4, True),
    (2000, 10**4, False),    # tables too big for P: primes > K fall back
    (3982, 20000, False),
    (3982, 10**5, True),     # the dispersion benchmark's batch
])
def test_batch_bit_identical_to_per_prime_tables(K, P, reciprocity):
    assert (_reciprocity_block(K, P) > 0) == reciprocity
    new = batch_singular_values(K, P)
    old = per_prime_table_batch(K, P)
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


def test_scale_invariance_s_of_4k():
    vals = batch_singular_values(4000, 10**4)
    for k in range(1, 1001):
        assert vals[4 * k - 1] == vals[k - 1], k


def test_positivity():
    vals = batch_singular_values(10**4, 10**5)
    assert float(vals.min()) > 0.0
    # each factor lies in [(p-2)/(p-1), p/(p-1)], so values are bounded too
    assert float(vals.max()) < 10.0


def test_factor_range():
    from quadprimes.arith import kronecker
    for k in (1, 2, 7, 16, 30, 1001):
        for p in (3, 5, 7, 11, 13, 97, 499):
            factor = 1.0 - kronecker(-k, p) / (p - 1)
            assert (p - 2) / (p - 1) <= factor <= p / (p - 1)


def test_main_term_constant_hand_values():
    assert main_term_constant(3) == pytest.approx(7.0 / 6.0, rel=1e-12)
    assert main_term_constant(5) == pytest.approx(1.225, rel=1e-12)


def test_main_term_constant_against_zeta_oracle():
    zeta2 = math.pi**2 / 6
    zeta6 = math.pi**6 / 945
    reference = zeta2 * zeta3_series() / zeta6 / 1.5
    assert main_term_constant(10**6) == pytest.approx(reference, abs=1e-6)


def test_main_term_constant_monotone_in_P():
    values = [main_term_constant(P) for P in (10, 100, 1000, 10**4)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lower_bound_diagnostic():
    s1 = batch_singular_values(1, 10**4)[0]
    assert lower_bound_diagnostic(1, 10**4) == pytest.approx(
        s1 * math.log(3.0), rel=1e-12)
    m10 = lower_bound_diagnostic(10, 10**4)
    m50 = lower_bound_diagnostic(50, 10**4)
    m100 = lower_bound_diagnostic(100, 10**4)
    assert m10 >= m50 >= m100 > 0
