"""Tests for the singular series and the main-term constant."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (class_number_formula_batch, correction_log_sum, kronecker,
                     lower_bound_diagnostic, per_prime_table_batch,
                     reduced_form_class_numbers)
from quadprimes.arith import primes_array
from quadprimes.singular import (DEFAULT_TRUNCATION, _factor_logs,
                                 batch_singular_values, class_numbers,
                                 main_term_constant, singular_error_bound)

S1_REFERENCE = 1.3728134628     # S(1), the n^2 + 1 constant (Shanks 1960)


def zeta3_series(N: int = 20000) -> float:
    """Apery's constant by direct summation with an Euler-Maclaurin tail."""
    s = sum(1.0 / n**3 for n in range(N, 0, -1))
    return s + 1.0 / (2 * N**2) - 1.0 / (2 * N**3) + 1.0 / (4 * N**4)


def test_truncated_hand_products():
    # k = 1: w = 4, h(-4) = 1, (-1/3) = -1 gives f_3 = (3/2)/(4/3) = 9/8,
    # (-1/5) = +1 gives f_5 = (3/4)/(4/5) = 15/16
    assert batch_singular_values(1, 3)[0] == pytest.approx(9 / (2 * math.pi), rel=1e-14)
    assert batch_singular_values(1, 5)[0] == pytest.approx(
        135 / (32 * math.pi), rel=1e-14)
    # k = 3: h(-12) = 1 and 3 | k, so f_3 = 1: S = 2 sqrt(12) / (2 pi)
    assert batch_singular_values(3, 3)[2] == pytest.approx(
        math.sqrt(12) / math.pi, rel=1e-14)


def test_truncated_validates_input():
    with pytest.raises(ValueError):
        batch_singular_values(0, 100)
    with pytest.raises(ValueError):
        batch_singular_values(1, 2)
    with pytest.raises(ValueError):
        singular_error_bound(2)


def test_classical_constant_for_k_equals_one():
    value = batch_singular_values(1, DEFAULT_TRUNCATION)[0]
    assert value == pytest.approx(S1_REFERENCE, abs=1e-6)


def test_batch_hand_cases():
    h = class_numbers(41)
    assert h[5] == 2 and h[41] == 8             # h(-20) = 2, h(-164) = 8
    assert h[1:5].tolist() == [1, 1, 1, 1]      # h(-4), h(-8), h(-12), h(-16)
    # k = 2: h(-8) = 1, (-2/3) = +1 and (-2/5) = -1:
    # 2 sqrt(8) / (2 pi) * (1/2)/(2/3) * (5/4)/(6/5)
    vals = batch_singular_values(3, 5)
    assert vals[1] == pytest.approx(math.sqrt(8) / math.pi * 0.75 * 25 / 24, rel=1e-14)


def test_class_numbers_match_reduced_form_count():
    assert class_numbers(2000).tolist()[1:] == reduced_form_class_numbers(2000)[1:]


@pytest.mark.parametrize("K, P, through_cache", [
    (1, 3, False),           # smallest batch
    (1, 1000, True),
    (2, 100, True),
    (3, 3, False),           # K = p
    (7, 100, True),          # p = 3, 5, 7 <= K, the rest above K
    (11, 11, False),
    (100, 7, False),         # K > P
    (100, 50, False),
    (97, 1000, True),        # p | k for every p <= K
    (257, 5000, True),
    (1000, 10**4, True),
    (2000, 10**4, False),
    (3982, 20000, False),
    (3982, 10**5, True),     # the dispersion benchmark's batch at the old --P
])
def test_batch_bit_identical_to_per_prime_tables(K, P, through_cache):
    # through_cache: the values are the prefix of a batch of at least 128
    # values, instead of a batch of exactly K (values do not depend on K)
    if through_cache:
        new = batch_singular_values(max(K, 128), P)[:K]
    else:
        new = batch_singular_values(K, P)
    oracle = class_number_formula_batch(K, P)
    assert np.array_equal(new.view(np.int64), oracle.view(np.int64))


def test_truncated_product_oracle_agrees_at_1e5():
    # the plain product converges only conditionally; 3e-3 is its observed
    # truncation scale at P = 1e5
    K, P = 1000, 10**5
    ratio = batch_singular_values(K, P) / per_prime_table_batch(K, P)
    assert np.abs(ratio - 1.0).max() <= 3e-3


def test_error_bound_covers_the_tail_to_1e6():
    bound = singular_error_bound(DEFAULT_TRUNCATION)
    values = batch_singular_values(10**5, DEFAULT_TRUNCATION)
    rng = np.random.default_rng(20261018)
    for k in rng.choice(np.arange(1, 10**5 + 1), size=50, replace=False).tolist():
        # S_{1e4}(k) / S_{1e6}(k) = exp(-sum of log f_p over 1e4 < p <= 1e6)
        tail = correction_log_sum(k, DEFAULT_TRUNCATION, 10**6)
        far = values[k - 1] * math.exp(tail)
        assert abs(values[k - 1] / far - 1.0) <= bound, k


def test_error_bound_size():
    bound = singular_error_bound(DEFAULT_TRUNCATION)
    assert 5e-5 < bound <= 1e-4        # the tail alone is 1/(2 * 9999)
    assert singular_error_bound(10**3) > bound > singular_error_bound(10**5)
    s1 = batch_singular_values(1, DEFAULT_TRUNCATION)[0]
    assert abs(s1 / S1_REFERENCE - 1.0) <= bound


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
    for k in (1, 2, 7, 16, 30, 1001):
        for p in (3, 5, 7, 11, 13, 97, 499):
            factor = 1.0 - kronecker(-k, p) / (p - 1)
            assert (p - 2) / (p - 1) <= factor <= p / (p - 1)
    # the correction factors behind singular_error_bound: |log f_p| <= 1/((p-2) p)
    for p in (3, 5, 7, 11, 13, 97, 499, 10007):
        assert np.abs(_factor_logs(p)).max() <= 1.0 / ((p - 2) * p)


def test_main_term_constant_hand_values():
    assert main_term_constant(3) == pytest.approx(7.0 / 6.0, rel=1e-12)
    assert main_term_constant(5) == pytest.approx(1.225, rel=1e-12)


def test_main_term_constant_against_zeta_oracle():
    zeta2 = math.pi**2 / 6
    zeta6 = math.pi**6 / 945
    reference = zeta2 * zeta3_series() / zeta6 / 1.5
    assert main_term_constant(10**6) == pytest.approx(reference, abs=1e-6)


def test_main_term_constant_runs_in_one_float_buffer():
    tracemalloc.start()
    try:
        value = main_term_constant(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 2**20     # the flags and the primes, then one float per prime
    p = primes_array(10**6)[1:].astype(np.float64)
    assert value == math.exp(float(np.log1p(1.0 / (p * (p - 1.0))).sum()))


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
