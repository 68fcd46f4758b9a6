"""Tests for the Dirichlet character group construction."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from oracles import conductors_by_induction, evaluate, kronecker
from quadprimes.arith import euler_phi, mobius
from quadprimes.characters import build_character_group, primitive_characters


def divisors(q):
    return [d for d in range(1, q + 1) if q % d == 0]


def test_group_mod_3():
    table = build_character_group(3)
    assert len(table.characters) == 2
    principal = [c for c in table.characters if c.is_principal]
    assert len(principal) == 1
    other = next(c for c in table.characters if not c.is_principal)
    # the non-principal character mod 3 is the Legendre symbol
    row = other.values()
    for n in range(3):
        assert row[n] == pytest.approx(kronecker(n, 3), abs=1e-12)
    assert other.conductor == 3 and other.is_primitive


def test_group_mod_4():
    table = build_character_group(4)
    assert len(table.characters) == 2
    other = next(c for c in table.characters if not c.is_principal)
    assert other.values()[3] == pytest.approx(-1.0, abs=1e-12)
    assert len(primitive_characters(table)) == 1


def test_group_mod_8_all_real():
    table = build_character_group(8)
    assert len(table.characters) == 4
    for chi in table.characters:
        row = chi.values()
        assert np.abs(row.imag).max() < 1e-12
        assert set(row.tolist()) <= {-1, 0, 1}     # exact, not within a tolerance
    assert sorted(c.conductor for c in table.characters) == [1, 4, 8, 8]


def test_trivial_moduli():
    t1 = build_character_group(1)
    assert len(t1.characters) == 1
    chi = t1.characters[0]
    assert chi.is_principal and chi.is_primitive and chi.conductor == 1
    assert evaluate(chi, 12345) == pytest.approx(1.0)
    t2 = build_character_group(2)
    assert len(t2.characters) == 1
    assert not t2.characters[0].is_primitive  # induced from modulus 1


def test_build_rejects_bad_modulus():
    with pytest.raises(ValueError):
        build_character_group(0)
    with pytest.raises(ValueError):
        build_character_group(10**4 + 1)


def test_evaluate_examples():
    t5 = build_character_group(5)
    principal = next(c for c in t5.characters if c.is_principal)
    assert evaluate(principal, 7) == pytest.approx(1.0)
    t6 = build_character_group(6)
    for chi in t6.characters:
        assert evaluate(chi, 3) == 0
    quadratic = next(c for c in t5.characters
                     if not c.is_principal and np.abs(c.values().imag).max() < 1e-12)
    assert evaluate(quadratic, 2) == pytest.approx(-1.0, abs=1e-12)


def test_primitive_counts_small():
    assert len(primitive_characters(build_character_group(3))) == 1
    assert len(primitive_characters(build_character_group(4))) == 1
    assert len(primitive_characters(build_character_group(9))) == 4  # phi(9)-phi(3)


def test_character_value_invariants():
    rng = random.Random(11)
    for q in [1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 36, 45, 60, 101]:
        table = build_character_group(q)
        assert len(table.characters) == euler_phi(q)
        assert sum(c.is_principal for c in table.characters) == 1
        for chi in table.characters:
            size = max(q, 1)
            row = chi.values()
            for n in range(size):
                mag = abs(row[n])
                if math.gcd(n, q) > 1:
                    assert mag == 0.0
                else:
                    assert mag == pytest.approx(1.0, abs=1e-12)
            # complete multiplicativity on random pairs
            for _ in range(40):
                m, n = rng.randrange(size), rng.randrange(size)
                assert row[m * n % size] == pytest.approx(
                    row[m] * row[n], abs=1e-9)
            colsum = row.sum()
            if chi.is_principal:
                assert colsum == pytest.approx(euler_phi(q), abs=1e-9)
            else:
                assert abs(colsum) < 1e-9
            assert chi.is_primitive == (chi.conductor == q)
            assert q % chi.conductor == 0


def test_row_orthogonality_all_q_up_to_200():
    for q in range(1, 201):
        table = build_character_group(q)
        V = np.stack([c.values() for c in table.characters])
        gram = V @ V.conj().T
        expect = euler_phi(q) * np.eye(len(table.characters))
        assert np.abs(gram - expect).max() < 1e-9, q
        for row in V[np.abs(V.imag).max(axis=1) < 1e-12]:   # the real characters
            assert set(row.tolist()) <= {-1, 0, 1}, q


def test_multiplicativity_to_a_few_ulp():
    # values looked up at exact integer phases are multiplicative to a few
    # ulp; a float phase summed over many turns before exp is not
    rng = np.random.default_rng(22)
    for q in (720, 840, 997, 1000, 9973):
        chars = build_character_group(q).characters
        a, b = rng.integers(0, q, size=(2, 4000))
        worst = 0.0
        for i in rng.integers(0, len(chars), size=200):
            row = chars[i].values()
            worst = max(worst, float(np.abs(row[a * b % q] - row[a] * row[b]).max()))
        assert worst <= 4e-15, (q, worst)


def test_group_build_stores_no_value_table():
    tracemalloc.start()
    try:
        table = build_character_group(2003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6          # a phi(q) x q complex table would be 64 MB
    assert len(table.characters) == 2002


def test_parseval_identity_on_random_multisets():
    rng = random.Random(12)
    for q in (5, 12, 36, 71):
        table = build_character_group(q)
        for _ in range(10):
            S = [rng.randrange(0, 3 * q) for _ in range(rng.randint(1, 40))]
            lhs = 0.0
            for chi in table.characters:
                lhs += abs(sum(evaluate(chi, s) for s in S)) ** 2
            counts = {}
            for s in S:
                if math.gcd(s, q) == 1:
                    counts[s % q] = counts.get(s % q, 0) + 1
            rhs = euler_phi(q) * sum(c * c for c in counts.values())
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_primitive_count_formula_all_q_up_to_1000():
    # number of primitive characters mod q equals sum_{d|q} mu(q/d) phi(d)
    for q in range(1, 1001):
        table = build_character_group(q)
        expect = sum(mobius(q // d) * euler_phi(d) for d in divisors(q))
        assert len(primitive_characters(table)) == expect, q


def test_conductors_match_induction_oracle_all_q_up_to_200():
    # exact conductors from the exponent vector against the float search for
    # the least d | q on whose units n = 1 mod d the character is 1
    for q in range(1, 201):
        table = build_character_group(q)
        assert ([chi.conductor for chi in table.characters]
                == conductors_by_induction(table)), q


def test_conductor_matches_inducing_character():
    # each character agrees with some character modulo its conductor
    for q in (12, 24, 45):
        table = build_character_group(q)
        for chi in table.characters:
            sub = build_character_group(chi.conductor)
            match = False
            for psi in sub.characters:
                if all(abs(evaluate(chi, n) - evaluate(psi, n)) < 1e-9
                       for n in range(1, q + 1) if math.gcd(n, q) == 1):
                    match = True
                    break
            assert match, (q, chi.exponent_vector)
