"""Dirichlet character groups for small moduli.

The unit group (Z/qZ)^x is decomposed into cyclic factors via CRT over the
prime-power parts of q (the 2-power part uses the {-1, 5} generating pair).
Characters are indexed by exponent vectors e on those generators.  A group
keeps its units, their integer steps expvec[u, j] L/d_j (L the lcm of the
orders d_j) and one table of L-th roots of unity; chi_e(units[u]) is the root
at steps[u] . e mod L, so a row is built only on request, from exact phases.

Conductors are exact integers read off the exponent vector, one prime power
p^e of q at a time.  For odd p the local character has order m = m0 p^s with
p not dividing m0, and conductor 1 if m = 1, p if s = 0 and p^(s+1)
otherwise.  For p = 2 the conductor is 2^(j+2) when the part on 5 has order
2^j > 1, else 4 or 1 by the part on -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import euler_phi, factorize

MAX_MODULUS = 10**4  # the lemma checks read phi(q) rows of q values; keep q modest


@dataclass(frozen=True)
class Character:
    """One Dirichlet character mod q; the arrays are its group's, shared."""
    modulus: int
    exponent_vector: tuple[int, ...]
    conductor: int
    is_primitive: bool
    is_principal: bool
    _units: np.ndarray = field(repr=False, compare=False)
    _steps: np.ndarray = field(repr=False, compare=False)   # units x gens, in 1/L turns
    _roots: np.ndarray = field(repr=False, compare=False)   # the L-th roots of unity

    def values(self) -> np.ndarray:
        """chi(0), ..., chi(q-1), built afresh on each call; 0 off the units."""
        phases = self._steps @ np.array(self.exponent_vector, dtype=np.int64)
        row = np.zeros(self.modulus, dtype=np.complex128)
        row[self._units] = self._roots[phases % len(self._roots)]
        return row


@dataclass(frozen=True)
class CharacterTable:
    """The full group of Dirichlet characters mod q."""
    modulus: int
    characters: list[Character] = field(default_factory=list)


def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root mod p^e for an odd prime p."""
    phi_p = p - 1
    factors = [f for f, _ in factorize(phi_p)]
    g = 2
    while True:
        if all(pow(g, phi_p // f, p) != 1 for f in factors):
            break
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p  # g+p generates mod p^2 and hence mod every p^e
    return g


def _crt_lift(residue: int, pe: int, q: int) -> int:
    """x mod q with x = residue mod pe and x = 1 mod q/pe."""
    rest = q // pe
    if rest == 1:
        return residue % q
    inv_rest = pow(rest, -1, pe)
    inv_pe = pow(pe, -1, rest)
    return (residue * rest * inv_rest + pe * inv_pe) % q


def _local_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (residue, order) of (Z/p^eZ)^x; for p = 2, -1 comes first."""
    pe = p**e
    if p != 2:
        return [(_primitive_root(p, e), pe // p * (p - 1))]
    if e == 1:
        return []
    if e == 2:
        return [(3, 2)]
    return [(pe - 1, 2), (5, 2 ** (e - 2))]


def _local_conductors(p: int, e: int, exps: np.ndarray) -> np.ndarray:
    """Conductor of each character's p^e part from its exponents on that part."""
    if p != 2:
        order = p ** (e - 1) * (p - 1)
        m = order // np.gcd(exps[:, 0], order)
        return np.where(m == 1, 1, p * np.gcd(m, p ** (e - 1)))
    if e == 1:
        return np.ones(len(exps), dtype=np.int64)
    conductor = np.where(exps[:, 0] != 0, 4, 1)
    if e >= 3:
        order5 = 2 ** (e - 2)
        m5 = order5 // np.gcd(exps[:, 1], order5)
        conductor = np.where(m5 > 1, 4 * m5, conductor)
    return conductor


def build_character_group(q: int) -> CharacterTable:
    """Construct all phi(q) characters mod q with conductor data.

    q = 1 yields the trivial group with the single principal character.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q > MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds cap {MAX_MODULUS}")
    parts = [(p, e, _local_generators(p, e)) for p, e in factorize(q)] if q > 1 else []
    gens = [(_crt_lift(g, p**e, q), order)
            for p, e, local in parts for g, order in local]
    orders = [d for _, d in gens]
    phi_q = euler_phi(q)
    if math.prod(orders) != phi_q:
        raise AssertionError(f"generator orders {orders} do not multiply to phi({q})")

    # Enumerate units together with their discrete-log vectors; characters
    # share the enumeration order of exponent tuples, so index 0 is the
    # principal character.
    expvec = np.array(list(itertools.product(*map(range, orders))),
                      dtype=np.int64).reshape(phi_q, len(gens))
    units = np.full(phi_q, 1 % q, dtype=np.int64)
    for j, (g, d) in enumerate(gens):
        powers = np.array([pow(g, a, q) for a in range(d)], dtype=np.int64)
        units = units * powers[expvec[:, j]] % q

    conductor = np.ones(phi_q, dtype=np.int64)
    first = 0
    for p, e, local in parts:
        conductor *= _local_conductors(p, e, expvec[:, first:first + len(local)])
        first += len(local)

    L = math.lcm(*orders)                   # the group exponent
    steps = expvec * (L // np.array(orders, dtype=np.int64))
    k = np.arange(L)
    roots = np.exp(2j * np.pi * k / L)      # then exact at the multiples of L/4
    roots[4 * k % L == 0] = np.array([1, 1j, -1, -1j])[::4 // math.gcd(L, 4)]
    chars = [Character(modulus=q, exponent_vector=tuple(e), conductor=c,
                       is_primitive=c == q, is_principal=not any(e),
                       _units=units, _steps=steps, _roots=roots)
             for e, c in zip(expvec.tolist(), conductor.tolist())]
    return CharacterTable(modulus=q, characters=chars)


def primitive_characters(table: CharacterTable) -> list[Character]:
    return [chi for chi in table.characters if chi.is_primitive]
