"""Exact residue arithmetic over desk-scale moduli.

Primality, primes and divisors, inverses, primitive roots, unit-group
enumeration and discrete logs, all in exact integer arithmetic.  Python
integers are unbounded, so residue products never overflow; moduli up to
2**62 are accepted throughout.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "NotCoprime",
    "NotPrime",
    "is_prime",
    "primes_up_to",
    "primes_in",
    "divisors",
    "euler_phi",
    "unit_residues",
    "inverse_table",
    "mod_inverse",
    "primitive_root",
    "PrimeModulus",
    "prime_modulus",
]


# the largest modulus the command line and make_pipeline_config accept,
# refused before a residue is enumerated: PrimeModulus fills its dlog table in
# a Python loop of M - 1 steps
MAX_MODULUS = 100_003


class NotCoprime(ValueError):
    """An argument pair shares a factor where coprimality is required."""


class NotPrime(ValueError):
    """A prime modulus was required."""


# Deterministic Miller-Rabin witness set; sufficient for all n < 3.3e24,
# comfortably past the 2**62 moduli accepted here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def primes_in(lo: float, hi: float) -> list[int]:
    """Primes p with lo <= p <= hi (endpoints included)."""
    if hi < 2 or hi < lo:
        return []
    start = max(2, math.ceil(lo))
    return [p for p in primes_up_to(math.floor(hi)) if p >= start]


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale n)."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    out = n
    for p in _factorize(n):
        out -= out // p
    return out


@lru_cache(maxsize=256)
def unit_residues(c: int) -> np.ndarray:
    """Residues a mod c with gcd(a, c) = 1, as a read-only int64 array.

    For c = 1 the unit group is trivial and the single residue 0 is returned.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    keep = np.ones(c, dtype=bool)
    for p in _factorize(c):
        keep[::p] = False
    arr = np.flatnonzero(keep)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=256)
def inverse_table(c: int) -> np.ndarray:
    """Inverses of unit_residues(c) mod c, aligned entrywise; read-only."""
    units = unit_residues(c)
    if c == 1:
        inv = np.array([0], dtype=np.int64)
    else:
        inv = np.array([pow(int(a), -1, c) for a in units], dtype=np.int64)
    inv.setflags(write=False)
    return inv


def mod_inverse(a: int, m: int) -> int:
    """The inverse of a mod m, in [1, m-1].  Requires m >= 2 and gcd(a, m) = 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    g = math.gcd(a, m)
    if g != 1:
        raise NotCoprime(f"gcd({a}, {m}) = {g}, inverse undefined")
    return pow(a, -1, m)


def primitive_root(M: int) -> int:
    """Smallest generator of (Z/M)^* for prime M."""
    if not is_prime(M):
        raise NotPrime(f"{M} is not prime")
    if M == 2:
        return 1
    order = M - 1
    prime_divisors = list(_factorize(order))
    for g in range(2, M):
        if all(pow(g, order // q, M) != 1 for q in prime_divisors):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


class PrimeModulus:
    """A prime modulus M > 3 with its smallest primitive root and dlog table.

    dlog maps n in [0, M) to the exponent j with g**j = n (mod M); the slot
    for 0 holds -1.  The table is built eagerly in the constructor, so
    instances are immutable and safe to share across threads.  Use the
    prime_modulus() factory to get a cached instance per modulus.  Instances
    compare and hash by M, since M fixes g and the table.
    """

    __slots__ = ("M", "g", "_dlog")

    def __init__(self, M: int):
        if not is_prime(M):
            raise NotPrime(f"{M} is not prime")
        if M <= 3:
            raise ValueError("character work requires a prime modulus > 3")
        self.M = M
        self.g = primitive_root(M)
        dlog = np.full(M, -1, dtype=np.int64)
        x = 1
        for j in range(M - 1):
            dlog[x] = j
            x = x * self.g % M
        dlog.setflags(write=False)
        self._dlog = dlog

    @property
    def dlog(self) -> np.ndarray:
        return self._dlog

    def __eq__(self, other) -> bool:
        return self.M == other.M if isinstance(other, PrimeModulus) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.M)

    def __repr__(self) -> str:
        return f"PrimeModulus(M={self.M}, g={self.g})"


@lru_cache(maxsize=256)
def prime_modulus(M: int) -> PrimeModulus:
    """Cached PrimeModulus factory; one shared instance per modulus among the
    256 most recently used."""
    return PrimeModulus(M)
