"""Exact residue arithmetic over desk-scale moduli.

Primality, primes and divisors, inverses, primitive roots, unit-group
enumeration and discrete logs, all in exact integer arithmetic.  Python
integers are unbounded, so residue products never overflow.  is_prime and
mod_inverse take an integer of any size (is_prime is exact below 3.3e24);
divisors and primitive_root factor by trial division, so they are for
desk-scale n.  unit_residues, inverse_row and prime_modulus build one cached,
read-only row per modulus (the units; x^{-1} at each unit and 0 elsewhere;
discrete logs), and prime_modulus refuses M above MAX_MODULUS.
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
    "unit_residues",
    "inverse_row",
    "mod_inverse",
    "primitive_root",
    "prime_modulus",
]


# the largest modulus prime_modulus and the command line accept, refused
# before a residue is enumerated: prime_modulus fills its row in a Python loop
# of M - 1 steps
MAX_MODULUS = 100_003


class NotCoprime(ValueError):
    """An argument pair shares a factor where coprimality is required."""


class NotPrime(ValueError):
    """A prime modulus was required."""


# Deterministic Miller-Rabin witness set; sufficient for all n < 3.3e24.
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
def inverse_row(c: int) -> np.ndarray:
    """x^{-1} mod c at every unit x in [0, c) and 0 elsewhere, read-only int64;
    inverse_row(c)[unit_residues(c)] lists the inverses of the units."""
    units = unit_residues(c)
    row = np.zeros(c, dtype=np.int64)
    row[units] = [pow(x, -1, c) for x in units.tolist()]
    row.setflags(write=False)
    return row


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


@lru_cache(maxsize=256)
def prime_modulus(M: int) -> np.ndarray:
    """Discrete logs to the smallest primitive root g of the prime M > 3, as a
    read-only int64 row cached per modulus: entry n holds the j in [0, M-1)
    with g**j = n (mod M), and entry 0 holds -1.

    Refused before any work: M above MAX_MODULUS, M not prime (NotPrime) and
    M <= 3, all ValueErrors.
    """
    if M > MAX_MODULUS:
        raise ValueError(f"M must be at most {MAX_MODULUS}, got {M}")
    if not is_prime(M):
        raise NotPrime(f"{M} is not prime")
    if M <= 3:
        raise ValueError("character work requires a prime modulus > 3")
    g = primitive_root(M)
    dlog = np.full(M, -1, dtype=np.int64)
    x = 1
    for j in range(M - 1):
        dlog[x] = j
        x = x * g % M
    dlog.setflags(write=False)
    return dlog
