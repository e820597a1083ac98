"""Prime-modulus arithmetic against the stdlib brute loops of oracles.py and
direct identities."""

import math
import random

import numpy as np
import pytest

from deltasums.modular import (
    NotCoprime,
    NotPrime,
    divisors,
    inverse_row,
    is_prime,
    mod_inverse,
    prime_modulus,
    primes_in,
    primes_up_to,
    primitive_root,
    unit_residues,
)

from oracles import discrete_logs, divisors_of, primes_below, totient


def test_primes_up_to_matches_trial_division():
    for n in (0, 1, 2, 3, 4, 1000, 10007):
        primes = primes_up_to(n)
        assert primes == primes_below(n + 1)
        assert all(type(p) is int for p in primes)


def test_primes_in_inclusive_and_float_tolerant():
    assert primes_in(5, 11) == [5, 7, 11]
    # dyadic scales arrive as floats; 3.0 must behave like 3
    assert primes_in(3.0, 6.0) == [3, 5]
    assert primes_in(24, 28) == []


def test_is_prime_small():
    claimed = [n for n in range(2, 2000) if is_prime(n)]
    assert claimed == primes_below(2000)


def test_divisors_random(seed=7):
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randrange(1, 5000)
        assert divisors(n) == divisors_of(n)


def test_divisors_take_integers_alone_and_return_python_ints():
    for n in (2.5, 6.0, True, False):
        with pytest.raises(TypeError):
            divisors(n)
    got = divisors(np.int64(12))
    assert got == [1, 2, 3, 4, 6, 12] and all(type(d) is int for d in got)


def test_mod_inverse_round_trip(seed=3):
    rng = random.Random(seed)
    for _ in range(500):
        m = rng.randrange(2, 10_000)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            with pytest.raises(NotCoprime):
                mod_inverse(a, m)
            continue
        assert a * mod_inverse(a, m) % m == 1


def test_inverse_row_inverts_units_and_is_zero_elsewhere():
    for c in (1, 2, 12, 30030, 100003):
        row = inverse_row(c)
        units = unit_residues(c)
        assert row.shape == (c,) and row.dtype == np.int64
        # c = 1: the one residue 0 is its own inverse, as pow(0, -1, 1) == 0
        assert np.all(row[units] * units % c == 1 % c)
        # reduced as well, so each entry is the one inverse in [0, c)
        assert np.all((0 <= row) & (row < c))
        off = np.ones(c, dtype=bool)
        off[units] = False
        assert not row[off].any()
        with pytest.raises(ValueError):
            row[units[0]] = 1


def test_unit_residues_count():
    for c in (1, 2, 6, 8, 45, 210):
        assert len(unit_residues(c)) == totient(c)


def test_primitive_root_has_full_order():
    for M in (3, 5, 7, 11, 101, 499):
        g = primitive_root(M)
        seen = set()
        x = 1
        for _ in range(M - 1):
            x = x * g % M
            seen.add(x)
        assert len(seen) == M - 1


def test_primitive_root_requires_prime():
    with pytest.raises(NotPrime):
        primitive_root(8)


def test_prime_modulus_discrete_log():
    dlog = prime_modulus(101)
    g = primitive_root(101)
    for j in (0, 1, 5, 50, 99):
        assert dlog[pow(g, j, 101)] == j
    # the row covers exactly the units, and is read-only
    assert dlog[0] == -1
    assert sorted(dlog[1:]) == list(range(101 - 1))
    assert dlog.dtype == np.int64 and not dlog.flags.writeable


def test_prime_modulus_matches_the_power_loop():
    # every prime to 2000 crosses each doubling edge, including M - 1 = 2^k
    for M in [p for p in primes_below(2001) if p >= 5] + [100_003]:
        assert prime_modulus(M).tolist() == discrete_logs(M, primitive_root(M)), M


def test_prime_modulus_rejects_composites():
    with pytest.raises(NotPrime):
        prime_modulus(91)
