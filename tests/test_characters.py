"""Dirichlet characters mod a prime: group structure, tables, symmetries."""

import cmath
import math
import random

import numpy as np
import pytest

from deltasums.characters import (
    DirichletCharacter,
    PrincipalCharacterNotAllowed,
    _exp_table,
    character,
    enumerate_characters,
)
from deltasums.identities import _beta_row
from deltasums.modular import MAX_MODULUS, NotPrime, prime_modulus, primitive_root


def test_value_table_matches_pointwise():
    # chi_k(g^j) = e(kj/(M-1)), with the values on the axes exact
    for M in (5, 7, 13):
        g = primitive_root(M)
        for k in range(M - 1):
            chi = character(M, k)
            tab = chi.value_table()
            assert tab[0] == 0 and chi(0) == 0 and chi(-M) == 0
            for j in range(M - 1):
                n = pow(g, j, M)
                assert chi(n) == tab[n] == chi(n - 3 * M)
                assert abs(chi(n) - cmath.exp(2j * math.pi * (k * j % (M - 1)) / (M - 1))) < 1e-15
                if 4 * k * j % (M - 1) == 0:
                    assert chi(n) == 1j ** (4 * k * j // (M - 1))


def test_exp_table_is_exact_at_the_four_axis_points_and_read_only():
    for c in (1, 2, 3, 4, 6, 8, 12, 100, 1000, 100002):
        tab = _exp_table(c)
        j = np.arange(c)
        assert tab.shape == (c,)
        assert np.abs(tab - np.exp(2j * np.pi * j / c)).max() < 1e-14
        axes = {0: 1.0}
        if c % 2 == 0:
            axes[c // 2] = -1.0
        if c % 4 == 0:
            axes.update({c // 4: 1j, 3 * c // 4: -1j})
        for at, value in axes.items():
            assert tab[at].real == value.real and tab[at].imag == value.imag
        with pytest.raises(ValueError):
            tab[0] = 0.0


def test_complete_multiplicativity(seed=2):
    rng = random.Random(seed)
    for M in (11, 101):
        for _ in range(250):
            k = rng.randrange(1, M - 1)
            chi = character(M, k)
            a = rng.randrange(0, 5 * M)
            b = rng.randrange(0, 5 * M)
            lhs = chi(a * b)
            rhs = chi(a) * chi(b)
            assert abs(lhs - rhs) < 1e-12


def test_periodicity_and_unit_magnitude(seed=9):
    rng = random.Random(seed)
    chi = character(101, 17)
    for _ in range(200):
        n = rng.randrange(0, 101 * 50)
        v = chi(n)
        assert abs(v - chi(n % 101)) < 1e-15
        if math.gcd(n, 101) == 1:
            assert abs(abs(v) - 1.0) < 1e-12
        else:
            assert v == 0


def test_values_array_agrees_with_scalar():
    chi = character(31, 4)
    n = np.arange(0, 500, dtype=np.int64)
    arr = chi.values(n)
    for i in (0, 1, 31, 62, 123, 499):
        assert arr[i] == chi(int(n[i]))


def test_index_arithmetic_is_group_law():
    # chi_j * chi_k = chi_{j+k mod M-1} in the primitive-root indexing
    M = 13
    for j in range(M - 1):
        for k in range(M - 1):
            prod_index = (j + k) % (M - 1)
            lhs = character(M, j).value_table() * character(M, k).value_table()
            rhs = character(M, prod_index).value_table()
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conjugate_is_inverse_character():
    M = 17
    for k in range(1, M - 1):
        chi = character(M, k)
        conj = chi.conjugate()
        assert conj.index == (M - 1 - k) % (M - 1)
        assert np.max(np.abs(conj.value_table() - np.conj(chi.value_table()))) < 1e-15


def test_order_and_quadratic_flag():
    M = 13
    for k in range(M - 1):
        chi = character(M, k)
        assert chi.is_quadratic == (k == (M - 1) // 2)
        assert chi.is_principal == (k == 0)
    quad = character(M, (M - 1) // 2)
    # the quadratic character is the Legendre symbol
    squares = {pow(x, 2, M) for x in range(1, M)}
    for n in range(1, M):
        expected = 1.0 if n in squares else -1.0
        assert abs(quad(n) - expected) < 1e-14


def test_orthogonality_by_hand():
    # sum over all characters of chi(a) conj(chi(b)) = phi(M) = M - 1 iff a = b
    M = 11
    chars = enumerate_characters(M)
    assert len(chars) == M - 1
    for a in range(1, M):
        for b in range(1, M):
            s = sum(c(a) * cmath.exp(0) * c(b).conjugate() for c in chars)
            target = M - 1 if a == b else 0.0
            assert abs(s - target) < 1e-9


def test_enumerate_selectors():
    prim = enumerate_characters(11, which="primitive")
    assert len(prim) == 9
    assert all(not c.is_principal for c in prim)
    (quad,) = enumerate_characters(11, which="quadratic")
    assert quad.is_quadratic
    with pytest.raises(ValueError):
        enumerate_characters(11, which="nonsense")
    # the modulus checks are prime_modulus's own
    with pytest.raises(NotPrime):
        enumerate_characters(15)
    with pytest.raises(ValueError):
        enumerate_characters(3)


def test_characters_compare_by_value_across_modulus_eviction():
    a = character(11, 3)
    prime_modulus.cache_clear()  # as if 256 other moduli had evicted 11
    b = character(11, 3)
    assert a == b and hash(a) == hash(b)
    assert a != character(11, 4) and a != character(13, 3)
    # the character-keyed row cache hits on an equal character
    _beta_row.cache_clear()
    _beta_row(a, 22)
    _beta_row(b, 22)
    info = _beta_row.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_index_range_validation():
    with pytest.raises(ValueError):
        character(11, 10)
    with pytest.raises(ValueError):
        character(11, -1)


def test_character_equality_and_hash():
    assert character(11, 3) == character(11, 3)
    assert character(11, 3) != character(11, 4)
    assert len({character(11, k) for k in range(10)} | {character(11, 3)}) == 10


def test_character_refuses_its_modulus_on_construction():
    with pytest.raises(NotPrime):
        DirichletCharacter(15, 1)
    with pytest.raises(ValueError, match="prime modulus > 3"):
        DirichletCharacter(3, 0)
    with pytest.raises(ValueError, match="index must lie in"):
        DirichletCharacter(11, 10)
    assert repr(DirichletCharacter(11, 3)) == "DirichletCharacter(M=11, index=3)"


@pytest.mark.parametrize("M", [100_019, 1_000_000_007])
def test_character_refuses_a_modulus_past_max_modulus_before_any_row(M):
    # 100019 is the next prime past MAX_MODULUS; no row is built or cached
    before = prime_modulus.cache_info()
    with pytest.raises(ValueError, match=f"M must be at most {MAX_MODULUS}, got {M}"):
        character(M, 1)
    after = prime_modulus.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)
