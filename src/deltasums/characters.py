"""Dirichlet characters of prime modulus.

A character is the plain value (M, index), read against the cached
discrete-log row prime_modulus(M) to the smallest primitive root g of M:

    chi_k(g**j) = e(k*j/(M-1)),   chi_k(n) = 0 when M | n,

where e(x) = exp(2*pi*i*x).  The value table of chi_k is the gather
_exp_table(M-1)[k*j mod (M-1)]: the angle is reduced mod 1 in integer
arithmetic, and _exp_table(c), the one table of e(j/c) in the package (the
exponential sums of expsums and the phases of identities read it too), is
exact at the four axis points, so the quadratic character takes values in
{-1, 0, 1} with no rounding fuzz.

Index 0 is the principal character.  It can be constructed and evaluated,
but operations that require primitivity (Gauss sums, L-values) reject it
with PrincipalCharacterNotAllowed.

A character sum sum_a chi_k(a) v[a] over a real vector v indexed by residue
is taken for every index k at once by _character_transform: one real FFT of
length M-1 of v reordered by powers of the primitive root.  _gauss_row(M)
holds the Gauss sums sum_y chi_k(y) e(y/M) of every k mod M, the transforms
of cos and sin(2 pi y/M); expsums.gauss_sum and the twist root numbers of
lfunctions both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modular import prime_modulus

__all__ = [
    "PrincipalCharacterNotAllowed",
    "DirichletCharacter",
    "character",
    "enumerate_characters",
]


class PrincipalCharacterNotAllowed(ValueError):
    """The principal character was passed where a primitive one is required."""


@lru_cache(maxsize=256)
def _exp_table(c: int) -> np.ndarray:
    """e(j/c) for j in [0, c), read-only, exact at j = 0, c/4, c/2 and 3c/4."""
    tab = np.exp(2j * np.pi * (np.arange(c) / c))
    tab[0] = 1.0
    if c % 2 == 0:
        tab[c // 2] = -1.0
    if c % 4 == 0:
        tab[c // 4] = 1.0j
        tab[3 * c // 4] = -1.0j
    tab.setflags(write=False)
    return tab


@lru_cache(maxsize=512)
def _value_table(M: int, index: int) -> np.ndarray:
    """chi(n) for n in [0, M) as a read-only complex array."""
    table = _exp_table(M - 1)[(index * prime_modulus(M)) % (M - 1)]
    table[0] = 0.0
    table.setflags(write=False)
    return table


def _character_transform(vec: np.ndarray, M: int) -> np.ndarray:
    """sum_a chi_k(a) vec[a] for every character index k mod the prime M.

    vec is real and indexed by residue in [0, M); vec[0] is never read.
    Since chi_k(g^j) = e(kj/(M-1)), the sums are the inverse DFT of
    f[j] = vec[g^j]. rfft gives R_k = sum_j f[j] e(-kj/(M-1)) for
    k <= (M-1)/2, and f is real, so the sums are conj(R_k) up to there and
    R_{M-1-k} above: a character and its conjugate get exactly conjugate
    values. Adding 0.0 clears the -0.0 that conj leaves on real bins.
    """
    powers = np.empty(M - 1, dtype=np.int64)
    powers[prime_modulus(M)[1:]] = np.arange(1, M)
    R = np.fft.rfft(np.asarray(vec, dtype=np.float64)[powers])
    half = (M - 1) // 2
    return np.concatenate((np.conj(R), R[half - 1 : 0 : -1])) + 0.0


@lru_cache(maxsize=64)
def _gauss_row(M: int) -> np.ndarray:
    """sum_y chi_k(y) e(y/M) for every index k mod the prime M, read-only: the
    character transforms of cos and sin(2 pi y/M). Entry 0, the principal
    character, is the Ramanujan sum -1."""
    angle = 2.0 * math.pi * np.arange(M) / M
    row = _character_transform(np.cos(angle), M) + 1j * _character_transform(np.sin(angle), M)
    row.setflags(write=False)
    return row


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod a prime M > 3, fixed by its index k."""

    M: int
    index: int

    def __post_init__(self):
        prime_modulus(self.M)
        if not 0 <= self.index <= self.M - 2:
            raise ValueError(f"index must lie in [0, {self.M - 2}] for modulus {self.M}")

    def __call__(self, n: int) -> complex:
        return complex(self.value_table()[n % self.M])

    def values(self, n) -> np.ndarray:
        """Vectorized chi(n) for an integer array."""
        n = np.asarray(n)
        return self.value_table()[np.mod(n, self.M)]

    def value_table(self) -> np.ndarray:
        """chi on a full residue system [0, M), cached per (M, index)."""
        return _value_table(self.M, self.index)

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.M, (self.M - 1 - self.index) % (self.M - 1))

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    @property
    def is_quadratic(self) -> bool:
        return 2 * self.index == self.M - 1


def character(M: int, index: int) -> DirichletCharacter:
    """The character mod the prime M with the given index; the same value as
    DirichletCharacter(M, index)."""
    return DirichletCharacter(M, index)


def enumerate_characters(M: int, which: str = "all") -> list[DirichletCharacter]:
    """Characters mod prime M > 3: 'all', 'primitive', or 'quadratic'.

    For prime modulus the non-principal characters are exactly the primitive
    ones, and the unique quadratic character has index (M-1)/2.
    """
    prime_modulus(M)  # refuses M even where no character would be built
    if which == "all":
        indices = range(M - 1)
    elif which == "primitive":
        indices = range(1, M - 1)
    elif which == "quadratic":
        indices = [(M - 1) // 2]
    else:
        raise ValueError(f"unknown character filter {which!r}")
    return [DirichletCharacter(M, k) for k in indices]

