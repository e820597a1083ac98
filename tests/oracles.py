"""Independent oracles for the tests: stdlib number theory, and acceptance
criterion 9's central values from a smoothly truncated series.

The number-theory helpers are brute loops on Python integers (trial
division, gcd counts).  They share nothing with deltasums.modular's sieves
and tables, which several tests check against them.

For criterion 9: the library computes L(1/2, chi) from the Hurwitz identity and
L(1/2, g x chi) exactly (the squared Hurwitz value for the divisor
function, the two-point approximate functional equation for the weight-12
form).  This module sums the Dirichlet series itself instead,

    sum_n lam(n) chi(n) n^{-1/2} cutoff(n/X)    (lam = 1 for L(1/2, chi)),

doubling the cutoff length X until each character's value stops moving.
It shares no arithmetic with the Hurwitz or AFE rows apart from the
all-character transform, so an error in either shows up as a deviation
here.  It stays outside the package because no library path, CLI command,
demo or benchmark reads it; it exists only to check them.

A row is computed afresh on every call, and nothing here holds a sequence
after the call returns, so a large sieve is freed as soon as its caller and
divisor_sequence's own cache let go of it.  Take one row per modulus and
read every character's entry from it.
"""

from __future__ import annotations

import math

import numpy as np

from deltasums.characters import DirichletCharacter, _character_transform
from deltasums.lfunctions import CoefficientSequence, OutOfCacheRange

# integers per chunk of a class vector, so peak memory stays flat
CLASS_VECTOR_CHUNK = 2_000_000
# doublings of the cutoff length smoothed_row tries before it gives up
MAX_DOUBLINGS = 16


def is_prime(n: int) -> bool:
    """Trial division by every d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_below(n: int) -> list[int]:
    """The primes p < n, ascending, by trial division."""
    return [p for p in range(2, n) if is_prime(p)]


def divisors_of(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending, by trial division."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def divisor_count(n: int) -> int:
    return len(divisors_of(n))


def mobius(n: int) -> int:
    """mu(n) for n >= 1: 0 if a square divides n, else (-1)^(number of primes)."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def totient(n: int) -> int:
    """The residues x mod n >= 1 with gcd(x, n) = 1, counted."""
    return sum(1 for x in range(n) if math.gcd(x, n) == 1)


def discrete_logs(M: int, g: int) -> list[int]:
    """Entry n holds the j in [0, M-1) with g^j = n (mod M), entry 0 holds -1,
    from the powers x = x*g % M one at a time; g must generate (Z/M)^*."""
    dlog, x = [-1] * M, 1
    for j in range(M - 1):
        dlog[x] = j
        x = x * g % M
    return dlog


def smooth_cutoff(t: np.ndarray) -> np.ndarray:
    """C-infinity cutoff: 1 on [0,1], descending to 0 at 2, 0 beyond; t
    ascending and nonnegative, so the descent is one slice."""
    out = np.zeros_like(t)
    lo = np.searchsorted(t, 1.0 + 1e-12, side="right")
    hi = np.searchsorted(t, 2.0 - 1e-12, side="left")
    out[:lo] = 1.0
    s = 2.0 - t[lo:hi]  # in (0, 1): 0 at the far edge, 1 at the plateau
    f = np.exp(-1.0 / s)
    g = np.exp(-1.0 / (1.0 - s))
    out[lo:hi] = f / (f + g)
    return out


def class_vector(seq: CoefficientSequence | None, M: int, X: float) -> np.ndarray:
    """Residue-class sums T[a] = sum over n = a mod M of lam(n) n^{-1/2} f(n/X).

    The character enters only through _character_transform, so one vector
    serves every character of the modulus. Fixed chunking keeps reruns
    byte-identical.
    """
    hi = math.floor(2.0 * X)
    if seq is not None and hi > seq.bound:
        raise OutOfCacheRange(f"requested n outside [1, {seq.bound}] for kind {seq.kind}")
    acc = np.zeros(M)
    for lo in range(1, hi + 1, CLASS_VECTOR_CHUNK):
        end = min(lo + CLASS_VECTOR_CHUNK, hi + 1)
        n = np.arange(lo, end, dtype=np.int64)
        w = smooth_cutoff(n / X) / np.sqrt(n.astype(np.float64))
        if seq is not None:
            w = w * seq.lam[lo:end]
        acc += np.bincount(n % M, weights=w, minlength=M)
    return acc


def smoothed_row(seq: CoefficientSequence | None, M: int) -> tuple:
    """sum lam(n) chi_k(n) n^{-1/2} cutoff(n/X) for every index k mod the prime
    M (lam = 1 when seq is None), doubling X from X0 until each is stable.

    X0 = 50 sqrt(M) log M and tol = 1e-8 without seq, 50 M log M and 1e-5
    with it. Each doubling is one class vector and one _character_transform.
    A character keeps its value from its first step with two consecutive
    gaps under tol: one near-coincidence of partials can occur while the
    value still drifts, flatness across a 4x span of lengths cannot. Open
    characters read NaN; the second item is the (exception type, message)
    they raise: OutOfCacheRange at the cache edge, ArithmeticError after
    MAX_DOUBLINGS doublings. A cache too short for the first step raises
    OutOfCacheRange at once.
    """
    if seq is None:
        X0, tol = 50.0 * math.sqrt(M) * math.log(M), 1e-8
    else:
        X0, tol = 50.0 * M * math.log(M), 1e-5
        if 2.0 * 2.0 * X0 > seq.bound:
            raise OutOfCacheRange(
                f"twist series needs coefficients up to {4.0 * X0:.0f} > bound {seq.bound}"
            )
    X = X0
    prev = _character_transform(class_vector(seq, M, X), M)
    vals = np.full(M - 1, np.nan, dtype=complex)
    vals[0] = 0.0  # the principal series diverges and is never read
    small = np.zeros(M - 1, dtype=np.int64)
    for _ in range(MAX_DOUBLINGS):
        if seq is not None and math.floor(4.0 * X) > seq.bound:
            failure = (
                OutOfCacheRange,
                f"smoothed series mod {M} still moving at the cache edge; "
                f"a gap below {tol:g} needs coefficients past "
                f"{math.floor(4.0 * X)} > bound {seq.bound}",
            )
            break
        cur = _character_transform(class_vector(seq, M, 2.0 * X), M)
        small = np.where(np.abs(cur - prev) < tol, small + 1, 0)
        done = np.isnan(vals) & (small == 2)
        vals[done] = cur[done]
        if not np.isnan(vals).any():
            failure = None
            break
        prev, X = cur, 2.0 * X
    else:
        failure = (
            ArithmeticError,
            f"smoothed central series did not stabilize below {tol} within "
            f"{MAX_DOUBLINGS} doublings of X0 = {X0:.3g}",
        )
    vals.setflags(write=False)
    return vals, failure


def smoothed_value(row: tuple, chi: DirichletCharacter) -> complex:
    """chi's entry of a smoothed_row of its modulus, or the row's failure."""
    vals, failure = row
    if np.isnan(vals[chi.index]):
        raise failure[0](failure[1])
    return complex(vals[chi.index])
