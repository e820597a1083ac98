"""Hecke coefficient sequences, central L-values and Burgess-ratio sweeps.

Coefficient sources:

* divisor_sequence(bound): lam(n) = tau(n), the number of divisors, by a
  sieve that counts the divisor pairs (d, n/d) with d <= n/d straight into
  the uint16 lam array, which keeps these exact counts.
* delta_sequence(bound):   lam(n) = tau_R(n) / n^{11/2}, the Hecke-normalized
  coefficients of the weight-12 discriminant form, in a float64 lam.

Every reader takes coefficients through CoefficientSequence.values, which
checks the range and returns float64 whatever lam's dtype.

The Ramanujan tau values come from the exact q-expansion of
q * prod_{m>=1} (1 - q^m)^24, the eighth power of the sparse Jacobi cube
J = prod (1-q^m)^3 = sum_k (-1)^k (2k+1) q^{k(k+1)/2}, in two stages.
Stage 1 raises J to J^4 in int64 by three sparse products, each a shifted
add per nonzero term of J (about sqrt(2n) of them), taken over blocks of the
output that stay in cache.  Before each product the guard
max|f| * sum_k |c_k| < 2^62, which bounds every partial sum, must hold, or
the build raises OverflowError rather than wrap; at n = DEFAULT_TAU_BOUND =
10^6 it stands at 0.45 of its limit.  Stage 2 squares J^4 once by
Kronecker substitution: the coefficients become d-digit slots of one decimal
integer, written a digit column at a time into a byte buffer, squared by
libmpdec's number-theoretic-transform multiply (stdlib decimal), and the low
slots are read back through numpy as 18-digit int64 chunks, with a borrow
wherever a slot's leading digit is 5 or more, before they become exact
integers.  Each truncated coefficient of the square is at most n * max^2 in
absolute value, so d = digits(2 n max^2) + 1 keeps every slot exact without
a bound on tau.  ramanujan_tau_table refuses bounds past 10^6.  By default
the table is built and nothing is read or written.  Given a path, it is read
from and written to a plain text file there (header line with the bound,
then one integer per line, parsed as it streams in), written atomically; a
file that does not parse or fails exact checks (known values, Hecke
relations, the 691 congruence, Deligne's bound) is rebuilt.

Central values:

* l_value_dirichlet(chi): the Hurwitz-zeta identity
      L(1/2, chi) = M^{-1/2} * sum_a chi(a) zeta(1/2, a/M)
  with zeta(s, a) evaluated by Euler-Maclaurin.
* l_value_twist(seq, chi): for the divisor function
  L(s, E x chi) = L(s, chi)^2, the square of the Hurwitz value; for the
  weight-12 form the approximate functional equation at conductor M^2
  (Iwaniec-Kowalski, Analytic Number Theory, Thm 5.3 and Prop 14.20) with
  weight Q(6, x) = e^{-x} sum_{j<6} x^j/j!, evaluated at two splitting
  points whose values must agree.

All of these reduce to character sums sum_a chi(a) v[a] over real vectors
indexed by residue: the Hurwitz values zeta(1/2, a/M), the residue-class
sums of an AFE half, cos and sin(2 pi a/M) for the Gauss sums.  With
chi_k(g^j) = e(kj/(M-1)) for the primitive root g, reordering v by powers
of g turns the sums for all M-1 characters into one discrete Fourier
transform of length M-1, taken as a single real FFT
(characters._character_transform).  So the Hurwitz identity and the twist
AFE are evaluated once per modulus for every character: every value is an
entry of one per-modulus row (_l_values_all, _twist_values_all).  The Gauss
sums of the twist root numbers are characters._gauss_row(M), the same row
expsums.gauss_sum reads.

Burgess sweeps record |L|/M^exponent with exponent 3/16 (Dirichlet) or 3/8
(twist), sorted by modulus, with a CSV writer matching the fixed schema.
Each modulus of a sweep takes all its rows from one per-modulus row.
"""

from __future__ import annotations

import contextlib
import decimal
import logging
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .characters import (
    DirichletCharacter,
    PrincipalCharacterNotAllowed,
    _character_transform,
    _gauss_row,
)
from .modular import primes_in, primes_up_to
from .transforms import SmoothWindow

__all__ = [
    "OutOfCacheRange",
    "DegenerateAmplifier",
    "CoefficientSequence",
    "AmplifierSpec",
    "SweepRecord",
    "divisor_sequence",
    "delta_sequence",
    "ramanujan_tau_table",
    "save_tau_table",
    "load_tau_table",
    "smoothed_sum",
    "hurwitz_zeta",
    "l_value_dirichlet",
    "l_value_twist",
    "make_amplifier",
    "burgess_sweep",
    "write_sweep_csv",
    "monotone_envelope",
    "CSV_HEADER",
]

DEFAULT_TAU_BOUND = 1_000_000

# the tau build refuses a stage-1 product whose partial sums could reach this,
# and a stage-2 squaring of a coefficient this large
_INT64_SUM_LIMIT = 1 << 62
# output coefficients per block of a stage-1 product, so each block stays in cache
_PRODUCT_BLOCK = 1 << 15
# outputs per block of the divisor sieve, whose uint16 counts are exact below 2^30;
# divisors d below _SIEVE_SMALL_D are sieved block by block, larger ones over the
# array: 20-25% faster than either alone at 1.5e6 and 24e6; of the thresholds
# 64 to 2048, 256 was fastest at 24e6 and level with the best at 1.5e6
_SIEVE_BLOCK = 1 << 18
_SIEVE_SMALL_D = 256
_SIEVE_LIMIT = 1 << 30
# decimal digits per int64 chunk when the Kronecker square's slots are read back
_CHUNK_DIGITS = 18

_log = logging.getLogger("deltasums")


class OutOfCacheRange(ValueError):
    """A coefficient beyond the sequence's cached bound was requested."""


class DegenerateAmplifier(ValueError):
    """An amplifier prime set is empty or the dyadic ranges collide."""


@dataclass(frozen=True)
class CoefficientSequence:
    """Hecke-normalized coefficients lam(1..bound); lam is a read-only array
    fixed by kind and bound, so sequences compare and hash without it.  It
    holds the exact uint16 divisor counts for kind "divisor" and float64 for
    "delta_form"; values() is the one read, always float64."""

    kind: str  # "divisor" | "delta_form"
    bound: int
    lam: np.ndarray = field(compare=False)  # lam[n] for 0 <= n <= bound, lam[0] = 0
    weight: int | None = None

    def values(self, n) -> np.ndarray:
        """lam(n) under Hecke normalization for an integer or integer array n,
        as a float64 array of n's shape; OutOfCacheRange, naming the n asked
        for, when any n lies outside [1, bound]."""
        arr = np.asarray(n, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.bound):
            raise OutOfCacheRange(
                f"lam(n) asked for n in [{arr.min()}, {arr.max()}], outside the "
                f"cached range [1, {self.bound}] of kind {self.kind}"
            )
        return self.lam[arr].astype(np.float64, copy=False)


@lru_cache(maxsize=8)
def divisor_sequence(bound: int) -> CoefficientSequence:
    """tau(n) = number of divisors, by counting divisor pairs (d, n/d) with
    d <= n/d: each d <= isqrt(bound) adds 2 at d^2, d^2 + d, ... and the
    square d^2 gives back 1.  lam is the read-only uint16 array of these
    counts, exact since tau(n) <= 2 sqrt(n) < 2^16 below 2^30; values() is
    its float64 read.  The d below _SIEVE_SMALL_D, whose slices are dense,
    add into one _SIEVE_BLOCK view of lam at a time; every larger d adds
    in one slice over the whole array."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound >= _SIEVE_LIMIT:
        raise ValueError(f"divisor counts are uint16-exact only below {_SIEVE_LIMIT}, got {bound}")
    lam = np.zeros(bound + 1, dtype=np.uint16)
    root = math.isqrt(bound)
    for lo in range(0, bound + 1, _SIEVE_BLOCK):
        block = lam[lo : lo + _SIEVE_BLOCK]
        for d in range(1, min(root + 1, _SIEVE_SMALL_D)):
            # from the first multiple of d in the block that is at least d^2
            block[max(d * d, -(-lo // d) * d) - lo :: d] += 2
    for d in range(_SIEVE_SMALL_D, root + 1):
        lam[d * d :: d] += 2
    roots = np.arange(1, root + 1)
    lam[roots * roots] -= 1
    lam.setflags(write=False)
    return CoefficientSequence("divisor", bound, lam, weight=None)


def delta_sequence(bound: int, cache: str | os.PathLike | None = None) -> CoefficientSequence:
    """Hecke-normalized coefficients tau_R(n)/n^{11/2}, a read-only float64
    lam; cache as in ramanujan_tau_table."""
    tau = ramanujan_tau_table(bound, cache=cache)
    n = np.arange(bound + 1, dtype=np.float64)
    lam = np.zeros(bound + 1, dtype=np.float64)
    # each big-int tau rounds as float(t) does: |tau| < 2^126 << float64 max
    lam[1:] = np.array(tau, dtype=np.float64) / n[1:] ** 5.5
    lam.setflags(write=False)
    return CoefficientSequence("delta_form", bound, lam, weight=12)


def save_tau_table(tau: list[int], path: str | os.PathLike) -> None:
    """Write the table: header line with the bound, then tau(n) one per line.

    A temporary file in the same directory replaces the cache in one step,
    so a reader never sees a partial file.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{len(tau)}\n" + "".join(f"{t}\n" for t in tau))
        os.replace(tmp, p)
    except BaseException:
        os.unlink(tmp)
        raise


def load_tau_table(path: str | os.PathLike, bound: int | None = None) -> list[int] | None:
    """Read tau(1..bound) from a cache file; None when the file is absent,
    too short or unparsable, or fails the checks of _tau_table_is_valid.

    The lines are parsed as they stream in, and reading stops after line
    bound; that line, like every one before it, must end with a newline.
    """
    p = Path(path)
    if not p.is_file():
        return None
    try:
        with open(p, "rb") as fh:
            stored = int(fh.readline())
            want = stored if bound is None else bound
            if stored < max(want, 1):
                return None
            tau = list(map(int, islice(fh, want)))
            fh.seek(-1, os.SEEK_CUR)
            if len(tau) < want or fh.read(1) != b"\n":
                return None
    except ValueError:
        return None
    return tau if _tau_table_is_valid(tau) else None


def _tau_table_is_valid(tau: list[int]) -> bool:
    """Exact checks on tau(1..n): the values at 1, 2, 3; at each prime p,
    tau(p) = 1 + p^11 mod 691 and tau(p)^2 <= 4 p^11; at each composite
    n = p m with p its least prime factor, the Hecke relation
    tau(n) = tau(p) tau(m) - [p | m] p^11 tau(m/p).
    """
    t = [0] + tau
    if t[1:4] != [1, -24, 252][: len(tau)]:
        return False
    spf = np.arange(len(t))
    for p in reversed(primes_up_to(math.isqrt(len(tau)))):
        spf[p * p :: p] = p
    for n, p in enumerate(spf.tolist()[2:], start=2):
        if p == n:
            p11 = p**11
            if (t[p] - 1 - p11) % 691 or t[p] * t[p] > 4 * p11:
                return False
            continue
        m = n // p
        rhs = t[p] * t[m]
        if m % p == 0:
            rhs -= p**11 * t[m // p]
        if t[n] != rhs:
            return False
    return True


def _square_truncated(f: np.ndarray) -> list[int]:
    """The first n = len(f) coefficients of (sum f[i] q^i)^2, exactly, for an
    int64 array f with max|f| < 2^62.

    Kronecker substitution in base B = 10^d: P = sum f[i] B^i is written out
    as one decimal integer and squared once.  Each truncated coefficient of
    the square is a sum of at most n products, so its absolute value is at
    most n * max|f|^2, and d = digits(2 n max^2) + 1 keeps it inside
    (-B/20, B/20).  In base B, with b_i = 1 when slot i borrows B from
    slot i+1 (b_{-1} = 0), slot i holds its coefficient - b_{i-1} + B b_i.
    For P, b_i = 1 exactly when the last nonzero f[j], j <= i, is negative;
    such a slot is B - x with x = b_{i-1} - f[i] >= 1, written as the nines'
    complement of x - 1.  The digit string is P mod B^n, all the low n slots
    of the square depend on.  There b_i = 1 exactly when slot i is at least
    B/2, that is when its leading digit is 5 or more.
    """
    n = len(f)
    top = max(int(f.max(initial=0)), -int(f.min(initial=0)))
    if top >= _INT64_SUM_LIMIT:
        raise OverflowError("the Kronecker squaring takes coefficients below 2^62")
    digits = len(str(2 * n * top * top)) + 1
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)

    borrow = f[np.maximum.accumulate(np.where(f != 0, np.arange(n), 0))] < 0
    v = f.copy()
    v[1:] -= borrow[:-1]
    v[borrow] = -1 - v[borrow]
    # one uint8 row of d decimal digits per slot, most significant slot first
    slots = np.zeros((n, digits), dtype=np.uint8)
    v = v[::-1]
    for col in range(digits - 1, digits - 1 - len(str(top)), -1):
        v, slots[:, col] = np.divmod(v, 10)
    slots[borrow[::-1]] = 9 - slots[borrow[::-1]]
    slots += ord("0")
    packed = decimal.Decimal(str(slots.data, "ascii"))

    # a shift by 0 at precision n d keeps the last n d digits: the low n slots
    low_slots = decimal.Context(prec=n * digits, Emax=decimal.MAX_EMAX)
    text = str(low_slots.shift(ctx.multiply(packed, packed), 0)).zfill(n * digits).encode("ascii")
    slots = (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(n, digits)[::-1]
    borrow = slots[:, 0] >= 5
    # each slot as int64 chunks of 18 digits, the lowest chunk first; the top
    # chunk (d mod 18 digits, maybe none) also takes the slot's own borrow,
    # -B, and the lowest the borrow the slot below took from it
    chunks = []
    for end in range(digits, -1, -_CHUNK_DIGITS):
        chunk = np.zeros(n, dtype=np.int64)
        for col in range(max(end - _CHUNK_DIGITS, 0), end):
            chunk *= 10
            chunk += slots[:, col]
        chunks.append(chunk)
    chunks[0][1:] += borrow[:-1]
    chunks[-1] -= borrow * 10 ** (digits % _CHUNK_DIGITS)
    del text, slots  # the digit buffers go before the exact integers are built
    out = chunks.pop().astype(object)
    for chunk in reversed(chunks):
        out *= 10**_CHUNK_DIGITS
        out += chunk
    return out.tolist()


def _sparse_product(f: np.ndarray, shifts: list[int], coeffs: list[int]) -> np.ndarray:
    """The first len(f) coefficients of f * sum coeffs[i] q^shifts[i] in int64,
    shifts ascending.  Raises OverflowError unless max|f| * sum|coeffs| is
    below _INT64_SUM_LIMIT, which bounds every partial sum."""
    if int(np.abs(f).max()) * sum(map(abs, coeffs)) >= _INT64_SUM_LIMIT:
        raise OverflowError("a sparse product of the tau build could overflow int64")
    n = len(f)
    out = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _PRODUCT_BLOCK):
        hi = min(lo + _PRODUCT_BLOCK, n)
        for t, c in zip(shifts, coeffs):
            if t >= hi:
                break
            s = max(lo, t)
            out[s:hi] += c * f[s - t : hi - t]
    return out


def _tau_kronecker(bound: int) -> list[int]:
    """tau(1..bound) = coefficients of q^0..q^{bound-1} in J^8, J the Jacobi
    cube: J^4 by three int64 sparse products, then one Kronecker squaring."""
    k = np.arange(math.isqrt(2 * bound) + 1)
    k = k[k * (k + 1) // 2 < bound]
    shifts = (k * (k + 1) // 2).tolist()
    coeffs = np.where(k % 2, -(2 * k + 1), 2 * k + 1).tolist()
    power = np.zeros(bound, dtype=np.int64)
    power[shifts] = coeffs
    for _ in range(3):
        power = _sparse_product(power, shifts, coeffs)
    return _square_truncated(power)


def ramanujan_tau_table(bound: int, cache: str | os.PathLike | None = None) -> list[int]:
    """Exact tau(1..bound).  cache: None builds the table and touches no file;
    a path is read when it holds a valid table and written otherwise."""
    if not 1 <= bound <= DEFAULT_TAU_BOUND:
        raise ValueError(f"tau bound must lie in [1, {DEFAULT_TAU_BOUND}], got {bound}")
    if cache == "auto":
        raise ValueError('cache takes a path or None; "auto" names no default location')
    if cache is not None:
        loaded = load_tau_table(cache, bound)
        if loaded is not None:
            return loaded
    tau = _tau_kronecker(bound)
    if cache is not None:
        try:
            save_tau_table(tau, cache)
        except OSError as exc:
            _log.warning("tau cache %s not written (%s); it is rebuilt next time", cache, exc)
    return tau


def _support_range(N: float, window: SmoothWindow) -> np.ndarray:
    """The n >= 1 from floor(N lo) to ceil(N hi), [lo, hi] the window's support:
    every n where W(n/N) can be non-zero."""
    lo, hi = window.support
    return np.arange(max(1, math.floor(N * lo)), math.ceil(N * hi) + 1, dtype=np.int64)


def smoothed_sum(
    seq: CoefficientSequence | None,
    chi: DirichletCharacter,
    N: float,
    W: SmoothWindow,
) -> complex:
    """sum over n of lam(n) chi(n) W(n/N); lam = 1 when seq is None."""
    n = _support_range(N, W)
    terms = chi.values(n) * W(n / N)
    if seq is not None:
        terms = terms * seq.values(n)
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


# Hurwitz terms summed directly, then B_2 .. B_16 for the Euler-Maclaurin tail
_HURWITZ_PRESUM = 16
_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
)


def hurwitz_zeta(s: float, a):
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s} by Euler-Maclaurin, vectorized in a.

    With _HURWITZ_PRESUM direct terms and the eight Bernoulli corrections of
    _BERNOULLI the remainder is below 1e-12 for 0 < a <= 1 and moderate s
    (the only regime used here).
    """
    if s == 1.0:
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    arr = np.asarray(a, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("hurwitz_zeta requires a > 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    acc = ((arr[:, None] + np.arange(_HURWITZ_PRESUM)[None, :]) ** (-s)).sum(axis=1)
    w = arr + _HURWITZ_PRESUM
    acc += w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
    rising = s  # s(s+1)...(s+2j-2), starting at j = 1
    for j, bern in enumerate(_BERNOULLI, start=1):
        coef = bern / math.factorial(2 * j)
        acc += coef * rising * w ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return float(acc[0]) if scalar else acc


@lru_cache(maxsize=64)
def _l_values_all(M: int) -> np.ndarray:
    """L(1/2, chi_k) mod M for every index k by the Hurwitz identity."""
    zeta = np.zeros(M)
    zeta[1:] = hurwitz_zeta(0.5, np.arange(1, M) / M)
    vals = _character_transform(zeta, M) / math.sqrt(M)
    vals.setflags(write=False)
    return vals


# The twist AFE weight Q(6, x) is cut where x = 2 pi n/(M X) passes 50,
# Q(6, 50) = 5.6e-16; the value is formed at both splitting points X and
# must agree to _AFE_TOL (1 + |L|).
_AFE_CUT = 50.0
_AFE_X = (1.0, 1.25)
_AFE_TOL = 1e-10


def _afe_weight(x: np.ndarray) -> np.ndarray:
    """Q(6, x) = Gamma(6, x)/Gamma(6) = e^{-x} sum_{j<6} x^j/j!, in Horner form."""
    return np.exp(-x) * (1.0 + x * (1.0 + x / 2 * (1.0 + x / 3 * (1.0 + x / 4 * (1.0 + x / 5)))))


def _afe_terms(M: int) -> int:
    """Coefficients the delta-form twist AFE mod M reads: about 10 M."""
    return math.floor(_AFE_CUT * max(_AFE_X) * M / (2.0 * math.pi))


def _twist_values_all(seq: CoefficientSequence, M: int) -> np.ndarray:
    """L(1/2, g x chi_k) for every index k mod the prime M (index 0 is not a
    primitive twist and is never read).

    Divisor kind: L(s, E x chi) = L(s, chi)^2, the squared Hurwitz row; no
    coefficient is read. Delta form: the approximate functional equation at
    conductor M^2 with root number eps = tau(chi)^2 / M,
        L = sum lam(n) chi(n) n^{-1/2} Q(6, 2 pi n/(M X))
            + eps sum lam(n) conj(chi(n)) n^{-1/2} Q(6, 2 pi n X/M),
    each half one residue-class vector through _character_transform, the
    Gauss sums tau(chi) read from _gauss_row(M). The value does not depend
    on X; it is formed at both _AFE_X points, and a gap above
    _AFE_TOL (1 + |L|) raises ArithmeticError.
    """
    if seq.kind == "divisor":
        return _l_values_all(M) ** 2
    if seq.kind != "delta_form":
        raise ValueError(f"no twist central values for coefficient kind {seq.kind!r}")
    k = np.arange(1, _afe_terms(M) + 1)
    n = k.astype(np.float64)
    w = seq.values(k) / np.sqrt(n)
    res = k % M
    gauss = _gauss_row(M)
    eps = gauss * gauss / M

    def at(X: float) -> np.ndarray:
        first = np.bincount(res, weights=w * _afe_weight(2.0 * math.pi * n / (M * X)), minlength=M)
        second = np.bincount(res, weights=w * _afe_weight(2.0 * math.pi * n * X / M), minlength=M)
        return _character_transform(first, M) + eps * np.conj(_character_transform(second, M))

    row, other = (at(X) for X in _AFE_X)
    bad = np.abs(row - other)[1:] > _AFE_TOL * (1.0 + np.abs(row[1:]))
    if bad.any():
        k = 1 + int(np.argmax(bad))
        raise ArithmeticError(
            f"twist AFE mod {M} depends on its splitting point: gap "
            f"{abs(row[k] - other[k]):.3g} at character {k}"
        )
    return row


def l_value_dirichlet(chi: DirichletCharacter) -> complex:
    """L(1/2, chi) for primitive chi, chi's entry of the Hurwitz row _l_values_all."""
    if chi.is_principal:
        raise PrincipalCharacterNotAllowed("central values require a primitive character")
    return complex(_l_values_all(chi.M)[chi.index])


def l_value_twist(seq: CoefficientSequence, chi: DirichletCharacter) -> complex:
    """L(1/2, g x chi) for primitive chi mod a prime M, chi's entry of
    _twist_values_all: L(1/2, chi)^2 for the divisor kind and the
    approximate functional equation, checked at two splitting points, for
    the delta form (which reads coefficients to about 10 M)."""
    if chi.is_principal:
        raise PrincipalCharacterNotAllowed("central values require a primitive character")
    return complex(_twist_values_all(seq, chi.M)[chi.index])


@dataclass(frozen=True)
class AmplifierSpec:
    """Dyadic amplifier data: prime sets with their L* and P* weights."""

    L: float
    P: float
    ells: tuple[int, ...]
    ps: tuple[int, ...]
    lstar: float
    pstar: int


def make_amplifier(
    seq: CoefficientSequence, L: float, P: float, exclude: int | None = None
) -> AmplifierSpec:
    """Prime sets in [L, 2L] and [P, 2P]; the modulus may be excluded.

    Raises DegenerateAmplifier when either set comes out empty or the two
    dyadic ranges collide, and OutOfCacheRange when seq does not reach the
    largest amplifier prime, whose lam(ell) the weight L* reads.
    """
    ells = tuple(p for p in primes_in(L, 2 * L) if p != exclude)
    # disjointness of the two prime sets is part of the contract; when the
    # dyadic blocks overlap at desk scale the collision drops out of the
    # detection set, never the amplifier set
    ps = tuple(p for p in primes_in(P, 2 * P) if p != exclude and p not in set(ells))
    if not ells or not ps:
        raise DegenerateAmplifier(f"no primes available in [{L},{2*L}] or [{P},{2*P}]")
    lstar = math.fsum(lam**2 for lam in seq.values(ells).tolist())
    if lstar <= 0:
        raise DegenerateAmplifier("L* vanished; amplifier weights are all zero")
    return AmplifierSpec(L, P, ells, ps, lstar, len(ps))


class SweepRecord(NamedTuple):
    """One Burgess-ratio row: modulus, character, L-value and normalized size."""

    M: int
    char_index: int
    kind: str
    l_value: complex
    exponent: float
    ratio: float

    def csv_line(self) -> str:
        v = self.l_value
        return _CSV_LINE % (
            self.M, self.char_index, self.kind, v.real, v.imag, abs(v), self.exponent, self.ratio
        )


# %.15g and format(x, ".15g") both print through PyOS_double_to_string
_CSV_LINE = "%d,%d,%s,%.15g,%.15g,%.15g,%.15g,%.15g"
CSV_HEADER = "M,char_index,kind,re_L,im_L,abs_L,exponent,ratio"

_DIRICHLET_EXPONENT = 3.0 / 16.0
_TWIST_EXPONENT = 3.0 / 8.0
_SWEEP_LIMIT = 10_000


def _char_indices(chars):
    """The map from a modulus M to the character indices chars selects."""
    if chars == "all":
        return lambda M: range(1, M - 1)
    if chars == "quadratic":
        return lambda M: [(M - 1) // 2]
    try:
        count = int(chars)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ValueError(f"chars must be all, quadratic or a positive integer, got {chars!r}")
    return lambda M: range(1, min(count, M - 2) + 1)


def burgess_sweep(
    kind: str,
    pmin: int,
    pmax: int,
    chars="all",
    coeff: str | None = None,
    seq: CoefficientSequence | None = None,
) -> list[SweepRecord]:
    """Burgess-ratio records over primes in [pmin, pmax <= 10^4], sorted by
    (M, index).

    kind "dirichlet" uses the Hurwitz oracle and takes no coeff; kind "twist"
    the exact central values of _twist_values_all over the given coefficient
    kind (coeff "divisor", the default, "delta" or "delta_form"): squared
    Hurwitz values for divisor rows, the X-checked approximate functional
    equation for delta-form rows.
    A missing seq is built to the AFE length of pmax for the delta form;
    divisor rows read no coefficient. Either way one per-modulus row gives
    every character. chars: "all", "quadratic", or a positive count of
    indices per modulus.
    """
    if kind not in ("dirichlet", "twist"):
        raise ValueError(f"sweep kind must be dirichlet or twist, got {kind!r}")
    if kind == "dirichlet" and coeff is not None:
        raise ValueError(f"a dirichlet sweep takes no coefficient kind, got {coeff!r}")
    coeff = "divisor" if coeff is None else coeff
    if coeff not in ("divisor", "delta", "delta_form"):
        raise ValueError(f"unknown coefficient kind {coeff!r}")
    indices = _char_indices(chars)
    if pmax > _SWEEP_LIMIT:
        raise ValueError(f"{kind} sweeps are oracle-feasible only up to M = {_SWEEP_LIMIT}")
    primes = primes_in(max(5, pmin), pmax)
    records: list[SweepRecord] = []
    if kind == "twist" and primes and seq is None:
        seq = divisor_sequence(1) if coeff == "divisor" else delta_sequence(_afe_terms(pmax))
    for M in primes:
        if kind == "dirichlet":
            exponent, rec_kind, row = _DIRICHLET_EXPONENT, "dirichlet", _l_values_all(M)
        else:
            exponent, rec_kind, row = _TWIST_EXPONENT, seq.kind, _twist_values_all(seq, M)
        ks = indices(M)
        scale = M**exponent
        records += [
            SweepRecord(M, k, rec_kind, val, exponent, abs(val) / scale)
            for k, val in zip(ks, row[ks].tolist())
        ]
    return records


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    """CSV with '.' decimals, 15 significant digits, newline line endings,
    written line by line to a file object or a path."""
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "w") as out:
        out.write(CSV_HEADER + "\n")
        out.writelines(r.csv_line() + "\n" for r in records)


def monotone_envelope(records: list[SweepRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct modulus M (ascending), max ratio over all records with M' <= M."""
    by_m: dict[int, float] = {}
    for r in records:
        by_m[r.M] = max(by_m.get(r.M, 0.0), r.ratio)
    ms = np.array(sorted(by_m), dtype=np.int64)
    env = np.maximum.accumulate(np.array([by_m[m] for m in ms]))
    return ms, env
