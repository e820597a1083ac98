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
J = prod (1-q^m)^3 = sum_k (-1)^k (2k+1) q^{k(k+1)/2}, by three exact
truncated squarings J -> J^2 -> J^4 -> J^8 through numpy's FFT alone
(_square_exact): balanced b-bit limbs, one rfft per limb, one irfft per
diagonal of limb products, rounded and carried in int64.  b is the widest
width up to 16 whose a-priori rounding bound (Percival, Math. Comp. 72
(2003), Thm 5.1, from the limbs' norms) is at most 1/4, and a rounding
still past 1/4 raises ArithmeticError.  J^2 and J^4 stay int64; J^8 comes
back as Python ints.  ramanujan_tau_table refuses bounds past 10^6.  By
default the table is built and nothing is read or written.  Given a path,
it is read from and written to a plain text file there (header line with
the bound, then one integer per line, parsed as it streams in), written
atomically; a file that does not parse or fails exact checks (known
values, Hecke relations, the 691 congruence, Deligne's bound) is rebuilt.

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
import logging
import math
import operator
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

# the exact squaring of the tau build splits into limbs of at most this many
# bits, and takes a width only when its rounding bound is at most the limit
_LIMB_BITS = 16
_ROUNDING_LIMIT = 0.25
# outputs per block of the divisor sieve, whose uint16 counts are exact below 2^30;
# divisors d below _SIEVE_SMALL_D are sieved block by block, larger ones over the
# array: 20-25% faster than either alone at 1.5e6 and 24e6; of the thresholds
# 64 to 2048, 256 was fastest at 24e6 and level with the best at 1.5e6
_SIEVE_BLOCK = 1 << 18
_SIEVE_SMALL_D = 256
_SIEVE_LIMIT = 1 << 30

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
        for, when any n lies outside [1, bound], however large (the range is
        checked before the cast to int64). TypeError for any other dtype,
        except an empty array, which holds no n."""
        arr = np.asarray(n)
        if arr.size:
            # an integer past uint64 reaches numpy as an object array
            if arr.dtype.kind not in "iuO" or (
                arr.dtype.kind == "O"
                and not all(
                    isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in arr.flat
                )
            ):
                raise TypeError(f"lam(n) takes integer n, got dtype {arr.dtype}")
            lo, hi = arr.min(), arr.max()
            if lo < 1 or hi > self.bound:
                raise OutOfCacheRange(
                    f"lam(n) asked for n in [{lo}, {hi}], outside the "
                    f"cached range [1, {self.bound}] of kind {self.kind}"
                )
        return self.lam[arr.astype(np.int64, copy=False)].astype(np.float64, copy=False)


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


def _limbs(f: np.ndarray, b: int) -> list[np.ndarray]:
    """Balanced b-bit limbs of the int64 array f, lowest first: f is the sum
    of limbs[i] * 2^(b i), each limb in [-2^(b-1), 2^(b-1)); at least one."""
    half, mask = 1 << (b - 1), (1 << b) - 1
    limbs = []
    while True:
        limb = ((f & mask) ^ half) - half
        limbs.append(limb)
        # (f - limb) / 2^b, which a shift of f - limb could overflow
        f = (f >> b) + (limb < 0)
        if not f.any():
            return limbs


def _rounding_bound(norms: list[float], nfft: int) -> float:
    """Percival's bound (Math. Comp. 72 (2003), Thm 5.1) on the error of every
    diagonal sum_{i+j=s} L_i * L_j taken through real FFTs of length
    nfft = 2^m, for limbs L_i of Euclidean norms `norms`: the largest over s
    of sum_{i+j=s} |L_i| |L_j| ((1+e)^{3m} (1+e sqrt 5)^{3m+1} (1+beta)^{3m} - 1)
    with e = 2^-53 and beta = e, twiddle factors within e of the true roots."""
    m = nfft.bit_length() - 1
    eps = 2.0**-53
    growth = math.expm1(6 * m * math.log1p(eps) + (3 * m + 1) * math.log1p(eps * math.sqrt(5)))
    return growth * float(np.convolve(norms, norms).max())


def _square_exact(f: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of (sum f[i] q^i)^2, exactly, for an int64
    array f: int64 when every one fits int64, else Python ints in an object
    array.  f splits into balanced b-bit limbs L_i, each taking one rfft of
    length nfft, the power of two at least len(f) + n - 1 (so no product
    wraps into the first n); the square is sum_s 2^(b s) D_s over the
    diagonals D_s = sum_{i+j=s} L_i * L_j, each one irfft, rounded and
    carried into int64 chunks of whole b-bit digits as it comes.  b is the
    widest width up to _LIMB_BITS whose _rounding_bound, from the limbs'
    norms, is at most _ROUNDING_LIMIT; an entry still farther than that from
    its integer raises ArithmeticError."""
    f = np.asarray(f, dtype=np.int64)[:n]
    nfft = 1 << (len(f) + n - 2).bit_length()
    for b in range(_LIMB_BITS, 0, -1):
        limbs = _limbs(f, b)
        if _rounding_bound([math.sqrt(int(x @ x)) for x in limbs], nfft) <= _ROUNDING_LIMIT:
            break
    else:
        raise ArithmeticError(f"no limb width squares a length-{len(f)} array exactly")
    spectra = [np.fft.rfft(limb, nfft) for limb in limbs]
    del limbs
    mask, width = (1 << b) - 1, 62 // b * b
    chunks, chunk, used = [], np.zeros(n, dtype=np.int64), 0
    carry = np.zeros(n, dtype=np.int64)
    k, s = len(spectra), 0
    # past the last diagonal the carry is shifted out until it is 0 or -1
    while s < 2 * k - 1 or ((carry != 0) & (carry != -1)).any():
        if s < 2 * k - 1:
            diag = np.zeros_like(spectra[0])
            for i in range(max(0, s - k + 1), min(s, k - 1) + 1):
                diag += spectra[i] * spectra[s - i]
            exact = np.fft.irfft(diag, nfft)[:n]
            rounded = np.rint(exact)
            worst = float(np.abs(exact - rounded).max())
            if worst > _ROUNDING_LIMIT:
                raise ArithmeticError(f"FFT squaring rounded an entry {worst:.3g} from an integer")
            carry += rounded.astype(np.int64)
            del diag, exact, rounded  # freed before the next diagonal is formed
        chunk |= (carry & mask) << used
        carry >>= b
        used, s = used + b, s + 1
        if used == width:
            chunks.append(chunk)
            chunk, used = np.zeros(n, dtype=np.int64), 0
    # the top chunk takes the sign, the carry of 0 or -1; those below are unsigned
    out = chunk + (carry << used)
    # top down, in int64 while every coefficient fits it, then in Python ints
    reach = 1 << (63 - width)
    for chunk in reversed(chunks):
        if out.dtype != object and ((out < -reach) | (out >= reach)).any():
            out = out.astype(object)
        out <<= width
        out += chunk
    return out


def _tau_build(bound: int) -> list[int]:
    """tau(1..bound) = coefficients of q^0..q^{bound-1} in J^8, J the Jacobi
    cube: J^2 and J^4 by exact squarings in int64, then J^8 as Python ints."""
    k = np.arange(math.isqrt(2 * bound) + 1)
    k = k[k * (k + 1) // 2 < bound]
    power = np.zeros(bound, dtype=np.int64)
    power[k * (k + 1) // 2] = np.where(k % 2, -(2 * k + 1), 2 * k + 1)
    for _ in range(3):
        power = _square_exact(power, bound)
    return power.tolist()


def ramanujan_tau_table(bound: int, cache: str | os.PathLike | None = None) -> list[int]:
    """Exact tau(1..bound).  cache: None builds the table and touches no file;
    a path is read when it holds a valid table and written otherwise.  A
    bound that is not an integer is refused with TypeError before either."""
    bound = operator.index(bound)
    if not 1 <= bound <= DEFAULT_TAU_BOUND:
        raise ValueError(f"tau bound must lie in [1, {DEFAULT_TAU_BOUND}], got {bound}")
    if cache == "auto":
        raise ValueError('cache takes a path or None; "auto" names no default location')
    if cache is not None:
        loaded = load_tau_table(cache, bound)
        if loaded is not None:
            return loaded
    tau = _tau_build(bound)
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
    seq: CoefficientSequence, chi: DirichletCharacter, N: float, W: SmoothWindow
) -> complex:
    """sum over n of lam(n) chi(n) W(n/N)."""
    n = _support_range(N, W)
    terms = chi.values(n) * W(n / N) * seq.values(n)
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
    (the only regime used here). ValueError for s = 1, a non-finite s, or
    any a that is not finite and > 0.
    """
    if not math.isfinite(s):
        raise ValueError(f"hurwitz_zeta requires finite s, got {s!r}")
    if s == 1.0:
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    arr = np.asarray(a, dtype=np.float64)
    if not np.all((arr > 0) & np.isfinite(arr)):
        raise ValueError("hurwitz_zeta requires finite a > 0")
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

    kind "dirichlet" uses the Hurwitz oracle and takes neither coeff nor seq;
    kind "twist" the exact central values of _twist_values_all over the given
    coefficient kind (coeff "divisor", "delta" or "delta_form", else the kind
    of seq, else "divisor"): squared Hurwitz values for divisor rows, the
    X-checked approximate functional equation for delta-form rows.
    A seq given with a coeff must be of that kind. A missing seq is built to
    the AFE length of pmax for the delta form; divisor rows read no
    coefficient. Either way one per-modulus row gives every character.
    chars: "all", "quadratic", or a positive count of indices per modulus.
    Conflicting arguments are refused with ValueError before any work.
    """
    if kind not in ("dirichlet", "twist"):
        raise ValueError(f"sweep kind must be dirichlet or twist, got {kind!r}")
    if kind == "dirichlet" and coeff is not None:
        raise ValueError(f"a dirichlet sweep takes no coefficient kind, got {coeff!r}")
    if kind == "dirichlet" and seq is not None:
        raise ValueError(f"a dirichlet sweep takes no coefficient sequence, got kind {seq.kind!r}")
    coeff = "delta_form" if coeff == "delta" else coeff
    if coeff not in (None, "divisor", "delta_form"):
        raise ValueError(f"unknown coefficient kind {coeff!r}")
    if seq is not None and coeff not in (None, seq.kind):
        raise ValueError(f"coeff {coeff!r} conflicts with a sequence of kind {seq.kind!r}")
    indices = _char_indices(chars)
    if pmax > _SWEEP_LIMIT:
        raise ValueError(f"{kind} sweeps are oracle-feasible only up to M = {_SWEEP_LIMIT}")
    primes = primes_in(max(5, pmin), pmax)
    records: list[SweepRecord] = []
    if kind == "twist" and primes and seq is None:
        seq = delta_sequence(_afe_terms(pmax)) if coeff == "delta_form" else divisor_sequence(1)
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
