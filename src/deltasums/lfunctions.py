"""Hecke coefficient sequences, central L-values and Burgess-ratio sweeps.

Coefficient sources:

* divisor_sequence(bound): lam(n) = tau(n), the number of divisors.
* delta_sequence(bound):   lam(n) = tau_R(n) / n^{11/2}, the Hecke-normalized
  coefficients of the weight-12 discriminant form.

The Ramanujan tau values come from the exact q-expansion of
q * prod_{m>=1} (1 - q^m)^24.  The product is the eighth power of the sparse
Jacobi cube prod (1-q^m)^3 = sum_k (-1)^k (2k+1) q^{k(k+1)/2}, raised by three
truncated squarings.  Each squaring writes the coefficients as 40-digit slots
of one decimal integer (Kronecker substitution), squares it with libmpdec's
number-theoretic-transform multiply (stdlib decimal), and decodes the low
slots with a borrow into exact integers.  |tau(n)| <= d(n) n^{11/2} < 10^36
keeps every slot exact for n up to DEFAULT_TAU_BOUND = 10^6, past which
ramanujan_tau_table refuses.  The table persists to a plain text cache
(header line with the bound, then one integer per line), written atomically,
at a location the DELTA_SUMS_CACHE environment variable overrides; a cache
that does not parse or fails exact checks (known values, Hecke relations,
the 691 congruence, Deligne's bound) is rebuilt.

Central values:

* l_value_dirichlet(chi): either the Hurwitz-zeta identity
      L(1/2, chi) = M^{-1/2} * sum_a chi(a) zeta(1/2, a/M)
  with zeta(s, a) evaluated by Euler-Maclaurin, or a smoothly truncated
  series of effective length >= 50 sqrt(M) log M whose truncation scale is
  doubled until two evaluations agree.
* l_value_twist(seq, chi): smoothly truncated series of effective length
  >= 50 M log M; for the divisor function the value equals L(1/2, chi)^2.

Both reduce to a character sum sum_a chi(a) v[a] over a real vector indexed
by residue: the Hurwitz values zeta(1/2, a/M), or the residue-class sums of
the truncated series.  With chi_k(g^j) = e(kj/(M-1)) for the primitive root
g, reordering v by powers of g turns the sums for all M-1 characters into
one discrete Fourier transform of length M-1, taken as a single real FFT
(_character_transform).  So the Hurwitz identity is evaluated once per
modulus for every character (_l_values_all), and each step of a smoothed
series costs one FFT of its class vector.

Burgess sweeps record |L|/M^exponent with exponent 3/16 (Dirichlet) or 3/8
(twist), sorted by modulus, with a CSV writer matching the fixed schema.
Each modulus of a sweep costs one character transform for all its rows.
"""

from __future__ import annotations

import decimal
import math
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .characters import DirichletCharacter, PrincipalCharacterNotAllowed, character
from .modular import prime_modulus, primes_in, primes_up_to
from .transforms import SmoothWindow, bump_window

__all__ = [
    "OutOfCacheRange",
    "DegenerateAmplifier",
    "CoefficientSequence",
    "AmplifierSpec",
    "LstarReport",
    "RankinReport",
    "SweepRecord",
    "divisor_sequence",
    "delta_sequence",
    "ramanujan_tau_table",
    "save_tau_table",
    "load_tau_table",
    "default_cache_path",
    "coeff_eval",
    "hecke_relation_check",
    "smoothed_sum",
    "hurwitz_zeta",
    "l_value_dirichlet",
    "l_value_twist",
    "make_amplifier",
    "amplifier_lstar",
    "rankin_selberg_average",
    "burgess_sweep",
    "write_sweep_csv",
    "monotone_envelope",
    "CSV_HEADER",
    "afe_supremum_probe",
    "AfeProbe",
]

DEFAULT_TAU_BOUND = 1_000_000

_TERM_DIGITS = 40  # decimal digits per Kronecker slot
_TERM_BASE = 10**_TERM_DIGITS


class OutOfCacheRange(ValueError):
    """A coefficient beyond the sequence's cached bound was requested."""


class DegenerateAmplifier(ValueError):
    """An amplifier prime set is empty or the dyadic ranges collide."""


@dataclass(frozen=True)
class CoefficientSequence:
    """Hecke-normalized coefficients lam(1..bound); lam is a read-only array."""

    kind: str  # "divisor" | "delta_form"
    bound: int
    lam: np.ndarray  # lam[n] for 0 <= n <= bound, lam[0] = 0
    weight: int | None = None

    def __call__(self, n: int) -> float:
        return coeff_eval(self, n)

    def values(self, n_array) -> np.ndarray:
        arr = np.asarray(n_array, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.bound):
            raise OutOfCacheRange(
                f"requested n outside [1, {self.bound}] for kind {self.kind}"
            )
        return self.lam[arr]


def coeff_eval(seq: CoefficientSequence, n: int) -> float:
    """lam(n) under Hecke normalization."""
    if n < 1 or n > seq.bound:
        raise OutOfCacheRange(f"n = {n} outside cached range [1, {seq.bound}]")
    return float(seq.lam[n])


@lru_cache(maxsize=8)
def divisor_sequence(bound: int) -> CoefficientSequence:
    """tau(n) = number of divisors, by a sieve over d <= s = isqrt(bound) that
    counts d and, on the second slice, each cofactor n/d > s."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    lam = np.zeros(bound + 1, dtype=np.float64)
    s = math.isqrt(bound)
    for d in range(1, s + 1):
        lam[d::d] += 1.0
        lam[d * (s + 1) :: d] += 1.0
    lam.setflags(write=False)
    return CoefficientSequence("divisor", bound, lam, weight=None)


def delta_sequence(bound: int, cache: str | os.PathLike | None = "auto") -> CoefficientSequence:
    """Hecke-normalized discriminant-form coefficients tau_R(n)/n^{11/2}."""
    tau = ramanujan_tau_table(bound, cache=cache)
    n = np.arange(bound + 1, dtype=np.float64)
    lam = np.zeros(bound + 1, dtype=np.float64)
    # big-int tau values convert exactly enough: |tau| < 2^126 << float64 max
    lam[1:] = np.array([float(t) for t in tau], dtype=np.float64) / n[1:] ** 5.5
    lam.setflags(write=False)
    return CoefficientSequence("delta_form", bound, lam, weight=12)


def default_cache_path() -> Path:
    env = os.environ.get("DELTA_SUMS_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "delta-sums" / "tau_table.txt"


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
    too short or unparsable, or fails the checks of _tau_table_is_valid."""
    p = Path(path)
    if not p.is_file():
        return None
    with open(p) as fh:
        try:
            stored = int(fh.readline())
            want = stored if bound is None else bound
            if stored < max(want, 1):
                return None
            tau = []
            for _ in range(want):
                line = fh.readline()
                if not line.endswith("\n"):
                    return None
                tau.append(int(line))
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


def _square_truncated(coeffs: list[int]) -> list[int]:
    """The first len(coeffs) coefficients of (sum coeffs[i] q^i)^2, exactly.

    Kronecker substitution in base B = 10^40: the coefficients are packed
    as a positive and a negative decimal integer, and their difference is
    squared once.  Slot i of the (nonnegative) square holds coefficient i
    less a borrow from slot i-1; each coefficient must lie in (-B/2, B/2).
    """
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    zero = "0" * _TERM_DIGITS

    def pack(sign: int) -> decimal.Decimal:
        slots = [str(sign * c).zfill(_TERM_DIGITS) if sign * c > 0 else zero for c in coeffs]
        return decimal.Decimal("".join(reversed(slots)))

    packed = ctx.subtract(pack(1), pack(-1))
    width = _TERM_DIGITS * len(coeffs)
    digits = str(ctx.multiply(packed, packed))[-width:].zfill(width)
    out, borrow = [], 0
    for end in range(width, 0, -_TERM_DIGITS):
        c = int(digits[end - _TERM_DIGITS : end]) + borrow
        borrow = 2 * c >= _TERM_BASE
        out.append(c - _TERM_BASE if borrow else c)
    return out


def _tau_kronecker(bound: int) -> list[int]:
    """tau(1..bound) = coefficients of q^0..q^{bound-1} in (Jacobi cube)^8."""
    coeffs = [0] * bound
    k = 0
    while k * (k + 1) // 2 < bound:
        coeffs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        coeffs = _square_truncated(coeffs)
    return coeffs


def ramanujan_tau_table(bound: int, cache: str | os.PathLike | None = "auto") -> list[int]:
    """Exact tau(1..bound).  cache: "auto" for the default path, None to skip IO."""
    if not 1 <= bound <= DEFAULT_TAU_BOUND:
        raise ValueError(f"tau bound must lie in [1, {DEFAULT_TAU_BOUND}], got {bound}")
    path = default_cache_path() if cache == "auto" else cache
    if path is not None:
        loaded = load_tau_table(path, bound)
        if loaded is not None:
            return loaded
    tau = _tau_kronecker(bound)
    if path is not None:
        try:
            save_tau_table(tau, path)
        except OSError:
            pass  # cache directory not writable; recompute next time
    return tau


def hecke_relation_check(seq: CoefficientSequence, r: int, ell: int, tol: float = 1e-10) -> bool:
    """lam(r*ell) = lam(r)lam(ell) - [ell | r] lam(r/ell), within tol."""
    lhs = coeff_eval(seq, r * ell)
    rhs = coeff_eval(seq, r) * coeff_eval(seq, ell)
    if r % ell == 0:
        rhs -= coeff_eval(seq, r // ell)
    return abs(lhs - rhs) < tol


def smoothed_sum(
    seq: CoefficientSequence | None,
    chi: DirichletCharacter,
    N: float,
    W: SmoothWindow,
) -> complex:
    """sum over n of lam(n) chi(n) W(n/N); lam = 1 when seq is None."""
    lo, hi = W.support
    n_lo = max(1, math.floor(lo * N))
    n_hi = math.floor(hi * N) + 1
    if n_hi < n_lo:
        return 0.0 + 0.0j
    if seq is not None and n_hi > seq.bound:
        raise OutOfCacheRange(f"window support reaches n = {n_hi} > bound {seq.bound}")
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    terms = chi.values(n) * W(n / N)
    if seq is not None:
        terms = terms * seq.values(n)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


# Bernoulli numbers B_2 .. B_16 for the Euler-Maclaurin tail
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


def hurwitz_zeta(s: float, a, presum: int = 16, terms: int = 8):
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s} by Euler-Maclaurin, vectorized in a.

    With presum 16 and 8 Bernoulli correction terms the remainder is below
    1e-12 for 0 < a <= 1 and moderate s (the only regime used here).
    """
    if s == 1.0:
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    arr = np.asarray(a, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("hurwitz_zeta requires a > 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    acc = ((arr[:, None] + np.arange(presum)[None, :]) ** (-s)).sum(axis=1)
    w = arr + presum
    acc += w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
    rising = s  # s(s+1)...(s+2j-2), starting at j = 1
    for j in range(1, terms + 1):
        coef = _BERNOULLI[j - 1] / math.factorial(2 * j)
        acc += coef * rising * w ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return float(acc[0]) if scalar else acc


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
    powers[prime_modulus(M).dlog[1:]] = np.arange(1, M)
    R = np.fft.rfft(np.asarray(vec, dtype=np.float64)[powers])
    half = (M - 1) // 2
    return np.concatenate((np.conj(R), R[half - 1 : 0 : -1])) + 0.0


@lru_cache(maxsize=64)
def _l_values_all(M: int) -> np.ndarray:
    """L(1/2, chi_k) mod M for every index k by the Hurwitz identity."""
    zeta = np.zeros(M)
    zeta[1:] = hurwitz_zeta(0.5, np.arange(1, M) / M)
    vals = _character_transform(zeta, M) / math.sqrt(M)
    vals.setflags(write=False)
    return vals


def _smooth_cutoff(t: np.ndarray) -> np.ndarray:
    """C-infinity cutoff: 1 on [0,1], descending to 0 at 2, 0 beyond."""
    out = np.zeros_like(t)
    out[t <= 1.0 + 1e-12] = 1.0
    mid = (t > 1.0 + 1e-12) & (t < 2.0 - 1e-12)
    if mid.any():
        s = 2.0 - t[mid]  # in (0, 1): 0 at the far edge, 1 at the plateau
        f = np.exp(-1.0 / s)
        g = np.exp(-1.0 / (1.0 - s))
        out[mid] = f / (f + g)
    out[t < 0] = 0.0
    return out


_CLASS_VECTOR_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_CLASS_VECTOR_CACHE_MAX = 512
_CLASS_VECTOR_CHUNK = 2_000_000
# the cache is shared by every thread of the process (run_suite runs checks on
# a thread pool); vectors are built outside the lock, so two threads may build
# the same one, identically
_CLASS_VECTOR_LOCK = threading.Lock()


def _class_vector(seq: CoefficientSequence | None, M: int, X: float) -> np.ndarray:
    """Residue-class sums T[a] = sum over n = a mod M of lam(n) n^{-1/2} f(n/X).

    The character enters only through _character_transform, so one vector
    serves every character of the modulus; vectors are memoized per
    (kind, bound, M, X). Fixed chunking keeps peak memory flat and reruns
    byte-identical.
    """
    key = (
        seq.kind if seq is not None else "unit",
        seq.bound if seq is not None else 0,
        M,
        round(16.0 * X),
    )
    with _CLASS_VECTOR_LOCK:
        hit = _CLASS_VECTOR_CACHE.get(key)
    if hit is not None:
        return hit
    hi = math.floor(2.0 * X)
    acc = np.zeros(M)
    for lo in range(1, hi + 1, _CLASS_VECTOR_CHUNK):
        n = np.arange(lo, min(lo + _CLASS_VECTOR_CHUNK, hi + 1), dtype=np.int64)
        w = _smooth_cutoff(n / X) / np.sqrt(n.astype(np.float64))
        if seq is not None:
            w = w * seq.values(n)
        acc += np.bincount(n % M, weights=w, minlength=M)
    acc.setflags(write=False)
    with _CLASS_VECTOR_LOCK:
        _CLASS_VECTOR_CACHE[key] = acc
        while len(_CLASS_VECTOR_CACHE) > _CLASS_VECTOR_CACHE_MAX:
            _CLASS_VECTOR_CACHE.popitem(last=False)
    return acc


def _smoothed_central_series(
    seq: CoefficientSequence | None,
    chi: DirichletCharacter,
    X0: float,
    tol: float = 1e-8,
    max_doublings: int = 16,
) -> complex:
    """sum lam(n) chi(n) n^{-1/2} cutoff(n/X), doubling X until stable.

    seq None means lam = 1. Stability demands two consecutive doubling gaps
    under tol: a single near-coincidence of partials can occur while the
    value is still drifting, but flatness across a 4x span of lengths cannot.
    Needing coefficients past the declared bound raises OutOfCacheRange.
    """
    def at(X: float) -> complex:
        return complex(_character_transform(_class_vector(seq, chi.M, X), chi.M)[chi.index])

    X = X0
    prev = at(X)
    small = 0
    for _ in range(max_doublings):
        if seq is not None and math.floor(4.0 * X) > seq.bound:
            raise OutOfCacheRange(
                f"smoothed series mod {chi.M} still moving at the cache edge; "
                f"a gap below {tol:g} needs coefficients past "
                f"{math.floor(4.0 * X)} > bound {seq.bound}"
            )
        cur = at(2.0 * X)
        small = small + 1 if abs(cur - prev) < tol else 0
        if small == 2:
            return cur
        prev, X = cur, 2.0 * X
    raise ArithmeticError(
        f"smoothed central series did not stabilize below {tol} within "
        f"{max_doublings} doublings of X0 = {X0:.3g}"
    )


def l_value_dirichlet(chi: DirichletCharacter, method: str = "hurwitz_oracle") -> complex:
    """L(1/2, chi) for primitive chi, by the Hurwitz identity or smooth truncation."""
    if chi.is_principal:
        raise PrincipalCharacterNotAllowed("central values require a primitive character")
    M = chi.M
    if method == "hurwitz_oracle":
        return complex(_l_values_all(M)[chi.index])
    if method == "smoothed":
        X0 = 50.0 * math.sqrt(M) * math.log(M)
        return _smoothed_central_series(None, chi, X0)
    raise ValueError(f"unknown method {method!r}")


def l_value_twist(
    seq: CoefficientSequence,
    chi: DirichletCharacter,
    method: str = "smoothed",
    tol: float = 1e-5,
) -> complex:
    """L(1/2, g x chi) = sum lam(n) chi(n) n^{-1/2}, smoothly truncated.

    The truncation doubles from effective length 50 M log M until the step
    gap falls under tol. The twist conductor is M^2, so tight gaps need
    lengths well past the conductor; when the cache cannot carry the ladder
    that far the evaluation refuses rather than returning a moving value.
    """
    if chi.is_principal:
        raise PrincipalCharacterNotAllowed("central values require a primitive character")
    M = chi.M
    if method == "dirichlet_square":
        if seq.kind != "divisor":
            raise ValueError("dirichlet_square applies to the divisor kind only")
        base = l_value_dirichlet(chi)
        return base * base
    if method != "smoothed":
        raise ValueError(f"unknown method {method!r}")
    X0 = 50.0 * M * math.log(M)
    if 2.0 * 2.0 * X0 > seq.bound:
        raise OutOfCacheRange(
            f"twist series needs coefficients up to {4.0 * X0:.0f} > bound {seq.bound}"
        )
    return _smoothed_central_series(seq, chi, X0, tol=tol)


@dataclass(frozen=True)
class AmplifierSpec:
    """Dyadic amplifier data: prime sets with their L* and P* weights."""

    L: float
    P: float
    ells: tuple[int, ...]
    ps: tuple[int, ...]
    lstar: float
    pstar: int


@dataclass(frozen=True)
class LstarReport:
    L: int
    ells: tuple[int, ...]
    lstar: float
    ratio_to_scale: float  # lstar / (L / log L)


@dataclass(frozen=True)
class RankinReport:
    X: float
    value: float
    ratio: float  # value / X


def make_amplifier(
    seq: CoefficientSequence, L: float, P: float, exclude: int | None = None
) -> AmplifierSpec:
    """Prime sets in [L, 2L] and [P, 2P]; the modulus may be excluded.

    Raises DegenerateAmplifier when either set comes out empty or the two
    dyadic ranges collide.
    """
    ells = tuple(p for p in primes_in(L, 2 * L) if p != exclude)
    # disjointness of the two prime sets is part of the contract; when the
    # dyadic blocks overlap at desk scale the collision drops out of the
    # detection set, never the amplifier set
    ps = tuple(p for p in primes_in(P, 2 * P) if p != exclude and p not in set(ells))
    if not ells or not ps:
        raise DegenerateAmplifier(f"no primes available in [{L},{2*L}] or [{P},{2*P}]")
    if 2 * max(ells) > seq.bound:
        raise OutOfCacheRange(f"coefficients cover [1, {seq.bound}], need 2L = {2*L}")
    lstar = math.fsum(float(seq.lam[ell]) ** 2 for ell in ells)
    if lstar <= 0:
        raise DegenerateAmplifier("L* vanished; amplifier weights are all zero")
    return AmplifierSpec(L, P, ells, ps, lstar, len(ps))


def amplifier_lstar(seq: CoefficientSequence, L: int) -> LstarReport:
    """L* = sum of lam(ell)^2 over primes ell in [L, 2L], plus the scale ratio."""
    ells = tuple(primes_in(L, 2 * L))
    if not ells:
        raise DegenerateAmplifier(f"no primes in [{L}, {2*L}]")
    if 2 * L > seq.bound:
        raise OutOfCacheRange(f"need coefficients up to {2*L}, have {seq.bound}")
    lstar = math.fsum(float(seq.lam[ell]) ** 2 for ell in ells)
    scale = L / math.log(L) if L > 1 else 1.0
    return LstarReport(L, ells, lstar, lstar / scale)


def rankin_selberg_average(
    seq: CoefficientSequence, X: float, window: SmoothWindow | None = None
) -> RankinReport:
    """sum of lam(n)^2 W(n/X) for the canonical bump, and its ratio to X."""
    W = window if window is not None else bump_window()
    lo, hi = W.support
    n_hi = math.floor(hi * X) + 1
    if n_hi > seq.bound:
        raise OutOfCacheRange(f"need coefficients up to {n_hi}, have {seq.bound}")
    n = np.arange(max(1, math.floor(lo * X)), n_hi + 1, dtype=np.int64)
    if n.size == 0:
        return RankinReport(X, 0.0, 0.0)
    vals = seq.values(n)
    total = float(math.fsum(vals * vals * W(n / X)))
    return RankinReport(X, total, total / X if X > 0 else 0.0)


@dataclass(frozen=True)
class SweepRecord:
    """One Burgess-ratio row: modulus, character, L-value and normalized size."""

    M: int
    char_index: int
    kind: str
    l_value: complex
    exponent: float
    ratio: float

    def csv_line(self) -> str:
        v = self.l_value
        return (
            f"{self.M},{self.char_index},{self.kind},"
            f"{v.real:.15g},{v.imag:.15g},{abs(v):.15g},"
            f"{self.exponent:.15g},{self.ratio:.15g}"
        )


CSV_HEADER = "M,char_index,kind,re_L,im_L,abs_L,exponent,ratio"

_DIRICHLET_EXPONENT = 3.0 / 16.0
_TWIST_EXPONENT = 3.0 / 8.0


def _char_indices(M: int, chars) -> list[int]:
    if chars == "all":
        return list(range(1, M - 1))
    if chars == "quadratic":
        return [(M - 1) // 2]
    k = int(chars)
    if k < 1:
        raise ValueError("character count must be >= 1")
    return list(range(1, min(k, M - 2) + 1))


def burgess_sweep(
    kind: str,
    pmin: int,
    pmax: int,
    chars="all",
    coeff: str = "divisor",
    seq: CoefficientSequence | None = None,
    method: str | None = None,
) -> list[SweepRecord]:
    """Burgess-ratio records over primes in [pmin, pmax], sorted by (M, index).

    kind "dirichlet" uses the Hurwitz oracle (feasible to M <= 10^4); kind
    "twist" reports the feasibility-length smoothed value over the given
    coefficient kind (M <= 500), exploratory resolution rather than a
    stabilized central value: central twist values at conductor M^2 do not
    stabilize tightly at desk-scale lengths, so rows carry the value one
    dyadic step above the effective length 50 M log M (step gap at the
    few-percent level near M = 500). Either way one character transform per
    modulus gives every row; method "smoothed" (dirichlet) or
    "dirichlet_square" (twist) evaluates each character on its own instead.
    chars: "all", "quadratic", or an integer count of indices per modulus.
    """
    if kind not in ("dirichlet", "twist"):
        raise ValueError(f"sweep kind must be dirichlet or twist, got {kind!r}")
    if kind == "twist" and method not in (None, "dirichlet_square"):
        raise ValueError(f"unknown twist method {method!r}")
    limit = 10_000 if kind == "dirichlet" else 500
    if pmax > limit:
        raise ValueError(f"{kind} sweeps are oracle-feasible only up to M = {limit}")
    primes = primes_in(max(5, pmin), pmax)
    records: list[SweepRecord] = []
    if kind == "twist" and primes and seq is None:
        need = math.ceil(4.0 * 50.0 * pmax * math.log(pmax)) + 10
        if coeff == "divisor":
            seq = divisor_sequence(need)
        elif coeff in ("delta", "delta_form"):
            seq = delta_sequence(need)
        else:
            raise ValueError(f"unknown coefficient kind {coeff!r}")
    for M in primes:
        indices = _char_indices(M, chars)
        if kind == "dirichlet":
            exponent, rec_kind = _DIRICHLET_EXPONENT, "dirichlet"
            if method in (None, "hurwitz_oracle"):
                row = _l_values_all(M)
            else:
                row = {k: l_value_dirichlet(character(M, k), method) for k in indices}
        else:
            exponent, rec_kind = _TWIST_EXPONENT, seq.kind
            if method == "dirichlet_square":
                row = {k: l_value_twist(seq, character(M, k), method) for k in indices}
            else:
                X0 = 50.0 * M * math.log(M)
                row = _character_transform(_class_vector(seq, M, 2.0 * X0), M)
        for k in indices:
            val = complex(row[k])
            records.append(SweepRecord(M, k, rec_kind, val, exponent, abs(val) / M**exponent))
    return records


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    """CSV with '.' decimals, 15 significant digits, newline line endings."""
    lines = [CSV_HEADER] + [r.csv_line() for r in records]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)


def monotone_envelope(records: list[SweepRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct modulus M (ascending), max ratio over all records with M' <= M."""
    by_m: dict[int, float] = {}
    for r in records:
        by_m[r.M] = max(by_m.get(r.M, 0.0), r.ratio)
    ms = np.array(sorted(by_m), dtype=np.int64)
    env = np.maximum.accumulate(np.array([by_m[m] for m in ms]))
    return ms, env


@dataclass(frozen=True)
class AfeProbe:
    """Supremum of |S(N)|/sqrt(N) over a dyadic grid, next to the L-value."""

    M: int
    char_index: int
    sup_ratio: float
    N_at_sup: float
    l_value_abs: float


def afe_supremum_probe(
    chi: DirichletCharacter,
    seq: CoefficientSequence | None = None,
    window: SmoothWindow | None = None,
    n_octaves: int = 12,
) -> AfeProbe:
    """Scan S(N) = sum lam(n) chi(n) W(n/N) over N = 1, 2, 4, ... and report
    the largest |S(N)|/sqrt(N), alongside |L(1/2, .)| from the oracle."""
    W = window if window is not None else bump_window()
    best, best_n = 0.0, 1.0
    for j in range(n_octaves):
        N = float(1 << j)
        if seq is not None and W.support[1] * N > seq.bound:
            break
        ratio = abs(smoothed_sum(seq, chi, N, W)) / math.sqrt(N)
        if ratio > best:
            best, best_n = ratio, N
    lval = abs(l_value_dirichlet(chi)) if seq is None else float("nan")
    return AfeProbe(chi.M, chi.index, best, best_n, lval)
