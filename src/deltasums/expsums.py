"""Finite exponential and character sums over prime (and composite) moduli.

The sums implemented here:

* trivial_delta(n, m, q): the exact divisor-dissected delta symbol

      delta(n = m mod q) = (1/q) * sum_{c | q} sum_{a mod c, (a,c)=1} e(a(n-m)/c),

  an identity in which the inner sums are Ramanujan sums, read for every d
  mod c from the exact row ramanujan_sum(c, arange(c)); n, m may be arrays.

* ramanujan_sum(M, a) = sum over units z mod M of e(az/M), exactly in
  integers by Kluyver's formula: the sum over squarefree s | M of
  mu(s) (M/s) [M/s divides a]. a is an integer or an integer array.

* gauss_sum(chi) = sum_y chi(y) e(y/M), primitive chi only; |g_chi| = sqrt(M).
  It is an entry of characters._gauss_row(M), the Gauss sums of every
  character mod M from one character transform of cos and sin(2 pi y/M);
  the twist root numbers of lfunctions read the same row.

* kloosterman_sum(a, b, c) = sum over units x mod c of e((ax + b*xbar)/c),
  real by the x -> xbar symmetry, with the Weil bound 2*sqrt(p) at primes.

* generalized_kloosterman(chi, r, n) = sum over units x of chi(x) e((rx + n*xbar)/M).

* frak_k(chi, r, ell, n) = sum over units z of chibar(r + ell*z) e(n*zbar/M).
  When M | n and gcd(r, M) = 1 the sum collapses exactly to -chibar(r);
  otherwise it exhibits square-root cancellation.

* frak_c(chi, r1, r2, alpha, beta, n) =
      sum over units z with n + beta*zbar a unit of
          chibar(r1 + z) * chi(r2 + alpha*(n + beta*zbar)^{-1}).
  Degenerate parameter classes evaluate in closed form (frak_c_closed_form);
  generic parameters exhibit square-root cancellation.

Here xbar denotes the inverse of x for the relevant modulus, read from the
cached row modular.inverse_row(c), and e(x) = exp(2*pi*i*x).  The
brute-force sums reduce every phase mod c in integers and read e(j/c) from
characters._exp_table(c), the package's one table of roots of unity; they
add their terms by compensated summation (math.fsum on the real and
imaginary parts).

kloosterman_sum, frak_k and frak_c, like trivial_delta, take integers or
integer arrays (numpy integers included) for their integer arguments; the
modulus and the character stay scalar.  Arguments are reduced mod the
modulus first and broadcast together, and the terms of every parameter row
are gathered as one (rows, units) array and summed row by row, so an array
call gives entries equal to the scalar calls bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, PrincipalCharacterNotAllowed, _exp_table, _gauss_row
from .modular import (
    _factorize,
    divisors,
    inverse_row,
    is_prime,
    prime_modulus,
    primes_in,
    unit_residues,
)

__all__ = [
    "EllNotCoprime",
    "AlphaBetaNotCoprime",
    "ParameterConflict",
    "CancellationProfile",
    "trivial_delta",
    "ramanujan_sum",
    "gauss_sum",
    "fourier_expansion",
    "kloosterman_sum",
    "generalized_kloosterman",
    "frak_k",
    "frak_k_closed_form",
    "frak_c",
    "frak_c_closed_form",
    "alpha_factorization_check",
    "weil_bound_profile",
    "sqrt_cancellation_profile",
]


class EllNotCoprime(ValueError):
    """The shift ell shares a factor with the modulus."""


class AlphaBetaNotCoprime(ValueError):
    """alpha*beta shares a factor with the modulus."""


class ParameterConflict(ValueError):
    """No summand satisfies the stated side conditions."""


def _csum(values: np.ndarray):
    """Compensated complex reduction (exact fsum on each part): a complex for a
    vector, and a complex array of the row sums for a (rows, terms) matrix."""
    arr = np.asarray(values, dtype=np.complex128)
    # fsum is correctly rounded, so Python floats give the same bits as numpy
    # scalars and are faster to iterate
    if arr.ndim == 1:
        return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))
    out = np.empty(arr.shape[0], dtype=np.complex128)
    out.real = [math.fsum(row) for row in arr.real.tolist()]
    out.imag = [math.fsum(row) for row in arr.imag.tolist()]
    return out


def _reduce(x, q: int):
    """An integer reduced mod q (huge Python ints before any numpy
    conversion), or an array that casts safely to int64 reduced mod q."""
    if isinstance(x, np.ndarray):
        return x.astype(np.int64, casting="safe") % q
    return operator.index(x) % q


def _parameter_rows(q: int, *args):
    """The integer arguments of a unit sum reduced mod q, and their broadcast
    shape. With an array among them they are broadcast together and flattened
    into (rows, 1) columns, so a gather over the units is a (rows, units)
    array; with none, they stay integers, the one-row case of the same
    gather, and the shape is None."""
    if not any(isinstance(x, np.ndarray) for x in args):
        return [operator.index(x) % q for x in args], None
    reduced = np.broadcast_arrays(*(_reduce(x, q) for x in args))
    return [x.reshape(-1, 1) for x in reduced], reduced[0].shape


def _has_zero(x) -> bool:
    """Whether a reduced integer argument, or any entry of an array one, is 0."""
    return not (x.all() if isinstance(x, np.ndarray) else x)


def _unbatch(values, shape):
    """Row sums back in the arguments' shape; a scalar call's value as is."""
    return values if shape is None else values.reshape(shape)


@lru_cache(maxsize=256)
def _ramanujan_row(c: int) -> np.ndarray:
    """ramanujan_sum(c, d) for every d in [0, c), read-only float64."""
    row = ramanujan_sum(c, np.arange(c)).astype(np.float64)
    row.setflags(write=False)
    return row


@dataclass(frozen=True)
class CancellationProfile:
    """Empirical |sum|/sqrt(M) statistics over random admissible parameters."""

    family: str
    modulus: int
    samples: int
    seed: int
    max_ratio: float
    mean_ratio: float


@lru_cache(maxsize=16)
def _delta_row(q: int) -> np.ndarray:
    """sum over c | q of _ramanujan_row(c)[d mod c] at every d in [0, q), read-only."""
    row = np.zeros(q)
    for c in divisors(q):
        row += np.tile(_ramanujan_row(c), q // c)
    row.setflags(write=False)
    return row


def trivial_delta(n, m, q: int):
    """The divisor-dissected indicator of n = m (mod q).

    Evaluates (1/q) sum_{c|q} sum_{(a,c)=1} e(a(n-m)/c), read at
    (n - m) mod q from _delta_row(q), the sum of the exact integer rows
    _ramanujan_row(c), so the value is the indicator for every q >= 1. n and
    m are integers or arrays that cast safely to int64 (numpy integers
    included), reduced mod q first, and q is an integer. An array gives a
    complex array whose entries equal the scalar calls bit for bit.
    """
    q = operator.index(q)
    if q < 1:
        raise ValueError("trivial_delta requires q >= 1")
    n, m = _reduce(n, q), _reduce(m, q)
    total = _delta_row(q)[(n - m) % q] / q
    return total.astype(np.complex128) if isinstance(total, np.ndarray) else complex(total)


def ramanujan_sum(M: int, a):
    """sum over units z mod M of e(az/M), exactly, by Kluyver's formula.

    c_M(a) = sum over squarefree s | M of mu(s) (M/s) [(M/s) | a], an integer
    sum. An integer a is reduced mod M first and gives a float; an array that
    casts safely to int64 gives an int64 array.
    """
    M = operator.index(M)
    if M < 1:
        raise ValueError("ramanujan_sum requires M >= 1")
    a = _reduce(a, M)
    squarefree = [(1, 0)]  # (s, number of primes in s)
    for p in _factorize(M):
        squarefree += [(s * p, k + 1) for s, k in squarefree]
    total = 0
    for s, k in squarefree:
        e = M // s
        total = total + (-1) ** k * e * (a % e == 0)
    return total if isinstance(total, np.ndarray) else float(total)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """sum_y chi(y) e(y/M) for primitive chi; |value| = sqrt(M). Read from
    _gauss_row(M), one character transform for every character mod M."""
    if chi.is_principal:
        raise PrincipalCharacterNotAllowed("gauss_sum requires a primitive character")
    return complex(_gauss_row(chi.M)[chi.index])


def fourier_expansion(chi: DirichletCharacter, a: int) -> complex:
    """(1/g_chibar) sum_y chibar(y) e(ay/M), which equals chi(a) for primitive chi."""
    if chi.is_principal:
        raise PrincipalCharacterNotAllowed("expansion requires a primitive character")
    M, chibar = chi.M, chi.conjugate()
    y = np.arange(M, dtype=np.int64)
    return _csum(chibar.values(y) * _exp_table(M)[(a % M) * y % M]) / gauss_sum(chibar)


def kloosterman_sum(a, b, c: int):
    """sum over units x mod c of e((ax + b*xbar)/c); real by x -> xbar symmetry.

    a and b are integers or integer arrays, broadcast together; an array
    call gives a float array whose entries equal the scalar calls bit for bit.
    """
    if c < 1:
        raise ValueError("kloosterman_sum requires c >= 1")
    (a, b), shape = _parameter_rows(c, a, b)
    units = unit_residues(c)
    phases = (a * units + b * inverse_row(c)[units]) % c
    return _unbatch(_csum(_exp_table(c)[phases]).real, shape)


def generalized_kloosterman(chi: DirichletCharacter, r: int, n: int) -> complex:
    """sum over units x mod M of chi(x) e((rx + n*xbar)/M)."""
    M = chi.M
    units = unit_residues(M)
    inv = inverse_row(M)[units]
    phases = ((r % M) * units + (n % M) * inv) % M
    return _csum(chi.values(units) * _exp_table(M)[phases])


def frak_k(chi: DirichletCharacter, r, ell, n):
    """Brute-force sum over units z of chibar(r + ell*z) e(n*zbar/M).

    r, ell and n are integers or integer arrays, broadcast together; an array
    call gives a complex array whose entries equal the scalar calls bit for
    bit.
    """
    M = chi.M
    (r, ell_m, n), shape = _parameter_rows(M, r, ell, n)
    if _has_zero(ell_m):  # M is prime
        raise EllNotCoprime(f"gcd(ell={ell}, M={M}) != 1")
    units = unit_residues(M)
    terms = chi.conjugate().values(r + ell_m * units) * _exp_table(M)[n * inverse_row(M)[units] % M]
    return _unbatch(_csum(terms), shape)


def frak_k_closed_form(chi: DirichletCharacter, r: int, ell: int, n: int) -> complex | None:
    """Exact value -chibar(r) when M | n and gcd(r, M) = 1; None otherwise."""
    M = chi.M
    if math.gcd(ell, M) != 1:
        raise EllNotCoprime(f"gcd(ell={ell}, M={M}) != 1")
    if n % M == 0 and math.gcd(r, M) == 1:
        return -chi.conjugate()(r)
    return None


def frak_c(chi: DirichletCharacter, r1, r2, alpha, beta, n):
    """Brute-force paired character sum with an inverted-shift argument.

    sum over units z mod M, restricted to n + beta*zbar a unit, of
    chibar(r1 + z) * chi(r2 + alpha*(n + beta*zbar)^{-1}); the excluded
    summand enters as 0. The integer arguments may be arrays, broadcast
    together, as in frak_k.
    """
    M = chi.M
    (r1, r2, alpha, beta, n), shape = _parameter_rows(M, r1, r2, alpha, beta, n)
    if _has_zero(alpha * beta):  # M is prime
        raise AlphaBetaNotCoprime(f"gcd(alpha*beta, {M}) != 1")
    z = unit_residues(M)
    inv = inverse_row(M)
    t = (n + beta * inv[z]) % M
    terms = chi.conjugate().values(r1 + z) * chi.values(r2 + alpha * inv[t])
    terms[t == 0] = 0.0
    return _unbatch(_csum(terms), shape)


def frak_c_closed_form(
    chi: DirichletCharacter, r1: int, r2: int, alpha: int, beta: int, n: int
) -> complex | None:
    """Closed forms of frak_c on the degenerate parameter classes.

    Requires gcd(r1*r2, M) = 1 in addition to gcd(alpha*beta, M) = 1; the
    classes are routed in this order:

    1. M | n:  chi(alpha*betabar) R_M(r2 - r1*alpha*betabar) - chi(r2*r1bar),
       with R_M = ramanujan_sum(M, .) (M - 1 at multiples of M, else -1).
    2. M does not divide n and n = beta*r1bar - alpha*r2bar (mod M):
       -chi^2(r2*r1bar) chi(beta*alphabar) - chi(r2*r1bar).
    3. M does not divide n and r1 = nbar*beta, r2 = -nbar*alpha (mod M):
       -chi(n*r2*betabar) for chi of order > 2, and
       chi(nbar*r2*beta) * (M - 2) for quadratic chi.  (Direct enumeration
       gives M - 2: the excluded summand removes one unit from the full
       principal-character sum M - 1.)

    Generic parameters have no closed form and None is returned.
    """
    M = chi.M
    if math.gcd(alpha * beta, M) != 1:
        raise AlphaBetaNotCoprime(f"gcd(alpha*beta, {M}) != 1")
    if math.gcd(r1 * r2, M) != 1:
        return None
    r1bar = pow(r1, -1, M)
    r2bar = pow(r2, -1, M)
    abar = pow(alpha, -1, M)
    bbar = pow(beta, -1, M)
    if n % M == 0:
        return chi(alpha * bbar) * ramanujan_sum(M, r2 - r1 * alpha * bbar) - chi(r2 * r1bar)
    nbar = pow(n % M, -1, M)
    if (beta * r1bar - alpha * r2bar - n) % M == 0:
        base = chi(r2 * r1bar)
        return -base * base * chi(beta * abar) - base
    if (r1 - nbar * beta) % M == 0 and (r2 + nbar * alpha) % M == 0:
        if chi.is_quadratic:
            return chi(nbar * r2 * beta) * (M - 2)
        return -chi(n * r2 * bbar)
    return None


def alpha_factorization_check(chi: DirichletCharacter, p: int, r: int, ell: int, n: int) -> bool:
    """Factor a unit sum mod p*M through the Chinese remainder theorem.

    For both signs s = +-1, compares

      LHS = sum over units alpha mod pM with r = alpha*ell (mod p) of
            chibar(r - alpha*ell) e(s * alphabar * n / (pM))

    against

      RHS = e(s * (rM)^{-1} n ell / p) *
            sum over units alpha mod M of chibar(r - alpha*ell) e(s * (alpha*p)^{-1} n / M),

    where the congruence mod p pins alpha = r*ellbar (mod p); the two sides
    must agree to 1e-10.
    """
    M = chi.M
    if not is_prime(p):
        raise ParameterConflict(f"p = {p} must be prime")
    if p == M:
        raise ParameterConflict("p must differ from the character modulus")
    if math.gcd(r, p) != 1:
        raise ParameterConflict(f"gcd(r={r}, p={p}) != 1 leaves no admissible alpha")
    if math.gcd(ell, p) != 1:
        raise ParameterConflict(f"p | ell leaves the congruence r = alpha*ell unsolvable")
    q = p * M
    a_p = r * pow(ell, -1, p) % p
    alpha0 = unit_residues(M)
    # CRT lift: alpha = a_p (mod p), alpha = alpha0 (mod M)
    lift = (a_p * M * pow(M, -1, p) + alpha0 * p * pow(p, -1, M)) % q
    alphabar = inverse_row(q)[lift]
    chi_part = chi.conjugate().values(r - alpha0 * ell)
    pref_num = pow(r * M % p, -1, p) * n * ell % p
    inner_phase = inverse_row(M)[alpha0 * p % M] * (n % M) % M
    for s in (1, -1):
        lhs = _csum(chi_part * _exp_table(q)[(s * alphabar * (n % q)) % q])
        rhs = _exp_table(p)[(s * pref_num) % p] * _csum(
            chi_part * _exp_table(M)[(s * inner_phase) % M]
        )
        if abs(lhs - rhs) >= 1e-10:
            return False
    return True


def weil_bound_profile(pmax: int) -> tuple[float, int]:
    """Largest |S(a,b;p)| / (2*sqrt(p)) over (a, b) != (0, 0) mod p, p <= pmax.

    S(a, b; p) = S(1, ab; p) when p does not divide a, and the sum is -1 when
    exactly one of a, b is 0 mod p, so the row S(1, m; p) for every m mod p
    (m = 0 included, where it is -1) holds every magnitude; it is one
    (p, p-1) gather of e(./p). Returns (max ratio, the prime attaining it).
    The Weil bound asserts the ratio never exceeds 1; the fully degenerate
    pair a = b = 0, where the sum collapses to phi(p), is excluded.
    """
    if pmax < 2:
        raise ValueError(f"pmax must be >= 2, got {pmax}")
    worst, worst_p = 0.0, 0
    for p in primes_in(2, pmax):
        units = unit_residues(p)
        inv = inverse_row(p)[units]
        phases = (units + np.multiply.outer(np.arange(p), inv)) % p
        ratio = float(np.abs(_exp_table(p)[phases].sum(axis=1)).max()) / (2.0 * math.sqrt(p))
        if ratio > worst:
            worst, worst_p = ratio, p
    return worst, worst_p


def _profile_sample(family: str, chi: DirichletCharacter, rng: np.random.Generator) -> float:
    M = chi.M
    if family == "kloosterman":
        a = int(rng.integers(0, M))
        b = int(rng.integers(0, M))
        return abs(kloosterman_sum(a, b, M))
    if family == "generalized_kloosterman":
        r = int(rng.integers(1, M))
        n = int(rng.integers(1, M))
        return abs(generalized_kloosterman(chi, r, n))
    if family == "frak_k":
        r = int(rng.integers(1, M))
        ell = int(rng.integers(1, M))
        n = int(rng.integers(1, M))  # M never divides n, the generic regime
        return abs(frak_k(chi, r, ell, n))
    if family == "frak_c":
        while True:
            r1 = int(rng.integers(1, M))
            r2 = int(rng.integers(1, M))
            alpha = int(rng.integers(1, M))
            beta = int(rng.integers(1, M))
            n = int(rng.integers(1, M))
            if frak_c_closed_form(chi, r1, r2, alpha, beta, n) is None:
                return abs(frak_c(chi, r1, r2, alpha, beta, n))
    raise ValueError(f"unknown sum family {family!r}")


def sqrt_cancellation_profile(
    family: str, M: int, samples: int, seed: int = 1
) -> CancellationProfile:
    """Max and mean of |sum|/sqrt(M) over random admissible parameters.

    family is one of kloosterman, generalized_kloosterman, frak_k, frak_c.
    The character, where one is needed, cycles over the primitive indices.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    prime_modulus(M)  # refuses M = 2 before the index cycle divides by M - 2
    rng = np.random.default_rng(seed)
    root = math.sqrt(M)
    ratios = []
    for i in range(samples):
        index = 1 + (i % (M - 2))
        chi = DirichletCharacter(M, index)
        ratios.append(_profile_sample(family, chi, rng) / root)
    return CancellationProfile(
        family=family,
        modulus=M,
        samples=samples,
        seed=seed,
        max_ratio=max(ratios),
        mean_ratio=math.fsum(ratios) / samples,
    )
