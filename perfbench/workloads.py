"""The benchmark's workloads and the independent oracles that check them.

Each workload function runs the timed work against an imported ``deltasums``
package and returns an Outcome. Its ``text`` is the output whose digest must
repeat for a repeated seed; its ``check`` compares the outputs with oracles
that share no code with the package (mpmath Hurwitz zeta, sympy divisor
counts, exact Hecke multiplicativity, characters rebuilt from a primitive
root found here). Both run after the timed region.

Inputs come from the seed only. Every size below is fixed so that a run's
work does not depend on the seed beyond which items are drawn.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

VERIFY_MMAX = 150
VERIFY_SAMPLES = 600
SWEEP_ALL_PMAX = 1000
DIVISOR_BOUND = 1_500_000
TAU_BOUND = 30_000
TWIST_PMAX = 200
TWIST_MODULI = (5, 7, 11, 13, 17, 19)

PARAMS = {
    "verify": {"mmax": VERIFY_MMAX, "samples": VERIFY_SAMPLES, "suites": "appendix,pipeline,transforms"},
    "sweep_all": {"pmax": SWEEP_ALL_PMAX, "chars": "all", "primes": "one of each consecutive pair"},
    "coeffs": {
        "divisor_bound": DIVISOR_BOUND,
        "tau_bound": TAU_BOUND,
        "twist_pmax": TWIST_PMAX,
        "twist_moduli": list(TWIST_MODULI),
    },
}

L_TOL = 1e-9  # Hurwitz-oracle agreement, relative to 1 + |L|
TWIST_TOL = 1e-5  # l_value_twist's own default step-gap tolerance


@dataclass
class Tally:
    """Operations attempted and failed."""

    attempted: int = 0
    failed: int = 0

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass
class Outcome:
    text: Callable[[], str]
    check: Callable[[], Tally]


def _primes(lo: int, hi: int) -> list:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi + 1, p)))
    return [p for p in range(lo, hi + 1) if sieve[p]]


def _dlog(M: int) -> list:
    """Discrete logs mod a prime M to its least primitive root; dlog[0] = -1."""
    factors = [q for q in _primes(2, M - 1) if (M - 1) % q == 0]
    g = next(g for g in range(2, M) if all(pow(g, (M - 1) // q, M) != 1 for q in factors))
    dlog = [-1] * M
    x = 1
    for j in range(M - 1):
        dlog[x] = j
        x = x * g % M
    return dlog


def _hurwitz_half(M: int) -> np.ndarray:
    """mpmath zeta(1/2, a/M) for a = 1 .. M-1."""
    import mpmath

    return np.array([mpmath.fp.zeta(0.5, a / M) for a in range(1, M)])


def _l_oracle(M: int, indices) -> dict:
    """L(1/2, chi_k) = M^{-1/2} sum_a chi_k(a) zeta(1/2, a/M), chi_k(g^j) = e(kj/(M-1))."""
    zeta = _hurwitz_half(M)
    j = np.array(_dlog(M)[1:], dtype=np.float64)
    return {
        k: complex(np.sum(np.exp(2j * np.pi * k * j / (M - 1)) * zeta)) / math.sqrt(M)
        for k in indices
    }


def _close(value: complex, ref: complex, tol: float) -> bool:
    return cmath.isfinite(value) and abs(value - ref) <= tol * (1.0 + abs(ref))


def _check_rows(tally: Tally, records, keys) -> None:
    """One operation per expected (M, index) row (present, in order, finite), one for the count."""
    got = [(r.M, r.char_index) for r in records]
    for i, key in enumerate(keys):
        tally.expect(i < len(got) and got[i] == key and cmath.isfinite(records[i].l_value))
    tally.expect(len(got) == len(keys))


def verify(ds, seed: int, workdir: Path, tracer) -> Outcome:
    checks = (
        ds.appendix_suite(mmax=VERIFY_MMAX, samples=VERIFY_SAMPLES, seed=seed)
        + ds.pipeline_suite()
        + ds.transforms_suite()
    )
    if tracer is not None:
        checks = [ds.Check(c.name, tracer.time_check(c.name, c.thunk)) for c in checks]
    reports = ds.run_suite(checks, jobs=1)

    def check() -> Tally:
        tally = Tally()
        for rep in reports:
            tally.expect(rep.passed)
        return tally

    return Outcome(lambda: "\n".join(rep.line() for rep in reports) + "\n", check)


def _sweep_all_primes(seed: int) -> list:
    """One prime of each consecutive pair in [5, SWEEP_ALL_PMAX]: ~40k rows for any seed."""
    primes = _primes(5, SWEEP_ALL_PMAX)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 2, size=len(primes) // 2)
    return [primes[2 * i + int(b)] for i, b in enumerate(picks)]


def sweep_all(ds, seed: int, workdir: Path, tracer) -> Outcome:
    primes = _sweep_all_primes(seed)
    records = []
    for p in primes:
        records += ds.burgess_sweep("dirichlet", p, p, chars="all")
    csv = workdir / "sweep_all.csv"
    ds.write_sweep_csv(records, csv)

    def check() -> Tally:
        tally = Tally()
        _check_rows(tally, records, [(p, k) for p in primes for k in range(1, p - 1)])
        rows = {(r.M, r.char_index): r.l_value for r in records}
        for M in np.random.default_rng(seed + 1).choice(primes, size=4, replace=False):
            M = int(M)
            for k, ref in _l_oracle(M, range(1, M - 1)).items():
                tally.expect(_close(rows.get((M, k), math.nan), ref, L_TOL))
        return tally

    return Outcome(csv.read_text, check)


def _check_tau(tally: Tally, tau: list, rng) -> None:
    """tau(1..3), tau(mn) = tau(m)tau(n) for coprime pairs, tau(p^2) = tau(p)^2 - p^11."""
    t = [0] + tau
    n = len(tau)
    for k, known in ((1, 1), (2, -24), (3, 252)):
        tally.expect(t[k] == known)
    pairs = 0
    while pairs < 200:
        m = int(rng.integers(2, math.isqrt(n) * 4))
        k = int(rng.integers(2, n // m + 1))
        if math.gcd(m, k) == 1 and m * k <= n:
            tally.expect(t[m * k] == t[m] * t[k])
            pairs += 1
    for p in _primes(2, math.isqrt(n)):
        tally.expect(t[p * p] == t[p] ** 2 - p**11)


def coeffs(ds, seed: int, workdir: Path, tracer) -> Outcome:
    rng = np.random.default_rng(seed)
    divisors = ds.divisor_sequence(DIVISOR_BOUND)
    cache = workdir / "tau_table.cold.txt"
    cold = ds.ramanujan_tau_table(TAU_BOUND, cache=cache)
    warm = ds.ramanujan_tau_table(TAU_BOUND, cache=cache)
    delta = ds.delta_sequence(TAU_BOUND, cache=cache)
    twist = ds.burgess_sweep("twist", 5, TWIST_PMAX, chars="all", seq=divisors)
    chars = [(M, int(rng.integers(1, M - 1))) for M in TWIST_MODULI]
    twists = [ds.l_value_twist(divisors, ds.character(M, k)) for M, k in chars]

    def check() -> Tally:
        import sympy

        tally = Tally()
        for n in [1, DIVISOR_BOUND] + [int(x) for x in rng.integers(1, DIVISOR_BOUND, 300)]:
            tally.expect(divisors.lam[n] == int(sympy.divisor_count(n)))
        tally.expect(cache.read_text().split("\n", 1)[0] == str(TAU_BOUND))
        tally.expect(warm == cold)
        _check_tau(tally, cold, rng)
        for n in [int(x) for x in rng.integers(1, TAU_BOUND + 1, 100)]:
            tally.expect(abs(delta.lam[n] - cold[n - 1] / n**5.5) <= 1e-12 * abs(delta.lam[n]))
        keys = [(p, k) for p in _primes(5, TWIST_PMAX) for k in range(1, p - 1)]
        _check_rows(tally, twist, keys)
        for (M, k), value in zip(chars, twists):
            tally.expect(_close(value, _l_oracle(M, [k])[k] ** 2, TWIST_TOL))
        return tally

    def text() -> str:
        return "\n".join(rec.csv_line() for rec in twist) + "\n" + str(twists) + "\n"

    return Outcome(text, check)


WORKLOADS = {
    "verify": verify,
    "sweep_all": sweep_all,
    "coeffs": coeffs,
}
