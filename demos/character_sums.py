"""Character and exponential sums: magnitudes, closed forms, cancellation.

Walks the finite-sum layer: Gauss sum magnitudes, the Weil bound for
Kloosterman sums, the two paired unit sums with their degenerate closed
forms, and empirical square-root cancellation statistics.
"""

import math

import numpy as np

from deltasums import (
    enumerate_characters,
    frak_c,
    frak_c_closed_form,
    frak_k,
    frak_k_closed_form,
    gauss_sum,
    kloosterman_sum,
    sqrt_cancellation_profile,
    weil_bound_profile,
)


def gauss_magnitudes(M: int) -> None:
    print(f"Gauss sums mod {M}: |g_chi| should equal sqrt({M}) = {math.sqrt(M):.6f}")
    for chi in enumerate_characters(M, "primitive")[:4]:
        g = gauss_sum(chi)
        print(f"  index {chi.index:2d}  g = {g:+.6f}  |g| = {abs(g):.12f}")


def weil_profile() -> None:
    ratio, p = weil_bound_profile(200)
    print(f"\nKloosterman sums, all (a,b) mod p for p <= 200:")
    print(f"  max |S(a,b;p)| / 2 sqrt(p) = {ratio:.6f}, attained at p = {p}")
    print(f"  S(1,1;5) = {kloosterman_sum(1, 1, 5):+.12f}")


def closed_form_spotchecks(M: int = 13) -> None:
    print(f"\nDegenerate closed forms mod {M}:")
    chi = enumerate_characters(M, "all")[1]
    # n = M lands in the exact case of the single-character sum
    brute = frak_k(chi, 5, 1, M)
    closed = frak_k_closed_form(chi, 5, 1, M)
    print(f"  frak_k(r=5, ell=1, n={M}): brute {brute:+.9f}")
    print(f"                            closed {closed:+.9f}")
    # the paired sum at parameters forced into its inverted-pair class
    n, alpha, beta = 3, 2, 5
    nbar = pow(n, -1, M)
    r1, r2 = (nbar * beta) % M, (-nbar * alpha) % M
    brute = frak_c(chi, r1, r2, alpha, beta, n)
    closed = frak_c_closed_form(chi, r1, r2, alpha, beta, n)
    print(f"  frak_c(r1={r1}, r2={r2}, alpha={alpha}, beta={beta}, n={n}):")
    print(f"    brute  {brute:+.9f}")
    print(f"    closed {closed:+.9f}")
    quad = enumerate_characters(M, "quadratic")[0]
    brute_q = frak_c(quad, r1, r2, alpha, beta, n)
    print(f"  same parameters, quadratic character: {brute_q.real:+.9f}")
    print(f"    (the full unit sum would give {M - 1}; one summand is excluded,"
          f" leaving the constant {M - 2})")


def cancellation(M: int = 101, samples: int = 500) -> None:
    print(f"\n|sum| / sqrt({M}) over {samples} random admissible parameter draws:")
    for family in ("kloosterman", "generalized_kloosterman", "frak_k", "frak_c"):
        prof = sqrt_cancellation_profile(family, M, samples, seed=1)
        print(f"  {family:24s} max {prof.max_ratio:6.3f}  mean {prof.mean_ratio:6.3f}")


if __name__ == "__main__":
    gauss_magnitudes(11)
    weil_profile()
    closed_form_spotchecks()
    cancellation()
