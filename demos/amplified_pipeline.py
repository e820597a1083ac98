"""The amplified moment pipeline end to end at one small configuration.

Chains the verified steps: amplifier construction with its side conditions,
the Hecke rearrangement, delta detection, the beta-sum closed form inside the
additive dissection, and the Poisson dual of the r-sum. Each step reports the
standard one-line check format `name,digest,lhs,residual,tol,verdict`.
"""

import math

from deltasums import (
    beta_sum_evaluation_check,
    character,
    divisor_sequence,
    make_amplifier,
    make_pipeline_config,
    pipeline_suite,
    poisson_r_sum_check,
    run_suite,
)


def amplifier_shape(L: float = 3.0, P: float = 7.0) -> None:
    seq = divisor_sequence(1000)
    amp = make_amplifier(seq, L, P)
    print(f"amplifier with L = {L}, P = {P}:")
    print(f"  ells = {amp.ells} (primes in [L, 2L])")
    print(f"  ps   = {amp.ps} (primes in [P, 2P], amplifier primes filtered out)")
    print(f"  L* = {amp.lstar:.6f} = sum of |lambda(ell)|^2,"
          f" ratio to the L/log L scale = {amp.lstar * math.log(L) / L:.3f}")


def side_conditions(M: int = 101) -> None:
    cfg = make_pipeline_config(kind="divisor", M=M, N=20.0, L=2, P=5.0)
    print(f"\nside conditions at M = {M}, N = 20, L = 2, P = 5:")
    for name, holds in cfg.side_conditions().items():
        print(f"  {name:12s} {'ok' if holds else 'violated'}")


def beta_sum_spotcheck() -> None:
    chi = character(7, 2)
    print("\nbeta-sum closed form, chi mod 7, c | p*M:")
    for c in (1, 3, 7, 21):
        ok = beta_sum_evaluation_check(chi, c, 3, alpha=1, ell=2, r=4)
        print(f"  c = {c:2d}: {'agrees' if ok else 'DISAGREES'}")


def full_suite(M: int = 11) -> None:
    print(f"\npipeline suite at M = {M} (exact steps + quadrature steps):")
    for rep in run_suite(pipeline_suite(M=M, N=20.0, L=3, P=5.0)):
        print(f"  {rep.line()}")
    chi = character(11, 1)
    rep = poisson_r_sum_check(chi, 11, 3, 1, 2, 30.0)
    print(f"  poisson r-sum at (M,c,p,N)=(11,11,3,30): residual {rep.residual:.3e}")


if __name__ == "__main__":
    amplifier_shape()
    side_conditions()
    beta_sum_spotcheck()
    full_suite()
