"""Voronoi summation numerically: windows, Bessel transforms, decay.

Builds the two canonical smooth windows, evaluates the Bessel-kernel
transforms on both sides of the summation formula, verifies the dual
expansion for the weight-12 form and for the divisor function (with its
logarithmic main term), and profiles the rapid decay of the transforms.
"""

import numpy as np

from deltasums import (
    bump_window,
    decay_check,
    delta_sequence,
    divisor_sequence,
    fourier_dual,
    plateau_window,
    voronoi_step_check,
    voronoi_transform_batch,
)


def windows() -> None:
    W, V = bump_window(), plateau_window()
    print(f"bump window:    support {W.support}, mass {W.mass():.12f}")
    print(f"plateau window: support {V.support}, mass {V.mass():.12f}")
    xs = np.array([0.6, 1.0, 1.5, 2.5])
    print(f"  plateau values at {xs}: {np.round(V(xs), 6)}")


def dual_decay() -> None:
    V = plateau_window()
    print("\n|V_dual(x)| decays faster than any power:")
    for x in (0.0, 2.0, 8.0, 32.0):
        print(f"  x = {x:5.1f}: {abs(fourier_dual(V, x)):.3e}")
    rep = decay_check(lambda x: fourier_dual(V, x), 4.0, np.geomspace(1.0, 100.0, 13))
    print(f"  sup |V_dual(x)| (1+x)^4 over [1, 100] = {rep.constant:.4f} (finite)")


def transforms() -> None:
    W = bump_window()
    at_one = lambda seq, sign: voronoi_transform_batch(seq, sign, W, [1.0])[0]
    seq = divisor_sequence(6000)
    print("\nVoronoi transforms of the bump window at y = 1:")
    print(f"  divisor, minus side (K0 kernel): {at_one(seq, -1):.6e}")
    print(f"  divisor, plus side  (J/Y kernel): {at_one(seq, +1):.6e}")
    delta = delta_sequence(6000)
    print(f"  weight-12 form, plus side (J11):  {at_one(delta, +1):.6e}")
    print(f"  weight-12 form, minus side:       {at_one(delta, -1):.6e}")


def summation_formula() -> None:
    print("\nDual-expansion residuals, sum vs transform side:")
    for kind, seq in (
        ("delta_form", delta_sequence(6000)),
        ("divisor", divisor_sequence(6000)),
    ):
        for a, c, N in ((1, 3, 40.0), (2, 5, 60.0)):
            rep = voronoi_step_check(seq, a, c, N)
            print(f"  {kind:10s} (a={a}, c={c}, N={N:.0f}): relative {rep.details['relative']:.3e}")
    print("  the divisor rows include the logarithmic main term (Euler gamma)")


if __name__ == "__main__":
    windows()
    dual_decay()
    transforms()
    summation_formula()
