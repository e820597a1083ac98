"""The trivial delta method: an exact indicator from divisor-dissected sums.

Shows the expansion of the congruence indicator delta(n = m mod q), then the
point of the construction: with a modulus p*M exceeding the range of n - r*ell,
the congruence detects the equality n = r*ell exactly, which turns a shifted
convolution into main term plus correction with no analytic error.
"""

import numpy as np

from deltasums import (
    delta_detection_expansion,
    hecke_amplifier_identity,
    make_pipeline_config,
    trivial_delta,
)


def indicator_table(q: int = 12) -> None:
    print(f"trivial_delta(n, 40, {q}) against the congruence indicator:")
    row = []
    for n in range(30, 55):
        val = trivial_delta(n, 40, q)
        row.append(f"{val.real:+.1e}" if abs(val) > 1e-14 else "   0   ")
    print("  n = 30..54:", " ".join(row))
    worst = max(
        abs(trivial_delta(40 + d, 40, q) - (1.0 if d % q == 0 else 0.0))
        for d in range(-500, 501)
    )
    print(f"  max deviation over |n - 40| <= 500: {worst:.3e}")


def detection(M: int = 101) -> None:
    # p*M > 8*N*L makes the congruence an equality detector on the sum range
    cfg = make_pipeline_config(kind="divisor", M=M, N=10.0, L=2, P=5.0)
    ps = cfg.amplifier().ps
    print(f"\ndetection mod p*{M}, p in {ps}: p*M = {ps[0]*M} > 8*N*L = {8*10*2:.0f}")
    rep = delta_detection_expansion(cfg)
    print(f"  {rep.line()}")
    # the detection table D_q is an exact integer indicator
    print(f"  residual {rep.residual:.3e} can come only from the FFT correlation and the float sums")


def amplifier_identity() -> None:
    print("\nHecke-relation rearrangement (exact identity, both coefficient kinds):")
    for kind in ("divisor", "delta_form"):
        cfg = make_pipeline_config(kind=kind, M=11, N=20.0, L=3, P=5.0)
        rep = hecke_amplifier_identity(cfg)
        print(f"  {rep.line()}")


if __name__ == "__main__":
    indicator_table()
    detection()
    amplifier_identity()
