"""Host-speed reference: a fixed Python and numpy kernel in a fresh interpreter.

Usage: python3 perfbench/reference.py

Prints the kernel's time in seconds, the numpy import included. The kernel
mixes what the workloads do (strided updates of a 16 MB numpy array as in a
divisor sieve, a 1.2-Mbit big-integer square as in the tau build, dictionary
and integer loops, small complex numpy vectors, dense products as in the
Voronoi kernel batches) but shares no
code with deltasums, so a change to the program cannot move it. run.py runs
it between workload iterations and scales the end-to-end times by it, which
cancels the drift of the host's speed between runs.
"""

import time

START = time.perf_counter()

import numpy as np  # noqa: E402


def main() -> None:
    sieve = np.zeros(2_000_001)
    for d in range(1, 30_000):
        sieve[d::d] += 1.0
    big = int.from_bytes(np.random.default_rng(1).bytes(150_000), "little")
    square = big * big
    table = {i * 7919 % 1_000_003: i * i for i in range(100_000)}
    residue = sum(v % 97 for v in table.values())
    x = np.arange(1, 1001, dtype=np.float64)
    acc = 0j
    for k in range(800):
        acc += np.exp(2j * np.pi * x * k / 7919.0).sum()
    kernel = np.cos(np.outer(x[:300], x[:300]) / 300.0)
    for _ in range(12):
        kernel = kernel @ kernel.T / 300.0
    acc += kernel.trace()
    elapsed = time.perf_counter() - START
    low = (1 << 64) - 1
    if sieve[720] != 30.0 or square & low != (big & low) ** 2 & low or residue <= 0 or acc != acc:
        raise SystemExit("reference kernel computed a wrong value")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
