"""One benchmark iteration in a fresh interpreter.

Usage: child.py WORKLOAD SEED TRACE CHECK WORKDIR

``import deltasums`` comes first so that the moment it completes marks the end
of set-up. The workload then runs, timed with perf_counter and
process_time; peak RSS is read before the oracles load mpmath or sympy.
With CHECK 0 the oracles are skipped and only the output digest is reported.
WORKLOAD ``setup`` only imports the package. The result is one JSON line.
"""

import sys
import time

import deltasums

IMPORT_DONE = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    workload, seed, trace, check, workdir = (
        argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1", Path(argv[5])
    )
    result = {"import_done": IMPORT_DONE}
    if workload == "setup":
        print(json.dumps(result))
        return 0

    import tracer as tracing
    from workloads import WORKLOADS

    tracer = tracing.install(deltasums) if trace else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        outcome = WORKLOADS[workload](deltasums, seed, workdir, tracer)
    except Exception:
        traceback.print_exc()
        outcome = None
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()

    if outcome is None:
        result.update(attempted=1, failed=1, digest=None)
    else:
        tally = outcome.check() if check else None
        digest = hashlib.sha256(outcome.text().encode()).hexdigest()
        result.update(
            attempted=tally.attempted if tally else 0, failed=tally.failed if tally else 0, digest=digest
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
