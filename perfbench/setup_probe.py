"""Time the benchmark's set-up in a fresh interpreter.

Usage: python3 setup_probe.py ROOT WORKLOAD CHECKPOINT [SERVED_MODEL]

The clocks start before numpy and denoq are imported, so the figures cover
the imports, the config parse, the checkpoint hash check and load, and for
int_serve the DMQ1 import and shift folding. Prints {"wall_s", "cpu_s",
"scaled_s"}: wall time, process CPU time, and wall time scaled to the
reference host speed by hostspeed.KERNEL_SAMPLES runs of the reference
kernel right after the set-up (see hostspeed.py).
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    t0, c0 = time.perf_counter(), time.process_time()
    root = Path(argv[1])
    sys.path.insert(0, str(root / "src"))
    import workloads

    served = Path(argv[4]) if len(argv) > 4 else None
    workloads.setup(argv[2], root, Path(argv[3]), served)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    import hostspeed

    hostspeed.kernel()  # the first call pays einsum's one-time set-up
    samples = [hostspeed.kernel() for _ in range(hostspeed.KERNEL_SAMPLES)]
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "scaled_s": hostspeed.scale(wall, samples)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
