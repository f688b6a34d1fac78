"""Benchmark of blocksym, measured from outside through public calls.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large-blocks --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; progress and failed checks go to standard error.  The library
is imported from ``src/`` of the checkout, never from an installed copy.
BLAS runs one thread, and all load comes from this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: a threaded GEMM would depend on the host's speed on two
# virtual CPUs instead of one, and idle BLAS workers busy-wait on the second.
# Must be set before NumPy loads its BLAS.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    src = ROOT / "src"
    if not (src / "blocksym" / "__init__.py").is_file():
        print(f"error: no blocksym sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # needs blocksym on the path

    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        result = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(workdir)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
