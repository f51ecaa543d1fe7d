"""occakit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload readme_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line
before it records the environment.  See ``perfbench/README.md``.
"""

import os
import sys
import time

START = time.perf_counter()

# BLAS runs on one thread, set in this process's own environment before
# numpy loads, so the only parallelism is the Jacobi thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("OCCA_KIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("readme_pipeline", "wide_q_lt_n", "small_tight"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "occakit" / "__init__.py").is_file():
        print(f"error: no occakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import occakit  # noqa: F401
    from perfbench import bench

    import_s = time.perf_counter() - START
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s, ROOT)
    print("env " + json.dumps(bench.environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
