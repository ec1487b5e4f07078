"""Command line of the harkit benchmark.

    python3 perfbench/run.py --workload prep|personal|loso --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it imports harkit from the checkout's
``src`` directory, never from an installed copy, and exits with code 2
without printing a result when that directory is missing. BLAS is pinned to
one thread before NumPy is first imported.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_source() -> bool:
    """Pin BLAS to one thread and put the checkout's src first on the path."""
    if not (SRC / "harkit" / "__init__.py").is_file():
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv: list[str] | None = None) -> int:
    if not use_checkout_source():
        print(f"harkit source not found: {SRC / 'harkit'} is missing", file=sys.stderr)
        return 2
    import bench

    return bench.main(argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
