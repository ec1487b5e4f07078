"""Rewrite the stored feature reference from the current harkit source.

    python3 perfbench/make_reference.py

Run it only when a change to banks A or B is meant to change their values,
and say so in the change: every benchmark run compares against this file.
"""
import sys

import numpy as np

import run


def main() -> int:
    if not run.use_checkout_source():
        print(f"harkit source not found under {run.SRC}", file=sys.stderr)
        return 2
    import bench

    np.savez(bench.REFERENCE, **bench.reference_matrices())
    print(f"wrote {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
