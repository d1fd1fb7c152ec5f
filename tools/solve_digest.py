"""Digest of every interior-point solve the benchmark corpora make.

    python3 tools/solve_digest.py [--root CHECKOUT] [--seeds 1 2 3] [--passes 3]

Runs the calls of ``bench/workloads.py`` (imported, not modified) against
the ``coposos`` of CHECKOUT (default: this checkout) with one BLAS thread,
and records every solve made through ``coposos.relax.solve`` and
``coposos.cones.solve``.  Each workload runs its corpus ``--passes`` times
in one process, ``member`` at each seed in turn, so that the later passes
meet cached layouts and warm membership families.
Per workload it prints the solve count and the first 16 hex digits of a
SHA-256 over the status, the iteration count and the x, y and s bytes of
every solve, in order, and then one line for all workloads.  Two checkouts
that print the same digests solve every SDP to the same bytes.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: outcomes depend on it

import argparse
import hashlib
import sys
from pathlib import Path

WORKLOADS = ("alpha-K", "alpha-Q", "chi", "member")


def _solution_bytes(sol) -> bytes:
    parts = [*(sol.x_blocks or []), *([] if sol.y is None else [sol.y]), *(sol.s_blocks or [])]
    head = f"{sol.status.value}:{sol.iterations}:".encode()
    return head + b"".join(part.astype(float).tobytes() for part in parts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and bench/ are used")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="member corpus seeds, run in turn")
    parser.add_argument("--passes", type=int, default=3,
                        help="passes over each corpus")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]

    import numpy as np
    import workloads
    from coposos import cones, relax

    digest, count = hashlib.sha256(), 0

    def recorded(solve):
        def run(*a, **kw):
            nonlocal count
            sol = solve(*a, **kw)
            digest.update(_solution_bytes(sol))
            count += 1
            return sol
        return run

    cones.solve, relax.solve = recorded(cones.solve), recorded(relax.solve)
    everything = hashlib.sha256()
    for workload in WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for seed in args.seeds if workload == "member" else [1]:
            calls = workloads.build_calls(workload, seed)
            for _ in range(args.passes):
                for call in calls:
                    call()
        everything.update(digest.digest())
        print(f"{workload:8s} {count:4d} solves  {digest.hexdigest()[:16]}")
    print(f"{'all':8s} {'':4s}         {everything.hexdigest()[:16]}  (numpy {np.__version__})")


if __name__ == "__main__":
    main()
