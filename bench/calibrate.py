"""Machine-speed calibration for the end-to-end times.

A shared host's speed can drift by half or more within a minute, so raw
times from runs minutes apart are not comparable.  Every timed call is
therefore followed by one run of a fixed reference kernel in two parts, and
each raw time is converted to *calibrated seconds*:

    calibrated = raw * REF_SECONDS[part] / (median time of that part over
                                            every reference run of the
                                            same process)

The ``python`` part (interpreter loop and LAPACK calls on an 80x80 matrix,
about 3.5 ms) stands for interpreter-bound work: small SDPs, per-block
solver loops, row assembly.  The ``dense`` part (one Cholesky factorisation
of a 400x400 matrix, about 3 ms) stands for dense factorisations of large
matrices.  Each call names the part its time follows (``Call.speed``).  On
a shared 2-core x86-64 host the two kinds of work drift apart: the
one-large-block solves of ``alpha-K`` held their speed while small calls
and the interpreter loop slowed by a third, so one mixed kernel added
noise to the first and removed too little from the second.  The median is
over the whole process because single reference runs are noisy: scaling
each call by the reference runs within a second of it gave run-to-run
spreads two to four times larger.

REF_SECONDS are the parts' times on an uncontended 2-core x86-64 machine,
so calibrated seconds read as seconds on that machine.  The kernel is
fixed here and never runs inside the program, so a change to the program
moves calibrated times exactly as it moves raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REF_SECONDS = {"python": 0.0035, "dense": 0.003}


class Reference:
    """The reference kernel; construct after the BLAS thread count is pinned."""

    def __init__(self):
        import numpy as np

        self._np = np
        g = np.random.default_rng(0).standard_normal((80, 80))
        self._spd = g @ g.T + 80.0 * np.eye(80)
        g = np.random.default_rng(1).standard_normal((400, 400))
        self._large = g @ g.T + 400.0 * np.eye(400)

    def __call__(self) -> dict[str, float]:
        start = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(3):
            self._np.linalg.eigh(self._spd)
            self._np.linalg.cholesky(self._spd)
        middle = perf_counter()
        self._np.linalg.cholesky(self._large)
        return {"python": middle - start, "dense": perf_counter() - middle}


def factors(refs: list[dict[str, float]]) -> dict[str, float]:
    """Per part, raw seconds to calibrated seconds, from one process's
    reference runs."""
    return {part: ref / statistics.median(r[part] for r in refs)
            for part, ref in REF_SECONDS.items()}
