"""Host speed reference for the benchmark's timings.

The shared host this benchmark was defined on changes speed by up to 1.5x
over minutes, for all processes alike (set-up, workload passes and any
fixed loop move together).  No median over one run removes that, so every
end-to-end time is divided by the median time of a fixed reference loop
measured in the same run, between the timed pieces, and multiplied by
REFERENCE_S.  A time then reads as seconds on the host at the speed it
had when the baseline was taken.  The loop never calls jurymech, so a
change to the program cannot move it.

The loop mixes the three kinds of work jurymech does, weighted roughly as
in the workloads: interpreted scalar arithmetic (model, equilibrium scans)
and small-array numpy with a random generator (the Monte Carlo rounds),
about 20 ms each, and row updates of a tableau-sized array (the simplex),
about 10 ms.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median of reference_seconds() on the 2-core Xeon VM the
# baseline was taken on; fixed, so that every later run uses the same scale.
REFERENCE_S = 0.08

_TABLEAU = np.random.default_rng(0).random((120, 400))


def reference_seconds() -> float:
    """Time one pass of the reference loop."""
    started = time.perf_counter()
    total = 0.0
    for i in range(150_000):
        total += abs(float(i) * 0.5 - 3.0) ** 0.5
    rng = np.random.default_rng(1)
    votes = np.zeros(100, dtype=bool)
    probs = np.linspace(0.1, 0.9, 100)
    for _ in range(4_500):
        votes = rng.random(100) < np.where(votes, probs, 1.0 - probs)
    tableau = _TABLEAU.copy()
    for r in range(110):
        tableau -= np.outer(tableau[:, r % 120], tableau[r % 120]) * 1e-6
    return time.perf_counter() - started


def scale(reference_times: list[float]) -> float:
    """Factor that turns this run's seconds into reference-speed seconds."""
    return REFERENCE_S / statistics.median(reference_times)
