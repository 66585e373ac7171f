"""Multi-walk execution substrate (Definition 2 of the paper).

An independent multi-walk runs ``n`` copies of a Las Vegas algorithm with
independent random streams and stops as soon as the first copy finds a
solution.  :mod:`repro.multiwalk.simulate` realises it as the *simulated*
multi-walk: group independent sequential runs into blocks of ``n`` and
keep each block's minimum.  Because an independent multi-walk involves no
communication, this is behaviourally identical to a parallel execution and
is how the reproduction stands in for the paper's 256-core cluster.  A
real first-finisher-wins race is :func:`repro.engine.run_race`.

Batches of sequential runs are collected with
:func:`repro.engine.collect_batch`, and all run execution goes through
:mod:`repro.engine`, so every backend produces bit-identical iteration
counts for a given base seed.
"""

from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.simulate import MultiwalkMeasurement, simulate_multiwalk_speedups

__all__ = [
    "MultiwalkMeasurement",
    "RuntimeObservations",
    "simulate_multiwalk_speedups",
]
