"""Multi-walk execution substrate (Definition 2 of the paper).

An independent multi-walk runs ``n`` copies of a Las Vegas algorithm with
independent random streams and stops as soon as the first copy finds a
solution.  This package provides two ways to realise it:

* :mod:`repro.multiwalk.simulate` — the *simulated* multi-walk: group
  independent sequential runs into blocks of ``n`` and keep each block's
  minimum.  Because an independent multi-walk involves no communication,
  this is behaviourally identical to a parallel execution and is how the
  reproduction stands in for the paper's 256-core cluster.
* :mod:`repro.multiwalk.parallel` — a real first-finisher-wins executor
  for modest core counts, racing walks through the execution engine
  (:mod:`repro.engine`).

Batches of sequential runs are collected with
:func:`repro.engine.collect_batch`, and all run execution goes through
:mod:`repro.engine`, so every backend produces bit-identical iteration
counts for a given base seed.
"""

from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.parallel import MultiWalkExecutor, emulate_multiwalk
from repro.multiwalk.simulate import (
    MultiwalkMeasurement,
    simulate_multiwalk_from_observations,
    simulate_multiwalk_speedups,
)

__all__ = [
    "MultiWalkExecutor",
    "MultiwalkMeasurement",
    "RuntimeObservations",
    "emulate_multiwalk",
    "simulate_multiwalk_from_observations",
    "simulate_multiwalk_speedups",
]
