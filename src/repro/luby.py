"""The Luby universal restart sequence.

A NumPy-only leaf module: the WalkSAT restart cadence
(:mod:`repro.sat.vectorized`) and the adaptive campaign controller's cutoff
schedule both need the sequence, and importing it from here keeps a
solver's import footprint free of SciPy.  :mod:`repro.core.restarts`
re-exports it next to the restart analysis it belongs to.
"""

from __future__ import annotations

import numpy as np

__all__ = ["luby_sequence"]


def luby_sequence(length: int, unit: float = 1.0) -> np.ndarray:
    """First ``length`` terms of the Luby universal restart sequence times ``unit``.

    The sequence 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ... is within a
    logarithmic factor of the optimal restart strategy for *any* unknown
    runtime distribution.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if unit <= 0.0:
        raise ValueError(f"unit must be positive, got {unit}")
    values: list[int] = []
    while len(values) < length:
        k = len(values) + 1
        # t_k = 2^(i-1) if k = 2^i - 1, else t_{k - 2^(i-1) + 1} with 2^(i-1) <= k < 2^i - 1
        i = k.bit_length()
        if k == (1 << i) - 1:
            values.append(1 << (i - 1))
        else:
            values.append(values[k - (1 << (i - 1))])
    return unit * np.asarray(values[:length], dtype=float)
