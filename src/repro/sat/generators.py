"""Random k-SAT instance generators.

Two generators are provided:

* :func:`random_ksat` — the classical uniform random k-SAT model with a
  chosen clause count (satisfiability not guaranteed; near the phase
  transition, ratio ≈ 4.27 for 3-SAT, runtimes are heavy-tailed).
  :func:`clause_count_for_ratio` turns a clause-to-variable ratio into
  that count, the natural knob for phase-transition studies (campaigns at
  ratios near 4.27 are censoring-heavy: a fraction of instances is
  unsatisfiable and WalkSAT runs on them always exhaust their budget).
* :func:`random_planted_ksat` — draws a hidden assignment first and only
  keeps clauses satisfied by it, guaranteeing satisfiability so that
  WalkSAT is a genuine Las Vegas algorithm (it terminates with probability
  one given enough flips).
"""

from __future__ import annotations

import numpy as np

from repro.sat.cnf import CNFFormula

__all__ = ["clause_count_for_ratio", "random_ksat", "random_planted_ksat"]


def clause_count_for_ratio(n_variables: int, clause_ratio: float) -> int:
    """Clause count for a target clause-to-variable ratio (≥ 1, rounded)."""
    if clause_ratio <= 0.0:
        raise ValueError(f"clause_ratio must be positive, got {clause_ratio}")
    return max(1, int(round(clause_ratio * n_variables)))


def _random_clause(
    rng: np.random.Generator, n_variables: int, k: int
) -> tuple[int, ...]:
    variables = rng.choice(n_variables, size=k, replace=False) + 1
    signs = rng.integers(0, 2, size=k) * 2 - 1
    return tuple(int(v * s) for v, s in zip(variables, signs))


def random_ksat(
    n_variables: int,
    n_clauses: int,
    k: int = 3,
    *,
    rng: np.random.Generator | None = None,
) -> CNFFormula:
    """Uniform random k-SAT formula with ``n_clauses`` clauses."""
    if n_variables < k:
        raise ValueError(f"need at least k={k} variables, got {n_variables}")
    if n_clauses < 1:
        raise ValueError(f"n_clauses must be >= 1, got {n_clauses}")
    generator = rng if rng is not None else np.random.default_rng()
    clauses = [_random_clause(generator, n_variables, k) for _ in range(n_clauses)]
    return CNFFormula(n_variables, clauses)


def random_planted_ksat(
    n_variables: int,
    n_clauses: int,
    k: int = 3,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[CNFFormula, np.ndarray]:
    """Random k-SAT formula guaranteed satisfiable by a planted assignment.

    Returns the formula together with the hidden satisfying assignment
    (useful for tests; solvers obviously do not get to see it).
    """
    if n_variables < k:
        raise ValueError(f"need at least k={k} variables, got {n_variables}")
    if n_clauses < 1:
        raise ValueError(f"n_clauses must be >= 1, got {n_clauses}")
    generator = rng if rng is not None else np.random.default_rng()
    planted = generator.integers(0, 2, size=n_variables).astype(bool)
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < n_clauses:
        clause = _random_clause(generator, n_variables, k)
        satisfied = any(
            (lit > 0) == bool(planted[abs(lit) - 1]) for lit in clause
        )
        if satisfied:
            clauses.append(clause)
    return CNFFormula(n_variables, clauses), planted
