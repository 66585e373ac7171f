"""Boolean satisfiability substrate.

The paper's conclusion names SAT solvers (algorithm portfolios in the SAT
community are the multi-walk scheme under another name) as the next target
for the prediction model.  This package provides the substrate needed to
exercise that claim offline: CNF formulas, a random k-SAT generator with a
controllable clause-to-variable ratio, and a planted-solution generator that
guarantees satisfiability (so WalkSAT runs are proper Las Vegas runs that
terminate with probability one).
"""

from repro.sat.cnf import CNFFormula, Clause
from repro.sat.dimacs import (
    DEFAULT_INSTANCE,
    bundled_instance_names,
    bundled_instance_path,
    load_bundled_instance,
)
from repro.sat.generators import (
    clause_count_for_ratio,
    random_ksat,
    random_planted_ksat,
)
from repro.sat.incremental import BatchClausePath, ClauseEvaluator, IncrementalClausePath
from repro.sat.vectorized import LockstepClauseState, LockstepEvaluator

__all__ = [
    "BatchClausePath",
    "CNFFormula",
    "Clause",
    "ClauseEvaluator",
    "DEFAULT_INSTANCE",
    "IncrementalClausePath",
    "LockstepClauseState",
    "LockstepEvaluator",
    "bundled_instance_names",
    "bundled_instance_path",
    "clause_count_for_ratio",
    "load_bundled_instance",
    "random_ksat",
    "random_planted_ksat",
]
