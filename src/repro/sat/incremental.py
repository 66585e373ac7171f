"""Incremental clause state for stochastic local search on CNF formulas.

The WalkSAT hot loop asks three questions per flip: *which clauses are
unsatisfied?*, *what is the break count of each variable of the picked
clause?*, and *what changes when the chosen variable flips?*.  The batch
answers rebuild the full ``(n_clauses, width)`` literal matrix for every
question — O(m·w) per query and O(k·m·w) per flip.  This module answers all
three from counters maintained across flips, mirroring the CSP
:class:`~repro.csp.permutation.DeltaEvaluator` design:

* :class:`ClauseEvaluator` — per-formula immutable precomputation: for each
  variable, its ascending occurrence list (clause, positive and negative
  literal multiplicities), and from it, for each (variable, current value)
  pair, three flat ``list[int]`` tables — the break candidates, the make
  clauses and the signed count deltas of a flip.  Shared by every run on
  the formula (memoised via :meth:`repro.sat.cnf.CNFFormula.clause_evaluator`).
* :class:`ClauseState` — per-run mutable state: the assignment as a
  ``list[bool]``, the number of true literals per clause as a
  ``list[int]``, and the unsatisfied-clause set as a dynamic array with
  O(1) membership updates (swap-remove with a position table).  One flip
  costs O(occurrences of the flipped variable) of plain Python over the
  flat tables: at the 6–13 occurrences of a 3-SAT variable, indexing
  Python lists is several times cheaper than a NumPy gather/scatter call.
* :class:`IncrementalClausePath` / :class:`BatchClausePath` — the two
  interchangeable :class:`~repro.evaluation.EvaluationPath` implementations
  WalkSAT consumes.  The batch path recomputes satisfaction from scratch
  through :meth:`CNFFormula.clause_satisfaction` (the cross-check oracle)
  but applies *identical* unsatisfied-set edits, so for a given seed both
  paths present the same clause at the same rank and the solver takes
  bit-identical decisions on either.

Exactness contract (pinned by ``tests/sat/test_incremental.py``): after any
sequence of flips and resets, ``state.true_counts`` equals
``formula.true_literal_counts(assignment)``, ``break_count``/``make_count``
equal :meth:`CNFFormula.break_count`/:meth:`CNFFormula.make_count`, and the
unsatisfied set equals ``formula.unsatisfied_clauses(assignment)`` as a set
— with identical internal ordering on both paths.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.evaluation import EvaluationPath, IncrementalEvaluator, IncrementalState
from repro.sat.cnf import CNFFormula

__all__ = [
    "BatchClausePath",
    "ClauseEvaluator",
    "ClausePath",
    "ClauseState",
    "IncrementalClausePath",
]


class ClauseState(IncrementalState):
    """Mutable incremental state of one WalkSAT run.

    Attributes
    ----------
    values:
        The assignment the counters describe, as an owned ``list[bool]``
        indexed by 0-based variable; :attr:`assignment` reads it as a
        boolean array.
    true_counts:
        ``list[int]``: number of true literal slots per clause (duplicate
        literals counted, exactly :meth:`CNFFormula.true_literal_counts`).
    unsat_list / unsat_pos:
        The unsatisfied-clause set as a dynamic array plus a clause-indexed
        position table (``-1`` when absent).  Edited only by
        :meth:`apply_transitions`, whose deterministic rules keep the
        incremental and batch paths in bit-identical orderings.
    """

    def __init__(self, values: list[bool], true_counts: list[int]) -> None:
        self.values = values
        self.true_counts = true_counts
        # The set starts in ascending clause order.
        self.unsat_list = [clause for clause, count in enumerate(true_counts) if count == 0]
        self.unsat_pos = [-1] * len(true_counts)
        for position, clause in enumerate(self.unsat_list):
            self.unsat_pos[clause] = position

    @classmethod
    def for_assignment(cls, formula: CNFFormula, assignment: np.ndarray) -> "ClauseState":
        """State of ``assignment`` on ``formula``, counted from scratch."""
        assignment = np.asarray(assignment, dtype=bool)
        return cls(assignment.tolist(), formula.true_literal_counts(assignment).tolist())

    @property
    def assignment(self) -> np.ndarray:
        """The assignment as a fresh boolean array (a copy of :attr:`values`)."""
        return np.array(self.values, dtype=bool)

    # -- the unsatisfied-clause set ------------------------------------
    @property
    def cost(self) -> int:  # type: ignore[override]
        """Number of unsatisfied clauses (the global error)."""
        return len(self.unsat_list)

    @property
    def n_unsat(self) -> int:
        return len(self.unsat_list)

    def unsat_clause(self, rank: int) -> int:
        """The clause stored at ``rank`` in the maintained set."""
        return self.unsat_list[rank]

    def apply_transitions(self, became_sat: list[int], became_unsat: list[int]) -> None:
        """Commit one flip's clause transitions, in the canonical order.

        Both arguments are ``int`` lists in ascending clause order.  Each
        newly-satisfied clause is swap-removed (the last entry takes its
        position), then each newly-unsatisfied clause is appended.  Every
        path implementation funnels its edits through here, which is what
        makes the internal ordering (and therefore the clause picked for a
        given RNG draw) path-invariant.
        """
        unsat_list, unsat_pos = self.unsat_list, self.unsat_pos
        for clause in became_sat:
            position = unsat_pos[clause]
            last = unsat_list[-1]
            unsat_list[position] = last
            unsat_pos[last] = position
            unsat_list.pop()
            unsat_pos[clause] = -1
        for clause in became_unsat:
            unsat_pos[clause] = len(unsat_list)
            unsat_list.append(clause)


class ClauseEvaluator(IncrementalEvaluator):
    """Per-formula flat tables driving O(occurrences) flips.

    Built once per formula, all as plain Python lists:

    * ``occurrences[v]`` — variable ``v``'s (0-based) occurrences as flat
      ``[clause, positive, negative, ...]`` triples in ascending clause
      order, where ``positive`` / ``negative`` count the literals of ``v``
      of each sign in that clause (duplicates and tautological clauses are
      handled exactly).  The lockstep kernel builds its rectangular
      arrays from the same lists.
    * ``clause_variables[c]`` — ``[abs(lit) - 1 for lit in clause]``, the
      variable of each position of clause ``c`` (duplicates kept).
    * Per (variable, current value), under key ``2 * v + value`` and with
      ``current`` / ``new`` the variable's true-literal multiplicity in a
      clause before / after the flip:

      - ``_breaks`` — flat ``[clause, current, ...]`` pairs for the clauses
        with ``current > 0 and new == 0``: the flip breaks such a clause
        iff the variable holds every true literal, ``count == current``;
      - ``_makes`` — the clauses with ``new > 0``, which the flip makes iff
        they are unsatisfied;
      - ``_deltas`` — flat ``[clause, new - current, ...]`` pairs, ascending,
        for the clauses whose count the flip changes.
    """

    def __init__(self, formula: CNFFormula) -> None:
        self.formula = formula
        occurrences: list[list[int]] = [[] for _ in range(formula.n_variables)]
        for index, clause in enumerate(formula.clauses):
            for literal in clause:
                row = occurrences[abs(literal) - 1]
                if not row or row[-3] != index:
                    row += (index, 0, 0)
                row[-2 if literal > 0 else -1] += 1
        self.occurrences = occurrences
        self.clause_variables = [[abs(lit) - 1 for lit in clause] for clause in formula.clauses]
        self._breaks: list[list[int]] = []
        self._makes: list[list[int]] = []
        self._deltas: list[list[int]] = []
        for row in occurrences:
            triples = [row[i : i + 3] for i in range(0, len(row), 3)]
            for value in (False, True):
                breaks: list[int] = []
                makes: list[int] = []
                deltas: list[int] = []
                for clause, positive, negative in triples:
                    current, new = (positive, negative) if value else (negative, positive)
                    if current > 0 and new == 0:
                        breaks += (clause, current)
                    if new > 0:
                        makes.append(clause)
                    if new != current:
                        deltas += (clause, new - current)
                self._breaks.append(breaks)
                self._makes.append(makes)
                self._deltas.append(deltas)

    # ------------------------------------------------------------------
    def attach(self, assignment: np.ndarray) -> ClauseState:
        """Build the incremental state for an assignment (copies it)."""
        return ClauseState.for_assignment(self.formula, assignment)

    def break_count(self, state: ClauseState, variable: int) -> int:
        """Satisfied clauses that flipping ``variable`` would unsatisfy.

        A clause breaks iff the variable contributes *every* currently-true
        literal (``count == current > 0``) and contributes none after the
        flip (``new == 0``).  Exactly :meth:`CNFFormula.break_count`.
        """
        counts = state.true_counts
        pairs = iter(self._breaks[2 * variable + state.values[variable]])
        broken = 0
        for clause, current in zip(pairs, pairs):
            if counts[clause] == current:
                broken += 1
        return broken

    def make_count(self, state: ClauseState, variable: int) -> int:
        """Unsatisfied clauses that flipping ``variable`` would satisfy."""
        counts = state.true_counts
        made = 0
        for clause in self._makes[2 * variable + state.values[variable]]:
            if counts[clause] == 0:
                made += 1
        return made

    def flip(self, state: ClauseState, variable: int) -> None:
        """Flip ``variable``: update counts and the unsatisfied set.

        O(occurrences of ``variable``); the delta table is ascending, so
        the transition lists handed to :meth:`ClauseState.apply_transitions`
        are ascending too — the same order the batch oracle derives from
        ``np.flatnonzero``.
        """
        counts = state.true_counts
        values = state.values
        value = values[variable]
        pairs = iter(self._deltas[2 * variable + value])
        became_sat: list[int] = []
        became_unsat: list[int] = []
        for clause, delta in zip(pairs, pairs):
            before = counts[clause]
            after = before + delta
            counts[clause] = after
            if before == 0:  # a zero count can only rise: delta > 0
                became_sat.append(clause)
            elif after == 0:
                became_unsat.append(clause)
        values[variable] = not value
        state.apply_transitions(became_sat, became_unsat)


class ClausePath(EvaluationPath):
    """Query surface WalkSAT's hot loop consumes, shared by both paths."""

    @property
    @abc.abstractmethod
    def assignment(self) -> np.ndarray:
        """The current assignment, as a fresh boolean array."""

    @property
    @abc.abstractmethod
    def n_unsat(self) -> int:
        """Number of unsatisfied clauses."""

    @abc.abstractmethod
    def unsat_clause(self, rank: int) -> int:
        """The clause at ``rank`` in the maintained unsatisfied set."""

    @abc.abstractmethod
    def break_count(self, variable: int) -> int:
        """WalkSAT break score of ``variable`` under the current assignment."""

    @abc.abstractmethod
    def make_count(self, variable: int) -> int:
        """WalkSAT make score of ``variable`` (used by the Novelty family)."""

    @abc.abstractmethod
    def flip(self, variable: int) -> None:
        """Flip ``variable`` and update the maintained state."""


class IncrementalClausePath(ClausePath):
    """Counter-maintained path: O(occurrences of the flipped variable) per flip."""

    def __init__(self, evaluator: ClauseEvaluator) -> None:
        self._evaluator = evaluator
        self._state: ClauseState | None = None

    @property
    def assignment(self) -> np.ndarray:
        return self._state.assignment

    @property
    def n_unsat(self) -> int:
        return self._state.n_unsat

    def reinit(self, assignment: np.ndarray) -> None:
        if self._state is None:
            self._state = self._evaluator.attach(assignment)
        else:
            self._evaluator.reset(self._state, assignment)

    def unsat_clause(self, rank: int) -> int:
        return self._state.unsat_clause(rank)

    def break_count(self, variable: int) -> int:
        return self._evaluator.break_count(self._state, variable)

    def make_count(self, variable: int) -> int:
        return self._evaluator.make_count(self._state, variable)

    def flip(self, variable: int) -> None:
        self._evaluator.flip(self._state, variable)


class BatchClausePath(ClausePath):
    """Oracle path: full re-evaluation per query, identical set bookkeeping.

    Break counts and clause transitions are recomputed from scratch through
    the vectorised :class:`CNFFormula` methods — this is the path whose
    correctness is obvious, kept as the cross-check oracle.  The
    unsatisfied set is maintained through the same
    :meth:`ClauseState.apply_transitions` edit rules as the incremental
    path (removals then additions, each ascending), so both paths keep
    bit-identical internal orderings.
    """

    def __init__(self, formula: CNFFormula) -> None:
        self._formula = formula
        self._state: ClauseState | None = None

    @property
    def assignment(self) -> np.ndarray:
        return self._state.assignment

    @property
    def n_unsat(self) -> int:
        return self._state.n_unsat

    def reinit(self, assignment: np.ndarray) -> None:
        self._state = ClauseState.for_assignment(self._formula, assignment)

    def unsat_clause(self, rank: int) -> int:
        return self._state.unsat_clause(rank)

    def break_count(self, variable: int) -> int:
        return self._formula.break_count(self._state.assignment, variable)

    def make_count(self, variable: int) -> int:
        return self._formula.make_count(self._state.assignment, variable)

    def flip(self, variable: int) -> None:
        state = self._state
        before = self._formula.clause_satisfaction(state.assignment)
        state.values[variable] = not state.values[variable]
        assignment = state.assignment
        after = self._formula.clause_satisfaction(assignment)
        state.true_counts = self._formula.true_literal_counts(assignment).tolist()
        state.apply_transitions(
            np.flatnonzero(~before & after).tolist(),
            np.flatnonzero(before & ~after).tolist(),
        )
