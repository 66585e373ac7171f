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
* :class:`IncrementalClausePath` — one run's state over those tables: the
  assignment as a ``list[bool]``, the number of true literals per clause
  as a ``list[int]``, and the unsatisfied-clause set as a dynamic array
  with O(1) membership updates (swap-remove with a position table), plus
  the ``break_count`` / ``make_count`` / ``flip`` queries WalkSAT's hot
  loop makes.  One flip costs O(occurrences of the flipped variable) of
  plain Python over the flat tables: at the 6–13 occurrences of a 3-SAT
  variable, indexing Python lists is several times cheaper than a NumPy
  gather/scatter call.
* :class:`BatchClausePath` — the cross-check oracle: the same object with
  those three queries recomputed from scratch through
  :meth:`CNFFormula.clause_satisfaction` and friends.  It applies
  *identical* unsatisfied-set edits, so for a given seed both paths
  present the same clause at the same rank and the solver takes
  bit-identical decisions on either.

Exactness contract (pinned by ``tests/sat/test_incremental.py``): after any
sequence of flips and reinits, ``path.true_counts`` equals
``formula.true_literal_counts(path.assignment)``, ``break_count``/``make_count``
equal :meth:`CNFFormula.break_count`/:meth:`CNFFormula.make_count`, and the
unsatisfied set equals ``formula.unsatisfied_clauses(assignment)`` as a set
— with identical internal ordering on both paths.
"""

from __future__ import annotations

import numpy as np

from repro.sat.cnf import CNFFormula

__all__ = ["BatchClausePath", "ClauseEvaluator", "IncrementalClausePath"]


class ClauseEvaluator:
    """Per-formula flat tables driving O(occurrences) flips.

    Built once per formula and never mutated, so every run on the formula
    shares them (a run's own state lives on its
    :class:`IncrementalClausePath`); all are plain Python lists:

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

      - ``breaks`` — flat ``[clause, current, ...]`` pairs for the clauses
        with ``current > 0 and new == 0``: the flip breaks such a clause
        iff the variable holds every true literal, ``count == current``;
      - ``makes`` — the clauses with ``new > 0``, which the flip makes iff
        they are unsatisfied;
      - ``deltas`` — flat ``[clause, new - current, ...]`` pairs, ascending,
        for the clauses whose count the flip changes.
    """

    def __init__(self, formula: CNFFormula) -> None:
        occurrences: list[list[int]] = [[] for _ in range(formula.n_variables)]
        for index, clause in enumerate(formula.clauses):
            for literal in clause:
                row = occurrences[abs(literal) - 1]
                if not row or row[-3] != index:
                    row += (index, 0, 0)
                row[-2 if literal > 0 else -1] += 1
        self.occurrences = occurrences
        self.clause_variables = [[abs(lit) - 1 for lit in clause] for clause in formula.clauses]
        self.breaks: list[list[int]] = []
        self.makes: list[list[int]] = []
        self.deltas: list[list[int]] = []
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
                self.breaks.append(breaks)
                self.makes.append(makes)
                self.deltas.append(deltas)


class IncrementalClausePath:
    """One WalkSAT run's clause state: O(occurrences of the flipped variable) per flip.

    Attributes
    ----------
    values:
        The current assignment as an owned ``list[bool]`` indexed by
        0-based variable; :attr:`assignment` reads it as a boolean array.
    true_counts:
        ``list[int]``: number of true literal slots per clause (duplicate
        literals counted, exactly :meth:`CNFFormula.true_literal_counts`).
    unsat_list / unsat_pos:
        The unsatisfied-clause set as a dynamic array plus a clause-indexed
        position table (``-1`` when absent).  Edited only by
        :meth:`apply_transitions`, whose deterministic rules keep the
        incremental and batch paths in bit-identical orderings.

    All four are rebuilt from scratch by :meth:`reinit` (run start,
    restart); the per-formula tables come from the formula's shared
    :class:`ClauseEvaluator`.
    """

    def __init__(self, formula: CNFFormula) -> None:
        self.formula = formula
        tables = formula.clause_evaluator()
        self._breaks = tables.breaks
        self._makes = tables.makes
        self._deltas = tables.deltas
        self.values: list[bool] = []
        self.true_counts: list[int] = []
        self.unsat_list: list[int] = []
        self.unsat_pos: list[int] = []

    def reinit(self, assignment: np.ndarray) -> None:
        """Bind the path to ``assignment`` (copied), counting from scratch."""
        assignment = np.asarray(assignment, dtype=bool)
        self.values = assignment.tolist()
        self.true_counts = self.formula.true_literal_counts(assignment).tolist()
        # The set starts in ascending clause order.
        self.unsat_list = [c for c, count in enumerate(self.true_counts) if count == 0]
        self.unsat_pos = [-1] * len(self.true_counts)
        for position, clause in enumerate(self.unsat_list):
            self.unsat_pos[clause] = position

    @property
    def assignment(self) -> np.ndarray:
        """The assignment as a fresh boolean array (a copy of :attr:`values`)."""
        return np.array(self.values, dtype=bool)

    # -- the unsatisfied-clause set ------------------------------------
    @property
    def n_unsat(self) -> int:
        """Number of unsatisfied clauses (the global error)."""
        return len(self.unsat_list)

    def unsat_clause(self, rank: int) -> int:
        """The clause stored at ``rank`` in the maintained set."""
        return self.unsat_list[rank]

    def apply_transitions(self, became_sat: list[int], became_unsat: list[int]) -> None:
        """Commit one flip's clause transitions, in the canonical order.

        Both arguments are ``int`` lists in ascending clause order.  Each
        newly-satisfied clause is swap-removed (the last entry takes its
        position), then each newly-unsatisfied clause is appended.  Both
        paths funnel their edits through here, which is what makes the
        internal ordering (and therefore the clause picked for a given RNG
        draw) path-invariant.
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

    # -- the per-flip queries ------------------------------------------
    def break_count(self, variable: int) -> int:
        """Satisfied clauses that flipping ``variable`` would unsatisfy.

        A clause breaks iff the variable contributes *every* currently-true
        literal (``count == current > 0``) and contributes none after the
        flip (``new == 0``).  Exactly :meth:`CNFFormula.break_count`.
        """
        counts = self.true_counts
        pairs = iter(self._breaks[2 * variable + self.values[variable]])
        broken = 0
        for clause, current in zip(pairs, pairs):
            if counts[clause] == current:
                broken += 1
        return broken

    def make_count(self, variable: int) -> int:
        """Unsatisfied clauses that flipping ``variable`` would satisfy."""
        counts = self.true_counts
        made = 0
        for clause in self._makes[2 * variable + self.values[variable]]:
            if counts[clause] == 0:
                made += 1
        return made

    def flip(self, variable: int) -> None:
        """Flip ``variable``: update counts and the unsatisfied set.

        O(occurrences of ``variable``); the delta table is ascending, so
        the transition lists handed to :meth:`apply_transitions` are
        ascending too — the same order the batch oracle derives from
        ``np.flatnonzero``.
        """
        counts = self.true_counts
        values = self.values
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
        self.apply_transitions(became_sat, became_unsat)


class BatchClausePath(IncrementalClausePath):
    """Oracle path: the three per-flip queries re-evaluated from scratch.

    Break and make counts and clause transitions are recomputed through
    the vectorised :class:`CNFFormula` methods — the path whose correctness
    is obvious, kept as the cross-check oracle.  Everything else, the
    unsatisfied set and its :meth:`apply_transitions` edit rules included,
    is inherited, so both paths keep bit-identical internal orderings.
    """

    def break_count(self, variable: int) -> int:
        return self.formula.break_count(self.assignment, variable)

    def make_count(self, variable: int) -> int:
        return self.formula.make_count(self.assignment, variable)

    def flip(self, variable: int) -> None:
        formula = self.formula
        before = formula.clause_satisfaction(self.assignment)
        self.values[variable] = not self.values[variable]
        assignment = self.assignment
        after = formula.clause_satisfaction(assignment)
        self.true_counts = formula.true_literal_counts(assignment).tolist()
        self.apply_transitions(
            np.flatnonzero(~before & after).tolist(),
            np.flatnonzero(before & ~after).tolist(),
        )
