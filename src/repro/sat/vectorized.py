"""Lockstep batched multi-walk kernel: K independent WalkSAT walks, one SIMD loop.

The paper's subject is the speedup of racing K independent Las Vegas walks;
until this module the repo realised that only as K OS processes, each
stepping the scalar incremental kernel of :mod:`repro.sat.incremental`.
Here the K walks of *one* instance advance in lockstep instead: a
``(K, n)`` assignment matrix, a ``(K, m)`` per-clause true-literal-count
matrix and per-walk unsatisfied-clause bookkeeping, all held in flat numpy
arrays, with the per-flip questions (break counts of the picked clauses'
variables, the count/transition updates of the chosen flips) answered for
*all* walks in a handful of vectorised gather/scatter operations per step.

Exactness contract
------------------
The kernel is **bit-identical per seed** to the scalar solver: walk ``i``
of :func:`run_lockstep` consumes its own ``np.random.Generator`` (seeded
with ``seeds[i]``) through *exactly* the call sequence of
``WalkSAT._run`` — the initial ``random_assignment`` draw, one
``integers(n_unsat)`` clause pick per flip, the SKC selection draws of
:func:`repro.solvers.policies.skc_select`, and a ``random_assignment``
redraw per restart.  Only the surrounding arithmetic is batched; the RNG
streams, the unsatisfied-set orderings (same
removals-then-additions-ascending edit rules as
:class:`~repro.sat.incremental.IncrementalClausePath`) and therefore the
flip sequences, restart cadences and solutions are the scalar ones, pinned by
``tests/sat/test_vectorized.py``.  Walks retire from the batch as they
solve or exhaust ``max_flips``; the survivors keep stepping.

The dense numeric state is deliberately GPU-portable: assignments, clause
counts and occurrence lists are rectangular int/bool arrays (occurrence
lists padded to the maximum occurrence count, with a trash column
absorbing the padded scatter lanes), and every per-flip *computation* is a
batched array operation, so a CuPy/JAX port of the math is a dtype swap
away.  The only host-side state is per-walk scalar bookkeeping — loop
counters, generators, and the unsatisfied-set cursors, whose deterministic
swap-remove edits are inherently sequential per walk (a GPU port would
replace them with a batched compaction, as scalar exactness ends at that
seam anyway).

The scalar incremental path stays the cross-check oracle; see
:mod:`repro.engine.lockstep` for the execution-engine backend built on this
kernel and ``benchmarks/test_bench_lockstep.py`` for the throughput gate.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.luby import luby_sequence
from repro.sat.cnf import CNFFormula

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (solvers -> sat)
    from repro.solvers.base import RunResult

__all__ = [
    "LockstepClauseState",
    "LockstepEvaluator",
    "restart_cutoff",
    "run_lockstep",
]

#: Flip policies the lockstep kernel vectorises.  Both run the SKC
#: selection rule (adaptive merely retunes its noise from the unsat count
#: the state already maintains, consuming no extra RNG draws); the Novelty
#: family tracks per-variable flip ages with an RNG-free ranking step that
#: has no batched implementation yet, so it falls back to the scalar path
#: (see :meth:`repro.solvers.walksat.WalkSAT.lockstep_supported`).
LOCKSTEP_POLICIES: tuple[str, ...] = ("walksat", "adaptive")


def restart_cutoff(restart_after: int | None, schedule: str, n_restarts: int) -> int | None:
    """Flip cutoff of the ``n_restarts + 1``-th trajectory segment.

    ``"fixed"`` restarts every ``restart_after`` flips; ``"luby"`` scales
    ``restart_after`` by the Luby universal sequence (1, 1, 2, 1, 1, 2,
    4, ...), i.e. cutoffs are Luby terms *in units of* ``restart_after``.
    Shared by the scalar ``WalkSAT._run`` loop and the lockstep kernel so
    the two cadences cannot drift apart.
    """
    if restart_after is None:
        return None
    if schedule == "fixed":
        return int(restart_after)
    # Luby terms are small exact powers of two; the float round-trip of
    # luby_sequence is lossless.
    return int(restart_after) * int(luby_sequence(n_restarts + 1)[-1])


class LockstepEvaluator:
    """Per-formula rectangular precomputation driving the lockstep kernel.

    The scalar :class:`~repro.sat.incremental.ClauseEvaluator` stores one
    ragged flat occurrence list per variable; the lockstep kernel needs the
    same information as rectangular arrays so a *batch* of (walk, variable)
    queries is one gather, and builds them from the scalar lists (memoised
    per formula) rather than from a second pass over the literals.
    Padding conventions:

    * ``occ_clauses[v]`` — the clauses containing variable ``v`` in
      ascending order, padded with ``n_clauses`` (a trash row index — see
      :class:`LockstepClauseState.true_counts`).
    * ``occ_positive`` / ``occ_negative`` — literal multiplicities aligned
      with ``occ_clauses``, padded with zeros.  A padded lane therefore
      contributes ``current == new == 0`` and self-neutralises in every
      break/make/transition predicate — no masks needed in the hot loop.
    * ``clause_variables`` — ``(n_clauses, width)`` clause-position
      variable matrix (duplicates kept, clause order preserved, exactly
      the ``[abs(lit) - 1 for lit in clause]`` list of the scalar loop),
      padded with ``-1``; ``clause_lengths`` holds the true widths.
    """

    def __init__(self, formula: CNFFormula) -> None:
        self.formula = formula
        scalar = formula.clause_evaluator()
        n, m = formula.n_variables, formula.n_clauses
        max_occ = max(max((len(row) // 3 for row in scalar.occurrences), default=1), 1)
        self.occ_clauses = np.full((n, max_occ), m, dtype=np.int64)
        self.occ_positive = np.zeros((n, max_occ), dtype=np.int64)
        self.occ_negative = np.zeros((n, max_occ), dtype=np.int64)
        for variable, row in enumerate(scalar.occurrences):
            size = len(row) // 3
            self.occ_clauses[variable, :size] = row[0::3]
            self.occ_positive[variable, :size] = row[1::3]
            self.occ_negative[variable, :size] = row[2::3]
        width = max(len(clause) for clause in formula.clauses)
        self.clause_variables = np.full((m, width), -1, dtype=np.int64)
        for index, variables in enumerate(scalar.clause_variables):
            self.clause_variables[index, : len(variables)] = variables
        self.clause_lengths = np.array([len(clause) for clause in formula.clauses], dtype=np.int64)
        # Break eligibility by current polarity: flipping v can only break
        # clause c if v's literal in c is pure and currently true, i.e.
        # (current > 0) & (new == 0) — a function of (variable, polarity)
        # alone, precomputed so the per-step break gather saves three
        # elementwise passes.  Padded lanes are ineligible by construction.
        self.break_when_true = (self.occ_positive > 0) & (self.occ_negative == 0)
        self.break_when_false = (self.occ_negative > 0) & (self.occ_positive == 0)

    def attach(self, assignments: np.ndarray) -> "LockstepClauseState":
        """Build the lockstep state for a ``(K, n)`` assignment matrix."""
        return LockstepClauseState(self, assignments)


class LockstepClauseState:
    """Mutable lockstep state of ``K`` concurrent walks on one formula.

    Attributes
    ----------
    assignment:
        ``(K, n)`` boolean matrix of the walks' current assignments.
    true_counts:
        ``(K, m + 1)`` int64 matrix: true literal slots per clause and
        walk; column ``m`` is a trash slot absorbing the padded lanes of
        the occurrence scatter (written with self-cancelling deltas, never
        read by an unpadded lane).
    unsat_list / unsat_pos:
        The per-walk unsatisfied-clause sets, one entry per walk,
        maintained with the *same* deterministic edit rules as the scalar
        :class:`~repro.sat.incremental.IncrementalClausePath` (swap-remove
        with a position table; removals before additions, each in
        ascending clause order) so that for a given RNG rank both paths present the
        same clause.  Unlike the dense numeric state these are plain
        Python int lists: the edits are scalar and sequential per walk
        (one or two per transition), where list indexing beats numpy
        element access several-fold — see the module docstring on the
        GPU-portability seam.
    """

    def __init__(self, evaluator: LockstepEvaluator, assignments: np.ndarray) -> None:
        assignments = np.asarray(assignments, dtype=bool)
        if assignments.ndim != 2:
            raise ValueError(f"assignments must be (K, n), got shape {assignments.shape}")
        self.evaluator = evaluator
        formula = evaluator.formula
        n_walks, m = assignments.shape[0], formula.n_clauses
        self.assignment = assignments.copy()
        self.true_counts = np.zeros((n_walks, m + 1), dtype=np.int64)
        for walk in range(n_walks):
            self.true_counts[walk, :m] = formula.true_literal_counts(self.assignment[walk])
        self.unsat_list: list[list[int]] = [[] for _ in range(n_walks)]
        self.unsat_pos: list[list[int]] = [[] for _ in range(n_walks)]
        for walk in range(n_walks):
            self.rebuild_unsat(walk)

    @property
    def n_walks(self) -> int:
        return self.assignment.shape[0]

    # -- per-walk unsatisfied-set surface (mirrors IncrementalClausePath)
    def n_unsat(self, walk: int) -> int:
        """Number of unsatisfied clauses of one walk."""
        return len(self.unsat_list[walk])

    def unsat_clause(self, walk: int, rank: int) -> int:
        """The clause stored at ``rank`` in one walk's maintained set."""
        if rank >= len(self.unsat_list[walk]):
            raise IndexError(f"rank {rank} out of range for walk {walk}")
        return self.unsat_list[walk][rank]

    def rebuild_unsat(self, walk: int) -> None:
        """Recompute one walk's set from its counts, in ascending order."""
        m = self.evaluator.formula.n_clauses
        unsat = np.flatnonzero(self.true_counts[walk, :m] == 0).tolist()
        positions = [-1] * m
        for rank, clause in enumerate(unsat):
            positions[clause] = rank
        self.unsat_list[walk] = unsat
        self.unsat_pos[walk] = positions

    def append_clause(self, walk: int, clause: int) -> None:
        """Add a newly-unsatisfied clause to one walk (appends at the end)."""
        row = self.unsat_list[walk]
        self.unsat_pos[walk][clause] = len(row)
        row.append(clause)

    def remove_clause(self, walk: int, clause: int) -> None:
        """Remove a newly-satisfied clause from one walk (swap-remove).

        Same element moves as ``IncrementalClausePath.apply_transitions``:
        the last entry replaces the removed one (a no-op self-move when the
        removed entry *is* the last), keeping set orderings bit-identical.
        """
        row = self.unsat_list[walk]
        positions = self.unsat_pos[walk]
        position = positions[clause]
        last = row.pop()
        if position != len(row):
            row[position] = last
        positions[last] = position
        positions[clause] = -1

    def apply_transitions(self, walk: int, became_sat, became_unsat) -> None:
        """Commit one walk's flip transitions in the canonical order.

        Removals before additions, each ascending — byte-compatible with
        :meth:`repro.sat.incremental.IncrementalClausePath.apply_transitions`.
        """
        for clause in became_sat:
            self.remove_clause(walk, int(clause))
        for clause in became_unsat:
            self.append_clause(walk, int(clause))

    def reinit_walk(self, walk: int, assignment: np.ndarray) -> None:
        """Rebind one walk to a fresh assignment (restart)."""
        formula = self.evaluator.formula
        self.assignment[walk] = np.asarray(assignment, dtype=bool)
        self.true_counts[walk, : formula.n_clauses] = formula.true_literal_counts(
            self.assignment[walk]
        )
        self.rebuild_unsat(walk)

    # -- batched queries ------------------------------------------------
    def _contributions(self, walks: np.ndarray, variables: np.ndarray):
        """Current/after-flip contribution matrices of (walk, variable) pairs."""
        evaluator = self.evaluator
        positive = evaluator.occ_positive[variables]
        negative = evaluator.occ_negative[variables]
        assigned = self.assignment[walks, variables][:, None]
        current = np.where(assigned, positive, negative)
        new = np.where(assigned, negative, positive)
        return current, new

    def break_counts(self, walks: np.ndarray, variables: np.ndarray) -> np.ndarray:
        """Batched WalkSAT break scores of ``B`` (walk, variable) pairs.

        Padded occurrence lanes have ``current == 0`` and never satisfy
        ``current > 0``, so no masking is required; each entry equals the
        scalar :meth:`IncrementalClausePath.break_count` exactly.
        """
        evaluator = self.evaluator
        assigned = self.assignment[walks, variables][:, None]
        eligible = np.where(
            assigned,
            evaluator.break_when_true[variables],
            evaluator.break_when_false[variables],
        )
        current = np.where(
            assigned, evaluator.occ_positive[variables], evaluator.occ_negative[variables]
        )
        counts = self.true_counts[walks[:, None], evaluator.occ_clauses[variables]]
        return np.count_nonzero(eligible & (counts == current), axis=1)

    def make_counts(self, walks: np.ndarray, variables: np.ndarray) -> np.ndarray:
        """Batched WalkSAT make scores of ``B`` (walk, variable) pairs."""
        current, new = self._contributions(walks, variables)
        counts = self.true_counts[walks[:, None], self.evaluator.occ_clauses[variables]]
        return np.count_nonzero((counts == 0) & (new > 0), axis=1)

    def flip(self, walks: np.ndarray, variables: np.ndarray) -> None:
        """Flip one variable per listed walk, batched.

        Count updates are one gather + one scatter over the padded
        occurrence matrix (padded lanes carry a zero delta and land in the
        trash column); the per-walk unsatisfied-set edits then replay the
        scalar transition order, ascending removals before ascending
        additions, so set orderings stay bit-identical to the scalar path.
        """
        occurrences = self.evaluator.occ_clauses[variables]
        current, new = self._contributions(walks, variables)
        counts = self.true_counts[walks[:, None], occurrences]
        updated = counts + (new - current)
        self.true_counts[walks[:, None], occurrences] = updated
        self.assignment[walks, variables] = ~self.assignment[walks, variables]
        became_sat = (counts == 0) & (updated > 0)
        became_unsat = (counts > 0) & (updated == 0)
        # Commit the per-walk set edits in the canonical scalar order:
        # removals before additions, each ascending.  np.nonzero is
        # row-major and occurrence rows are ascending, so iterating the
        # nonzero pairs applies each walk's transitions in exactly that
        # order; walks are independent, so interleaving across rows is
        # irrelevant.  The loop bodies are remove_clause/append_clause
        # inlined — at a few transitions per walk per step the method
        # frames are a measurable share of the kernel.
        walk_list = walks.tolist()
        unsat_list, unsat_pos = self.unsat_list, self.unsat_pos
        rows, cols = np.nonzero(became_sat)
        for row, clause in zip(rows.tolist(), occurrences[rows, cols].tolist()):
            walk = walk_list[row]
            lst = unsat_list[walk]
            positions = unsat_pos[walk]
            position = positions[clause]
            last = lst.pop()
            if position != len(lst):
                lst[position] = last
            positions[last] = position
            positions[clause] = -1
        rows, cols = np.nonzero(became_unsat)
        for row, clause in zip(rows.tolist(), occurrences[rows, cols].tolist()):
            walk = walk_list[row]
            unsat_pos[walk][clause] = len(unsat_list[walk])
            unsat_list[walk].append(clause)


def run_lockstep(
    formula: CNFFormula,
    config,
    seeds: Sequence[int],
) -> "list[RunResult]":
    """Run one WalkSAT walk per seed in lockstep; bit-identical per seed.

    ``config`` is a :class:`~repro.solvers.walksat.WalkSATConfig` whose
    policy must be in :data:`LOCKSTEP_POLICIES` (the caller,
    :meth:`WalkSAT.run_lockstep`, falls back to the scalar loop
    otherwise).  Returns one :class:`~repro.solvers.base.RunResult` per
    seed, in seed order, with ``iterations``/``solved``/``restarts``/
    ``solution``/``seed`` equal to ``WalkSAT(formula, config).run(seed)``
    for every seed; ``runtime_seconds`` is the wall clock from kernel
    start to the walk's retirement (walks leave the batch as they solve or
    exhaust the flip budget, like parallel walks leaving a race).
    """
    from repro.solvers.base import RunResult

    if config.policy not in LOCKSTEP_POLICIES:
        raise ValueError(
            f"lockstep kernel supports policies {LOCKSTEP_POLICIES}, got {config.policy!r}"
        )
    n_walks = len(seeds)
    if n_walks == 0:
        return []
    evaluator = formula.lockstep_evaluator()
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    start = time.perf_counter()
    state = evaluator.attach(
        np.stack([formula.random_assignment(rng) for rng in rngs])
    )

    max_flips = config.max_flips
    restart_after = config.restart_after
    schedule = config.restart_schedule
    adaptive = config.policy == "adaptive"
    noise = [float(config.noise)] * n_walks
    # Adaptive-noise bookkeeping (Hoos 2002), replicated per walk exactly
    # as AdaptiveNoisePolicy tracks it: stagnation window in flips, best
    # unsat count of the current trajectory, flips since the best.
    window = max(1, int(round(config.adaptive_theta * formula.n_clauses)))
    phi = config.adaptive_phi
    best = [state.n_unsat(walk) for walk in range(n_walks)]
    since_best = [0] * n_walks

    flips = [0] * n_walks
    restarts = [0] * n_walks
    flips_since_restart = [0] * n_walks
    cutoff = [restart_cutoff(restart_after, schedule, 0)] * n_walks
    results: list[RunResult | None] = [None] * n_walks

    def retire(walk: int, solved: bool) -> None:
        results[walk] = RunResult(
            solved=solved,
            iterations=flips[walk],
            runtime_seconds=time.perf_counter() - start,
            solution=state.assignment[walk].copy() if solved else None,
            restarts=restarts[walk],
            seed=int(seeds[walk]),
        )

    active = []
    for walk in range(n_walks):
        if state.n_unsat(walk) == 0:
            retire(walk, True)  # the initial random assignment solved it
        else:
            active.append(walk)

    clause_variables = evaluator.clause_variables
    clause_lengths = evaluator.clause_lengths
    width = clause_variables.shape[1]
    uniform_width = bool((clause_lengths == width).all())
    position_index = np.arange(width)
    unsat_list = state.unsat_list

    while active:
        # 1. Restarts due this step (checked before picking, like the
        #    scalar loop top); a restart consumes no flip and the walk
        #    keeps stepping in the same iteration unless the fresh
        #    assignment already solves the formula.
        if restart_after is not None:
            survivors = []
            for walk in active:
                if flips_since_restart[walk] >= cutoff[walk]:
                    state.reinit_walk(walk, formula.random_assignment(rngs[walk]))
                    restarts[walk] += 1
                    flips_since_restart[walk] = 0
                    cutoff[walk] = restart_cutoff(restart_after, schedule, restarts[walk])
                    if adaptive:
                        best[walk] = state.n_unsat(walk)
                        since_best[walk] = 0
                    if state.n_unsat(walk) == 0:
                        retire(walk, True)
                        continue
                survivors.append(walk)
            active = survivors
            if not active:
                break

        # 2. Per-walk clause picks: one integers(n_unsat) draw each, the
        #    scalar stream exactly.
        picked = [
            (row := unsat_list[walk])[rngs[walk].integers(len(row))]
            for walk in active
        ]

        # 3. Batched break counts of every clause position of every walk.
        active_arr = np.asarray(active, dtype=np.int64)
        picked_arr = np.asarray(picked, dtype=np.int64)
        position_vars = clause_variables[picked_arr]
        walks_rep = np.repeat(active_arr, width)
        # Padded positions query variable 0; their garbage break counts
        # are sliced away before selection.
        vars_flat = np.where(position_vars >= 0, position_vars, 0).ravel()
        breaks = state.break_counts(walks_rep, vars_flat).reshape(len(active), width)

        # 4. SKC selection, split batched/sequential: the candidate
        #    tables (zero-break positions, then minimum-break positions,
        #    both ascending) come from vectorised numpy over the whole
        #    break matrix; the per-walk residue consumes RNG draws in
        #    exactly the sequence of
        #    :func:`repro.solvers.policies.skc_select` — one ``integers``
        #    over the candidate table, preceded by a ``random`` noise draw
        #    when no free position exists (equivalence pinned by
        #    ``tests/sat/test_vectorized.py``).
        if uniform_width:
            lengths = None
            zero_mask = breaks == 0
            min_values = breaks.min(axis=1)
            min_mask = breaks == min_values[:, None]
        else:
            lengths = clause_lengths[picked_arr].tolist()
            valid = position_index < clause_lengths[picked_arr][:, None]
            zero_mask = (breaks == 0) & valid
            min_values = np.where(valid, breaks, np.iinfo(np.int64).max).min(axis=1)
            min_mask = (breaks == min_values[:, None]) & valid
        n_zero = zero_mask.sum(axis=1).tolist()
        n_min = min_mask.sum(axis=1).tolist()
        # Stable argsort of ~mask lists each row's True positions first,
        # ascending — the candidate tables of both selection branches.
        zero_table = np.argsort(~zero_mask, axis=1, kind="stable").tolist()
        min_table = np.argsort(~min_mask, axis=1, kind="stable").tolist()
        variable_rows = position_vars.tolist()
        chosen = []
        for row, walk in enumerate(active):
            rng = rngs[walk]
            count = n_zero[row]
            if count:
                position = zero_table[row][int(rng.integers(count))]
            elif rng.random() < noise[walk]:
                position = int(rng.integers(width if lengths is None else lengths[row]))
            else:
                position = min_table[row][int(rng.integers(n_min[row]))]
            chosen.append(variable_rows[row][position])

        # 5. One batched flip for the whole step.
        state.flip(active_arr, np.asarray(chosen, dtype=np.int64))

        # 6. Post-flip bookkeeping and retirement.
        survivors = []
        for walk in active:
            flips[walk] += 1
            flips_since_restart[walk] += 1
            n_unsat = len(unsat_list[walk])
            if adaptive:
                if n_unsat < best[walk]:
                    best[walk] = n_unsat
                    since_best[walk] = 0
                    noise[walk] -= noise[walk] * phi / 2.0
                else:
                    since_best[walk] += 1
                    if since_best[walk] >= window:
                        noise[walk] += (1.0 - noise[walk]) * phi
                        since_best[walk] = 0
            if n_unsat == 0:
                retire(walk, True)
            elif flips[walk] >= max_flips:
                retire(walk, False)
            else:
                survivors.append(walk)
        active = survivors

    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
