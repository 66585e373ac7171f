"""Flip-picking policies for the WalkSAT solver family.

WalkSAT variants differ only in *which variable of the picked unsatisfied
clause they flip*; everything else — the incremental/batch clause state, the
restart machinery, the censoring bookkeeping — is shared.  This module
isolates that one decision behind the :class:`FlipPolicy` strategy surface
so :class:`~repro.solvers.walksat.WalkSAT` can run any member of the family
on either evaluation path:

* ``"walksat"`` — :class:`WalkSATPolicy`, the classic WalkSAT/SKC rule
  (Selman, Kautz & Cohen 1994): flip a free (break-count zero) variable if
  one exists, otherwise random-walk with probability ``noise`` and take the
  minimum-break variable otherwise.
* ``"novelty"`` — :class:`NoveltyPolicy` (McAllester, Selman & Kautz 1997):
  rank the clause's variables by score (break − make, i.e. the change in
  the number of unsatisfied clauses), ties broken by age then position;
  flip the best variable unless it is the most recently flipped one in the
  clause, in which case flip the second best with probability ``noise``.
* ``"novelty+"`` — :class:`NoveltyPlusPolicy` (Hoos 1999): with probability
  ``walk_probability`` take a uniform random-walk step over the clause,
  otherwise behave like Novelty — the random-walk escape provably makes
  the chain probabilistically approximately complete.
* ``"adaptive"`` — :class:`AdaptiveNoisePolicy`, adaptive noise à la Hoos
  2002: run the SKC rule but *tune* the noise online from the unsat-set
  size the clause state already maintains — raise it multiplicatively when
  the search stagnates (no new minimum for ``theta * n_clauses`` flips),
  lower it (at half that rate) whenever a new minimum is found.

Determinism contract
--------------------
Policies consult the clause state only through the
:class:`~repro.sat.incremental.IncrementalClausePath` queries (``break_count``,
``make_count``, ``n_unsat``), which the incremental and batch paths answer
identically, and they consume RNG draws in a state-independent order.  A
policy therefore produces bit-identical flip sequences on either path — the
same exactness contract the base solver pins (see
``tests/solvers/test_policies.py``).

Policies are *mutable per-run objects* (Novelty tracks flip ages, adaptive
noise tracks the best unsat count); :class:`~repro.solvers.walksat.WalkSAT`
builds a fresh one per run via :func:`make_policy`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.sat.incremental import IncrementalClausePath

__all__ = [
    "POLICIES",
    "AdaptiveNoisePolicy",
    "FlipPolicy",
    "NoveltyPolicy",
    "NoveltyPlusPolicy",
    "WalkSATPolicy",
    "make_policy",
    "skc_select",
    "validate_policy",
]

#: Registered policy names, accepted by ``WalkSATConfig.policy`` and the
#: CLI ``--sat-policy`` flag.
POLICIES: tuple[str, ...] = ("walksat", "novelty", "novelty+", "adaptive")


def validate_policy(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered policy."""
    if name not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {name!r}")


class FlipPolicy(abc.ABC):
    """Per-run strategy choosing which variable of an unsat clause to flip.

    Lifecycle: :meth:`start` binds the policy to a freshly initialised
    clause state (run start); :meth:`restart` re-binds it after the solver
    re-randomises the assignment; :meth:`pick` chooses the flip;
    :meth:`notify_flip` reports the committed flip (and the post-flip
    state) back, so stateful policies can track ages and progress.
    """

    def start(self, path: IncrementalClausePath) -> None:
        """Bind to a freshly initialised clause state (run start)."""

    def restart(self, path: IncrementalClausePath) -> None:
        """Re-bind after a restart (default: same as a fresh start)."""
        self.start(path)

    @abc.abstractmethod
    def pick(
        self, path: IncrementalClausePath, variables: list[int], rng: np.random.Generator
    ) -> int:
        """Variable (0-based) of ``variables`` to flip under this policy.

        ``variables`` is the picked clause's row of the formula's shared
        ``ClauseEvaluator.clause_variables`` table: read it, never mutate it.
        """

    def notify_flip(self, variable: int, flip_number: int, path: IncrementalClausePath) -> None:
        """Observe a committed flip and the post-flip clause state."""


def skc_select(breaks, rng: np.random.Generator, noise: float) -> int:
    """SKC selection on precomputed break counts; returns a *position*.

    The WalkSAT/SKC rule reduced to its RNG-consuming core: given the
    break counts of a clause's variable positions, pick the position to
    flip — a uniform free (zero-break) position if one exists, otherwise a
    uniform random-walk position with probability ``noise``, otherwise a
    uniform minimum-break position.  Every caller that feeds it the same
    break row consumes *identical* RNG draws (one ``integers`` call, with
    a ``random`` call on the no-free-variable branch), which is what lets
    the scalar policies and the lockstep kernel of
    :mod:`repro.sat.vectorized` share one stream-exact selection rule.

    ``breaks`` is any integer sequence (list or ndarray); pure-Python
    scanning keeps the common 3-literal rows cheap on both paths.
    """
    zeros = [index for index, count in enumerate(breaks) if count == 0]
    if zeros:
        return zeros[int(rng.integers(len(zeros)))]
    if rng.random() < noise:
        return int(rng.integers(len(breaks)))
    best = min(breaks)
    candidates = [index for index, count in enumerate(breaks) if count == best]
    return candidates[int(rng.integers(len(candidates)))]


def _skc_pick(
    path: IncrementalClausePath, variables: list[int], rng: np.random.Generator, noise: float
) -> int:
    """The WalkSAT/SKC selection rule at a given noise level.

    Exactly the historical inline rule of ``WalkSAT._run`` — same queries,
    same RNG draws, same tie-breaking — so the refactor to policy objects
    keeps the default solver bit-identical to its pre-policy behaviour.
    """
    breaks = [path.break_count(var) for var in variables]
    return variables[skc_select(breaks, rng, noise)]


class WalkSATPolicy(FlipPolicy):
    """WalkSAT/SKC: free variable, else noise walk, else minimum break."""

    def __init__(self, noise: float) -> None:
        self.noise = noise

    def pick(
        self, path: IncrementalClausePath, variables: list[int], rng: np.random.Generator
    ) -> int:
        return _skc_pick(path, variables, rng, self.noise)


class NoveltyPolicy(FlipPolicy):
    """Novelty: best-scored variable unless it is the youngest in the clause.

    The score of a variable is ``break − make`` — the net change in the
    number of unsatisfied clauses its flip would cause (lower is better).
    Ties are broken in favour of the *least recently flipped* variable,
    then by clause position, so ranking needs no RNG draw.  The best
    variable is flipped outright unless it is the most recently flipped
    variable of the clause; in that case the second best is flipped with
    probability ``noise`` (``noise=0`` degenerates to deterministic greedy,
    ``noise=1`` always avoids the youngest variable).
    """

    def __init__(self, noise: float, n_variables: int) -> None:
        self.noise = noise
        self._last_flip = [-1] * n_variables

    def start(self, path: IncrementalClausePath) -> None:
        # Ages refer to the current trajectory; a restart voids them.
        self._last_flip = [-1] * len(self._last_flip)

    def pick(
        self, path: IncrementalClausePath, variables: list[int], rng: np.random.Generator
    ) -> int:
        if len(variables) == 1:
            return variables[0]
        last_flip = self._last_flip
        ages = [last_flip[var] for var in variables]
        scores = [path.break_count(var) - path.make_count(var) for var in variables]
        # (score, age, position) tuples sort by score, then oldest, then position.
        ranked = sorted(zip(scores, ages, range(len(variables))))
        best = variables[ranked[0][2]]
        youngest_age = max(ages)
        # ``ages.index`` finds the first maximum, the position ``argmax`` picks.
        if youngest_age < 0 or best != variables[ages.index(youngest_age)]:
            # Nothing flipped yet, or the best variable is not the youngest.
            return best
        if rng.random() < self.noise:
            return variables[ranked[1][2]]
        return best

    def notify_flip(self, variable: int, flip_number: int, path: IncrementalClausePath) -> None:
        self._last_flip[variable] = flip_number


class NoveltyPlusPolicy(NoveltyPolicy):
    """Novelty+: a ``walk_probability`` random-walk escape over Novelty."""

    def __init__(self, noise: float, walk_probability: float, n_variables: int) -> None:
        super().__init__(noise, n_variables)
        self.walk_probability = walk_probability

    def pick(
        self, path: IncrementalClausePath, variables: list[int], rng: np.random.Generator
    ) -> int:
        # The walk draw is taken unconditionally (before any state-dependent
        # branch), keeping RNG consumption identical on both paths.
        if rng.random() < self.walk_probability:
            return variables[int(rng.integers(len(variables)))]
        return super().pick(path, variables, rng)


class AdaptiveNoisePolicy(FlipPolicy):
    """SKC picking with noise tuned online from the unsat-set size.

    Hoos 2002's adaptive mechanism: start from ``initial_noise`` and watch
    the number of unsatisfied clauses the clause state already maintains.
    When no new minimum has been seen for ``theta * n_clauses`` flips the
    search is deemed stuck and the noise is raised,
    ``p ← p + (1 − p)·phi``; whenever a new minimum is found the noise is
    lowered at half that relative rate, ``p ← p − p·phi/2``.  Increases
    outpace decreases, so the policy escapes stagnation quickly and cools
    back down while progress lasts.  The learned noise survives restarts
    (it reflects the instance, not the trajectory); the stagnation window
    and the reference minimum reset with the assignment.
    """

    def __init__(
        self, initial_noise: float, n_clauses: int, theta: float, phi: float
    ) -> None:
        self.noise = initial_noise
        self._window = max(1, int(round(theta * n_clauses)))
        self._phi = phi
        self._best = 0
        self._flips_since_best = 0

    def start(self, path: IncrementalClausePath) -> None:
        self._best = path.n_unsat
        self._flips_since_best = 0

    def pick(
        self, path: IncrementalClausePath, variables: list[int], rng: np.random.Generator
    ) -> int:
        return _skc_pick(path, variables, rng, self.noise)

    def notify_flip(self, variable: int, flip_number: int, path: IncrementalClausePath) -> None:
        if path.n_unsat < self._best:
            self._best = path.n_unsat
            self._flips_since_best = 0
            self.noise -= self.noise * self._phi / 2.0
        else:
            self._flips_since_best += 1
            if self._flips_since_best >= self._window:
                self.noise += (1.0 - self.noise) * self._phi
                self._flips_since_best = 0


def make_policy(
    name: str,
    *,
    noise: float,
    walk_probability: float,
    adaptive_theta: float,
    adaptive_phi: float,
    n_variables: int,
    n_clauses: int,
) -> FlipPolicy:
    """Build a fresh per-run policy object for a registered policy name."""
    validate_policy(name)
    if name == "walksat":
        return WalkSATPolicy(noise)
    if name == "novelty":
        return NoveltyPolicy(noise, n_variables)
    if name == "novelty+":
        return NoveltyPlusPolicy(noise, walk_probability, n_variables)
    return AdaptiveNoisePolicy(noise, n_clauses, adaptive_theta, adaptive_phi)
