"""Permutation search spaces for constraint-based local search.

All three of the paper's benchmarks are naturally modelled as *permutation
problems*: the configuration is a permutation of a fixed multiset of values
and the local-search move is a swap of two positions.  (This is also how the
reference Adaptive Search implementation encodes them.)

:class:`PermutationProblem` is the interface the solvers consume; it asks
for a vectorised batched cost so that the solver can evaluate every
candidate swap of the culprit variable in one numpy call, and for the
per-variable error projection used to select that culprit.
:class:`CSPPermutationAdapter` bridges the general :class:`repro.csp.model.CSP`
model to this interface for problems whose variables form a permutation.

:class:`DeltaEvaluator` is the incremental-evaluation contract: instead of
rebuilding an ``(n, n)`` candidate batch and recomputing the full global
error for every candidate swap (O(n^2)-O(n^3) per solver iteration), a
delta evaluator maintains problem-specific counters attached to the current
configuration and answers "what would each swap cost?" in O(n).  The batch
:meth:`PermutationProblem.swap_costs` path is kept as the cross-check
oracle and as the automatic fallback for problems without a specialised
kernel (e.g. :class:`CSPPermutationAdapter`).

A delta evaluator is immutable per problem instance: all mutable run state
lives in the :class:`DeltaState` that :meth:`DeltaEvaluator.attach` builds,
so one evaluator serves every run on the instance.  A restart or partial
reset attaches a fresh state.  :class:`~repro.solvers.adaptive_search.AdaptiveSearch`
chooses between the kernel and the batch oracle.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.csp.model import CSP

__all__ = [
    "CSPPermutationAdapter",
    "DeltaEvaluator",
    "DeltaState",
    "PermutationProblem",
]


def multiset_delta(counts: np.ndarray, removed: Sequence[int], added: Sequence[int]) -> int:
    """Change in ``sum(max(count - 1, 0))`` after a multiset update.

    ``counts`` is a flat occurrence-counter array; ``removed`` / ``added``
    are (possibly repeating) flat slot indices.  Only the *net* multiplicity
    per slot matters because the duplicate-count contribution of a slot
    depends on its final count alone.  Used by the commit paths of the
    counter-based delta kernels.
    """
    net: dict[int, int] = {}
    for slot in removed:
        slot = int(slot)
        net[slot] = net.get(slot, 0) - 1
    for slot in added:
        slot = int(slot)
        net[slot] = net.get(slot, 0) + 1
    delta = 0
    for slot, change in net.items():
        if change == 0:
            continue
        count = int(counts[slot])
        delta += max(count + change - 1, 0) - max(count - 1, 0)
    return delta


class DeltaState:
    """Mutable incremental-evaluation state bound to one configuration.

    Attributes
    ----------
    perm:
        The configuration the state describes.  Owned by the state: it is a
        copy of the array passed to :meth:`DeltaEvaluator.attach` and is
        mutated in place by :meth:`DeltaEvaluator.commit_swap`.
    cost:
        The *exact* (integer) global error of :attr:`perm`.  Kept as a
        Python ``int`` so that ``float(cost)`` is bit-identical to the
        float produced by the batched :meth:`PermutationProblem.cost_many`
        oracle (all benchmark error functions are integer-valued).
    """

    def __init__(self, perm: np.ndarray, cost: int) -> None:
        self.perm = perm
        self.cost = cost


class DeltaEvaluator(abc.ABC):
    """Incremental (delta) evaluation of the swap neighbourhood.

    Contract, for a ``state`` attached to permutation ``p`` with exact cost
    ``c = problem.cost(p)``:

    * :meth:`swap_deltas` returns an integer-valued float array ``d`` of
      length ``size`` with ``c + d[j] == problem.cost(swap(p, i, j))``
      *exactly* (and ``d[i] == 0``), so a solver consuming deltas takes
      bit-identical decisions to one consuming the batched
      :meth:`PermutationProblem.swap_costs` oracle;
    * :meth:`commit_swap` applies one swap and updates the counters and
      :attr:`DeltaState.cost` in O(size).
    """

    def __init__(self, problem: "PermutationProblem") -> None:
        self.problem = problem
        self.size = problem.size

    @abc.abstractmethod
    def attach(self, perm: np.ndarray) -> DeltaState:
        """Build the incremental state for a configuration (copies ``perm``)."""

    @abc.abstractmethod
    def swap_deltas(self, state: DeltaState, index: int) -> np.ndarray:
        """Cost change of swapping ``index`` with every position.

        Returns a float array ``d`` of length ``size`` where
        ``state.cost + d[j]`` is the exact global error after exchanging
        the values at positions ``index`` and ``j`` (``d[index]`` is 0).
        """

    @abc.abstractmethod
    def commit_swap(self, state: DeltaState, i: int, j: int) -> None:
        """Apply the swap ``(i, j)`` to the state (perm, counters and cost)."""

    def variable_errors(self, state: DeltaState) -> np.ndarray:
        """Per-variable errors of the attached configuration.

        Must equal ``problem.variable_errors(state.perm)`` exactly; the
        default recomputes from scratch, specialised evaluators answer from
        their counters.
        """
        return self.problem.variable_errors(state.perm)


class PermutationProblem(abc.ABC):
    """A CSP whose configurations are permutations of :attr:`values`.

    Subclasses implement the batched cost :meth:`cost_many` (vectorised over
    a 2-D array of candidate permutations) and the per-variable error
    projection :meth:`variable_errors`.
    """

    #: Problem family name (e.g. ``"all-interval"``).
    name: str = "permutation-problem"

    #: Smallest instance size at which the delta kernel beats the batched
    #: cost function, as measured by ``benchmarks/test_bench_delta.py``.
    #: ``None`` means the kernel wins at every size.  Solvers in
    #: ``evaluation="auto"`` mode fall back to the batch path below this
    #: size — a pure speed decision, both paths being bit-identical.
    incremental_min_size: int | None = None

    def __init__(self, size: int, values: np.ndarray | None = None) -> None:
        if size < 2:
            raise ValueError(f"a permutation problem needs at least 2 positions, got {size}")
        self.size = int(size)
        if values is None:
            values = np.arange(self.size, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if values.size != self.size:
            raise ValueError(f"expected {self.size} values, got {values.size}")
        self.values = values

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cost_many(self, perms: np.ndarray) -> np.ndarray:
        """Global error of each configuration in a batch.

        Parameters
        ----------
        perms:
            Integer array of shape ``(batch, size)``; each row is a
            permutation of :attr:`values`.

        Returns
        -------
        numpy.ndarray
            Float array of shape ``(batch,)`` with the global error of each
            configuration (0 exactly for solutions).
        """

    @abc.abstractmethod
    def variable_errors(self, perm: np.ndarray) -> np.ndarray:
        """Constraint errors projected onto the variables (length ``size``)."""

    # ------------------------------------------------------------------
    def cost(self, perm: np.ndarray) -> float:
        """Global error of a single configuration."""
        perm = np.asarray(perm, dtype=np.int64)
        return float(self.cost_many(perm[None, :])[0])

    def is_solution(self, perm: np.ndarray) -> bool:
        """Whether the configuration satisfies every constraint."""
        return self.cost(perm) == 0.0

    def check_permutation(self, perm: np.ndarray) -> bool:
        """Whether ``perm`` is a permutation of :attr:`values`."""
        perm = np.asarray(perm, dtype=np.int64)
        return perm.size == self.size and np.array_equal(np.sort(perm), np.sort(self.values))

    def random_configuration(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly random permutation of :attr:`values`."""
        return rng.permutation(self.values)

    def swap_costs(self, perm: np.ndarray, index: int) -> np.ndarray:
        """Cost of swapping position ``index`` with every position.

        Returns an array ``c`` of length ``size`` where ``c[j]`` is the
        global error of the configuration obtained by exchanging the values
        at positions ``index`` and ``j`` (``c[index]`` is the current cost).
        The default implementation builds the batch of candidate
        configurations and calls :meth:`cost_many`; problems with cheap
        incremental evaluations may override it.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range for size {self.size}")
        batch = np.repeat(perm[None, :], self.size, axis=0)
        columns = np.arange(self.size)
        batch[columns, columns] = perm[index]
        batch[columns, index] = perm[columns]
        return np.asarray(self.cost_many(batch), dtype=float)

    def delta_evaluator(self) -> DeltaEvaluator | None:
        """Specialised O(size) incremental evaluator, or ``None``.

        Problems without a delta kernel (such as
        :class:`CSPPermutationAdapter`) have no :meth:`_make_delta_evaluator`
        and solvers fall back to the batched :meth:`swap_costs` oracle.
        The evaluator is built lazily, once, and memoised under
        ``_delta_evaluator`` (which :meth:`__getstate__` excludes from
        pickles so engine-cache fingerprints stay stable).
        """
        evaluator = getattr(self, "_delta_evaluator", None)
        if evaluator is None:
            evaluator = self._delta_evaluator = self._make_delta_evaluator()
        return evaluator

    def _make_delta_evaluator(self) -> DeltaEvaluator | None:
        """Factory hook: build this problem's delta kernel (default: none)."""
        return None

    def __getstate__(self) -> dict:
        # The memoised evaluator is derived state: dropping it keeps the
        # pickled problem identical before and after a run touched it
        # (the engine's cache key hashes pickled content) and keeps
        # process-backend pickles small; workers rebuild it on demand.
        state = self.__dict__.copy()
        state.pop("_delta_evaluator", None)
        return state

    def describe(self) -> str:
        """Human-readable instance label (e.g. ``"costas-array 10"``)."""
        return f"{self.name} {self.size}"


class CSPPermutationAdapter(PermutationProblem):
    """Expose a general :class:`CSP` over permuted values as a permutation problem.

    The adapter assigns the ``i``-th CSP variable the value at position ``i``
    of the permutation.  It is intentionally unoptimised (one Python-level
    error evaluation per configuration); its role is cross-validation of the
    specialised benchmark implementations and support for user-defined CSPs.
    """

    name = "csp-adapter"

    def __init__(self, csp: CSP, values: Sequence[int] | np.ndarray) -> None:
        super().__init__(size=len(csp.variables), values=np.asarray(values, dtype=np.int64))
        self.csp = csp
        self._names = csp.variable_names

    def _assignment(self, perm: np.ndarray) -> dict[str, int]:
        return {name: int(v) for name, v in zip(self._names, perm)}

    def cost_many(self, perms: np.ndarray) -> np.ndarray:
        perms = np.asarray(perms, dtype=np.int64)
        if perms.ndim != 2 or perms.shape[1] != self.size:
            raise ValueError(f"expected shape (batch, {self.size}), got {perms.shape}")
        return np.array([self.csp.cost(self._assignment(row)) for row in perms], dtype=float)

    def variable_errors(self, perm: np.ndarray) -> np.ndarray:
        errors = self.csp.variable_errors(self._assignment(np.asarray(perm, dtype=np.int64)))
        return np.array([errors[name] for name in self._names], dtype=float)
