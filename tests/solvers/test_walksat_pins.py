"""Pinned WalkSAT runs: the scalar solver's outputs, fixed per seed.

Every other scalar-path test compares two paths of the *same* build (the
incremental clause state against the batch oracle, lockstep against
scalar), so a change that altered both alike would pass them all.  These
pins compare against recorded outputs instead: for each formula and
configuration, seeds 0-7 must reproduce the recorded
``(iterations, solved, restarts)`` and the first 16 hex digits of the
SHA-256 of the solution's bytes (``""`` for an unsolved run).  A kernel
rewrite that keeps the RNG call sequence and the unsatisfied-set ordering
keeps every pin; one that drifts by a single draw breaks most of them.
"""

import hashlib

import numpy as np
import pytest

from repro.sat import CNFFormula, random_ksat, random_planted_ksat
from repro.sat.generators import clause_count_for_ratio
from repro.solvers.walksat import WalkSAT, WalkSATConfig

#: Per-run flip budget: small enough that unsolved runs stay cheap, large
#: enough that most runs solve and the restart schedules fire.
BUDGET = 1_500

SEEDS = range(8)


def _mixed_width_planted(seed: int, n_variables: int, n_clauses: int) -> CNFFormula:
    """Satisfiable formula with widths 1-5, duplicate literals and tautologies.

    Width 3 is the most common, so the formula is not dominated by the
    unit clauses that pin their variables to the planted values.
    """
    rng = np.random.default_rng(seed)
    planted = rng.integers(0, 2, size=n_variables).astype(bool)
    clauses = []
    while len(clauses) < n_clauses:
        width = int(rng.choice([1, 2, 3, 3, 3, 4, 5]))
        # Drawing with replacement repeats variables: duplicate literals
        # when the signs agree, tautologies when they differ.
        variables = rng.integers(1, n_variables + 1, size=width)
        signs = rng.integers(0, 2, size=width) * 2 - 1
        clause = tuple(int(v * s) for v, s in zip(variables, signs))
        if any((lit > 0) == bool(planted[abs(lit) - 1]) for lit in clause):
            clauses.append(clause)
    return CNFFormula(n_variables, clauses)


def _formula(name: str) -> CNFFormula:
    if name == "uniform-50@4.2":
        # The perfbench ``adaptive-process`` formula.
        rng = np.random.default_rng((20130813, 0x5AA))
        return random_ksat(50, clause_count_for_ratio(50, 4.2), 3, rng=rng)
    if name == "planted-40@4.2":
        return random_planted_ksat(40, 168, rng=np.random.default_rng(11))[0]
    return _mixed_width_planted(23, 60, 330)


NOISE = {"uniform-50@4.2": 0.1, "planted-40@4.2": 0.5, "mixed-60": 0.5}

CONFIGS = {
    "walksat": {},
    "adaptive": {"policy": "adaptive"},
    "novelty": {"policy": "novelty"},
    "novelty+": {"policy": "novelty+"},
    "restart-fixed": {"restart_after": 60},
    "restart-luby": {"restart_after": 20, "restart_schedule": "luby"},
}


def _digest(solution) -> str:
    if solution is None:
        return ""
    return hashlib.sha256(np.asarray(solution, dtype=bool).tobytes()).hexdigest()[:16]


def _runs(formula_name: str, config_name: str) -> list[tuple[int, bool, int, str]]:
    solver = WalkSAT(
        _formula(formula_name),
        WalkSATConfig(max_flips=BUDGET, noise=NOISE[formula_name], **CONFIGS[config_name]),
    )
    rows = []
    for seed in SEEDS:
        result = solver.run(seed)
        rows.append((result.iterations, result.solved, result.restarts, _digest(result.solution)))
    return rows


#: Recorded before the flat-table rewrite of :mod:`repro.sat.incremental`
#: (generated by ``_runs`` on that build; regenerate only for an
#: intentional change of the solver's RNG use or move order).
PINS: dict[tuple[str, str], list[tuple[int, bool, int, str]]] = {
    ('uniform-50@4.2', 'walksat'): [
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
    ],
    ('uniform-50@4.2', 'adaptive'): [
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (744, True, 0, 'adb42507bc988586'),
        (967, True, 0, '2995ba6135c9c812'),
        (224, True, 0, 'adb42507bc988586'),
        (1500, False, 0, ''),
        (1372, True, 0, 'adb42507bc988586'),
    ],
    ('uniform-50@4.2', 'novelty'): [
        (1500, False, 0, ''),
        (986, True, 0, 'e1d1f4fddc4f022c'),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
    ],
    ('uniform-50@4.2', 'novelty+'): [
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (1500, False, 0, ''),
        (151, True, 0, 'c1cb5ffa329fe869'),
        (1500, False, 0, ''),
    ],
    ('uniform-50@4.2', 'restart-fixed'): [
        (1500, False, 24, ''),
        (291, True, 4, '6038f085d32eb415'),
        (1015, True, 16, 'c1cb5ffa329fe869'),
        (99, True, 1, '2f3b341c709224c4'),
        (688, True, 11, 'f963b1f548f2fe5e'),
        (342, True, 5, 'adb42507bc988586'),
        (120, True, 1, 'f963b1f548f2fe5e'),
        (616, True, 10, '6038f085d32eb415'),
    ],
    ('uniform-50@4.2', 'restart-luby'): [
        (1500, False, 30, ''),
        (226, True, 6, 'c1cb5ffa329fe869'),
        (535, True, 14, '2f3b341c709224c4'),
        (1500, False, 30, ''),
        (431, True, 13, '6038f085d32eb415'),
        (1102, True, 28, 'adb42507bc988586'),
        (1193, True, 29, 'adb42507bc988586'),
        (1500, False, 30, ''),
    ],
    ('planted-40@4.2', 'walksat'): [
        (256, True, 0, 'ae98ed8493580e8c'),
        (1193, True, 0, '043660dfa559810d'),
        (533, True, 0, 'debed6c62bdbd494'),
        (485, True, 0, '8b4c8f76fca80ce2'),
        (305, True, 0, '697671e6090dea8e'),
        (245, True, 0, '043660dfa559810d'),
        (318, True, 0, 'ae98ed8493580e8c'),
        (208, True, 0, '61e18454399bd806'),
    ],
    ('planted-40@4.2', 'adaptive'): [
        (152, True, 0, '043660dfa559810d'),
        (548, True, 0, '8b4c8f76fca80ce2'),
        (74, True, 0, 'ae98ed8493580e8c'),
        (123, True, 0, '8b4c8f76fca80ce2'),
        (328, True, 0, 'debed6c62bdbd494'),
        (51, True, 0, 'c6edaeefabd5d5b3'),
        (546, True, 0, '043660dfa559810d'),
        (1325, True, 0, 'ae98ed8493580e8c'),
    ],
    ('planted-40@4.2', 'novelty'): [
        (57, True, 0, 'a3e116779a2486d6'),
        (196, True, 0, '61e18454399bd806'),
        (452, True, 0, '043660dfa559810d'),
        (724, True, 0, '043660dfa559810d'),
        (87, True, 0, '043660dfa559810d'),
        (542, True, 0, 'a3e116779a2486d6'),
        (213, True, 0, '61e18454399bd806'),
        (321, True, 0, '68a993240562ebde'),
    ],
    ('planted-40@4.2', 'novelty+'): [
        (98, True, 0, '68a993240562ebde'),
        (44, True, 0, '34fab1d6f3112483'),
        (155, True, 0, '8b4c8f76fca80ce2'),
        (273, True, 0, 'a3e116779a2486d6'),
        (86, True, 0, '8b4c8f76fca80ce2'),
        (184, True, 0, 'a3e116779a2486d6'),
        (416, True, 0, '043660dfa559810d'),
        (431, True, 0, '043660dfa559810d'),
    ],
    ('planted-40@4.2', 'restart-fixed'): [
        (1500, False, 24, ''),
        (471, True, 7, '8b4c8f76fca80ce2'),
        (420, True, 6, 'a3e116779a2486d6'),
        (617, True, 10, '44ba2104ac1bc15a'),
        (107, True, 1, 'c6edaeefabd5d5b3'),
        (147, True, 2, '34fab1d6f3112483'),
        (621, True, 10, '8b4c8f76fca80ce2'),
        (455, True, 7, '347a86bcc2101c2a'),
    ],
    ('planted-40@4.2', 'restart-luby'): [
        (75, True, 2, '043660dfa559810d'),
        (358, True, 11, '61e18454399bd806'),
        (226, True, 6, '34fab1d6f3112483'),
        (305, True, 9, 'debed6c62bdbd494'),
        (1186, True, 29, 'b7ac8aaae793e026'),
        (439, True, 13, 'ae98ed8493580e8c'),
        (99, True, 3, 'c6edaeefabd5d5b3'),
        (522, True, 14, 'a3e116779a2486d6'),
    ],
    ('mixed-60', 'walksat'): [
        (70, True, 0, 'b4c64afcb612763e'),
        (26, True, 0, 'b05b813e89fc66f3'),
        (94, True, 0, '9b9350a90e00d88d'),
        (50, True, 0, '0b85a3a61700532a'),
        (65, True, 0, '20c45a8d8bfbc612'),
        (67, True, 0, '20c45a8d8bfbc612'),
        (74, True, 0, '582eb6d4bb0b30de'),
        (60, True, 0, 'dc4383b82d64b4d3'),
    ],
    ('mixed-60', 'adaptive'): [
        (38, True, 0, 'dc4383b82d64b4d3'),
        (38, True, 0, '20c45a8d8bfbc612'),
        (50, True, 0, '20c45a8d8bfbc612'),
        (40, True, 0, '20c45a8d8bfbc612'),
        (38, True, 0, 'dab5c76a6a26ceb2'),
        (49, True, 0, 'e09f4b5259b696d2'),
        (69, True, 0, '6bc26d4599d5d081'),
        (45, True, 0, '9b9350a90e00d88d'),
    ],
    ('mixed-60', 'novelty'): [
        (23, True, 0, 'cf145b387d5bcbf4'),
        (47, True, 0, 'a1cdbbc42f9c04bc'),
        (46, True, 0, '9b9350a90e00d88d'),
        (62, True, 0, 'b076be5f5a084bd8'),
        (33, True, 0, '3cc264f36414ba46'),
        (40, True, 0, '80d722d23c4aaa39'),
        (53, True, 0, '53ef1946e7460864'),
        (41, True, 0, '20c45a8d8bfbc612'),
    ],
    ('mixed-60', 'novelty+'): [
        (26, True, 0, 'dab5c76a6a26ceb2'),
        (32, True, 0, '582eb6d4bb0b30de'),
        (53, True, 0, 'b1551bab5df2241d'),
        (42, True, 0, 'b076be5f5a084bd8'),
        (38, True, 0, 'af0c7470f2432ee6'),
        (49, True, 0, '20c45a8d8bfbc612'),
        (35, True, 0, 'b1551bab5df2241d'),
        (40, True, 0, '80d722d23c4aaa39'),
    ],
    ('mixed-60', 'restart-fixed'): [
        (106, True, 1, 'cf145b387d5bcbf4'),
        (26, True, 0, 'b05b813e89fc66f3'),
        (114, True, 1, 'fef9196fdaf8a977'),
        (50, True, 0, '0b85a3a61700532a'),
        (111, True, 1, 'af741184bd679f22'),
        (105, True, 1, 'a05a06ee34c7d266'),
        (164, True, 2, 'cdd4a1c1a10d976e'),
        (60, True, 0, 'dc4383b82d64b4d3'),
    ],
    ('mixed-60', 'restart-luby'): [
        (302, True, 9, 'b4c64afcb612763e'),
        (72, True, 2, '53ef1946e7460864'),
        (149, True, 5, 'af741184bd679f22'),
        (234, True, 6, '20c45a8d8bfbc612'),
        (453, True, 13, 'cdd4a1c1a10d976e'),
        (223, True, 6, '9b9350a90e00d88d'),
        (225, True, 6, 'fef9196fdaf8a977'),
        (531, True, 14, 'dab5c76a6a26ceb2'),
    ],
}


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("formula_name", list(NOISE))
def test_runs_match_pins(formula_name, config_name):
    assert _runs(formula_name, config_name) == PINS[(formula_name, config_name)]
