"""Reproduce every table and figure of the paper in one go.

Equivalent to ``repro-lasvegas run all`` but written against the library API
so it can serve as a template for custom campaigns.  The ``--profile full``
flag switches to larger instances and more sequential runs (minutes to tens
of minutes depending on the machine).

Run with:  python examples/reproduce_paper.py [--profile quick|full|tiny]
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import ExperimentConfig, collect_observations
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.stages import STAGE_KINDS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=("tiny", "quick", "full"), default="quick")
    parser.add_argument("--cache-dir", default=None, help="reuse solver campaigns across runs")
    args = parser.parse_args()

    config = {
        "tiny": ExperimentConfig.tiny,
        "quick": ExperimentConfig.quick,
        "full": ExperimentConfig.full,
    }[args.profile]()

    print(f"profile: {args.profile}  "
          f"(MS {config.magic_square_n}x{config.magic_square_n}, AI {config.all_interval_n}, "
          f"Costas {config.costas_n}, {config.n_sequential_runs} sequential runs)")

    start = time.perf_counter()
    campaigns = {
        kind: collect_observations(kind, config, cache_dir=args.cache_dir)
        for kind in STAGE_KINDS
    }
    print(f"sequential campaigns collected in {time.perf_counter() - start:.1f}s\n")

    for name, entry in EXPERIMENTS.items():
        result = run_experiment(name, config, observations=campaigns.get(entry.observations))
        print(result.format())
        print()


if __name__ == "__main__":
    main()
