"""The four physics scenarios end to end: trained vs deployed accuracy.

Runs every registered physics-robustness scenario (differential
detection, partial coherence, discrete codesign and the deployment gap)
on one dataset and prints the scenario table that ``repro report``
renders for stored runs.

Usage::

    python examples/physics_scenarios.py [--n 20 --train 240 --epochs 4]
"""

import argparse

from repro.physics import SCENARIO_RECIPES
from repro.pipeline import (
    ExperimentConfig,
    format_scenarios,
    prepare_data,
    run_recipe,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--train", type=int, default=240)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = ExperimentConfig.laptop(
        "digits", n=args.n, seed=args.seed, n_train=args.train,
        n_test=args.train // 2, baseline_epochs=args.epochs,
    )
    data = prepare_data(config)
    print(format_scenarios(
        [run_recipe(name, config, data=data) for name in SCENARIO_RECIPES]))


if __name__ == "__main__":
    main()
