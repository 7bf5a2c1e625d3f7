"""Physics-aware training: the paper's full Ours-C / Ours-D pipeline.

Runs one of the paper's recipes (roughness regularization -> SLR block
sparsification -> 2-pi periodic smoothing) on a chosen synthetic dataset
family and prints the same quantities the paper's tables report: test
accuracy, R_overall before the 2-pi optimization and after it.

Usage::

    python examples/train_physics_aware.py --recipe ours_c --family digits
    python examples/train_physics_aware.py --recipe ours_d --family letters
"""

import argparse

from repro.pipeline import (
    RECIPE_LABELS,
    RECIPES,
    ExperimentConfig,
    run_recipe,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--recipe", choices=RECIPES, default="ours_c")
    parser.add_argument(
        "--family",
        choices=("digits", "fashion", "kuzushiji", "letters"),
        default="digits",
    )
    parser.add_argument("--n", type=int, default=40)
    parser.add_argument("--train", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save", type=str, default=None,
                        help="optional .npz path for the trained model "
                             "artifact (servable with `repro serve`)")
    args = parser.parse_args()

    config = ExperimentConfig.laptop(
        args.family,
        n=args.n,
        seed=args.seed,
        n_train=args.train,
        n_test=max(200, args.train // 4),
        baseline_epochs=args.epochs,
    )
    print(f"recipe {RECIPE_LABELS[args.recipe]} on family "
          f"'{args.family}' (stand-in for {config.paper_dataset}); "
          f"{config.system.n}x{config.system.n} masks, block size "
          f"{config.slr.block_size}, sparsity {config.slr.sparsity_ratio}")

    result = run_recipe(args.recipe, config, verbose=True)

    print(f"\n=== {result.label} on {config.paper_dataset}-like data ===")
    print(f"accuracy           : {result.accuracy * 100:.2f}%")
    print(f"R_overall before 2p: {result.roughness_before:.2f}")
    print(f"R_overall after 2pi: {result.roughness_after:.2f} "
          f"({result.twopi_reduction * 100:.1f}% reduction)")
    if result.sparsity:
        print(f"achieved sparsity  : {result.sparsity * 100:.1f}%")
    print(f"wall time          : {result.wall_time:.0f}s")

    if args.save:
        path = result.model.save(args.save)
        print(f"saved trained model to {path}")


if __name__ == "__main__":
    main()
