"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
* ``run``         — run any registered recipe or a JSON/TOML experiment
  file; writes a self-describing run directory (``docs/experiments.md``);
  with ``--name`` the run streams ``events.jsonl``, checkpoints every
  epoch, survives Ctrl-C/SIGKILL and resumes with ``--resume``;
* ``sweep``       — run a grid/random sweep spec into a resumable sweep
  directory (supervised parallel workers, crash retry, ``--resume``);
* ``report``      — re-render paper-style tables from stored run
  directories, no recompute (``--strict`` hard-fails on corrupt runs);
  ``--compare A B`` diffs two runs roots across commits/configs instead;
* ``tail``        — live terminal dashboard over the ``events.jsonl``
  streams of a run/sweep directory (``--once`` for CI, ``--html`` for a
  static export);
* ``bench-compare`` — diff two ``BENCH_*.json`` snapshots against their
  embedded regression thresholds (non-zero exit on regression);
* ``quickstart``  — train a small DONN and print accuracy/roughness;
* ``recipe``      — run one of the paper's recipes (baseline, ours_a..d);
* ``table``       — reproduce a full paper table (five recipes);
* ``solvers``     — compare the 2-pi solvers (Gumbel-Softmax vs greedy)
  on a trained, sparsified mask;
* ``serve``       — expose a saved model artifact *or run directory*
  over HTTP/JSON (micro-batched, optionally sharded —
  see ``docs/serving.md``);
* ``bench-serve`` — load-test the serving stack (throughput, p50/p99).

``quickstart``/``recipe``/``table`` are thin aliases over the same
registry-driven path ``run`` uses (their output is golden-test enforced).
Training commands accept ``--n/--train/--epochs/--seed`` so runs scale
from smoke tests to full experiments, and ``--save`` to persist the
trained model as a self-contained artifact the serving commands consume.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .pipeline import (
    RECIPES,
    ExperimentConfig,
    format_comparison,
    format_table,
    run_recipe,
    run_table,
)

__all__ = ["build_parser", "main"]

FAMILIES = ("digits", "fashion", "kuzushiji", "letters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Physics-aware roughness optimization for DONNs "
                    "(DAC'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale_args(p, defaults=True):
        # defaults=False leaves every flag None so the caller can tell
        # "user passed it" from "parser default" (`repro run` rejects
        # scale flags next to an experiment file instead of silently
        # ignoring them).
        p.add_argument("--family", choices=FAMILIES,
                       default="digits" if defaults else None)
        p.add_argument("--n", type=int, default=40 if defaults else None)
        p.add_argument("--train", type=int,
                       default=900 if defaults else None)
        p.add_argument("--test", type=int,
                       default=300 if defaults else None)
        p.add_argument("--epochs", type=int,
                       default=10 if defaults else None)
        p.add_argument("--seed", type=int, default=0 if defaults else None)
        p.add_argument(
            "--precision", choices=("single", "double"),
            default="double" if defaults else None,
            help="training compute precision: 'single' runs the fused "
                 "FFT path in complex64 (roughly half the memory "
                 "traffic); scoring always runs in double",
        )

    def add_save_arg(p):
        p.add_argument(
            "--save", metavar="PATH", default=None,
            help="persist the trained model as a self-contained artifact "
                 "(.npz) for `repro serve` / `repro bench-serve`",
        )

    run_p = sub.add_parser(
        "run",
        help="run a registered recipe or a JSON/TOML experiment file; "
             "writes a self-describing run directory",
    )
    run_p.add_argument(
        "target",
        help="a registered recipe name (baseline, ours_a..d, noisy, or "
             "anything added via register_recipe) or a path to a "
             "JSON/TOML experiment file",
    )
    add_scale_args(run_p, defaults=False)
    run_p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="dotted-key config override (repeatable), e.g. "
             "--set slr.block_size=5 --set twopi.iterations=100; applies "
             "on top of the file/base config",
    )
    run_p.add_argument(
        "--runs-dir", default="runs", metavar="DIR",
        help="root directory run artifacts are written under "
             "(default: ./runs)",
    )
    run_p.add_argument(
        "--name", default=None, metavar="NAME",
        help="run directory name (default: "
             "<family>-n<n>-<recipe>-seed<seed>)",
    )
    run_p.add_argument("--verbose", action="store_true",
                       help="per-epoch training progress")
    run_p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run (needs --name): training "
             "resumes from the run directory's latest checkpoint and "
             "the final result is byte-identical to an uninterrupted run",
    )
    run_p.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="training checkpoint cadence in epochs (default: 1; only "
             "applies with --name, which fixes the run directory "
             "up front)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="run a grid/random sweep spec into a resumable sweep "
             "directory (see docs/experiments.md)",
    )
    sweep_p.add_argument(
        "spec", nargs="?", default=None,
        help="a JSON/TOML sweep spec (experiment-file schema plus a "
             "'grid' or 'random' section); omit with --resume",
    )
    sweep_p.add_argument(
        "--out", default=None, metavar="DIR",
        help="sweep directory to create (default: sweeps/<spec stem>)",
    )
    sweep_p.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume an existing sweep directory: completed points are "
             "skipped, half-trained ones continue from their "
             "checkpoints, failed ones re-run",
    )
    sweep_p.add_argument(
        "--max-workers", type=int, default=1,
        help="supervised worker processes (default: 1, in-process); "
             "crashes are retried with backoff and recorded as "
             "structured failures when retries run out",
    )
    sweep_p.add_argument(
        "--max-retries", type=int, default=2,
        help="crash retries per point before it is recorded as failed "
             "(default: 2)",
    )
    sweep_p.add_argument(
        "--timeout-s", type=float, default=None, metavar="S",
        help="per-point wall-clock budget; a worker over it is killed "
             "and the point retried (default: none)",
    )
    sweep_p.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="training checkpoint cadence in epochs (default: 1)",
    )
    sweep_p.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="chaos testing: one-shot point faults, e.g. "
             "'kill:point=0,epoch=1;hang:point=2' (kinds: kill, hang, "
             "diverge)",
    )
    sweep_p.add_argument("--verbose", action="store_true",
                         help="per-epoch training progress")

    report = sub.add_parser(
        "report",
        help="re-render paper-style tables from stored run directories "
             "(no recompute)",
    )
    report.add_argument("runs_dir", metavar="RUNS_DIR", nargs="?",
                        default=None,
                        help="a runs root (or a single run directory)")
    report.add_argument(
        "--strict", action="store_true",
        help="treat a corrupt run directory as a hard error instead of "
             "skipping it with a warning (CI gates)",
    )
    report.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), default=None,
        help="diff two runs roots instead of rendering tables: matched "
             "run directories get metric deltas and per-stage wall "
             "times; exits 1 if B regresses accuracy vs A",
    )
    report.add_argument(
        "--tolerance", type=float, default=1e-6, metavar="EPS",
        help="accuracy drop beyond this counts as a regression with "
             "--compare (default: 1e-6, i.e. any drop)",
    )

    quick = sub.add_parser("quickstart", help="train a small DONN")
    add_scale_args(quick)
    add_save_arg(quick)

    recipe = sub.add_parser("recipe", help="run one paper recipe")
    add_scale_args(recipe)
    add_save_arg(recipe)
    recipe.add_argument("--recipe", choices=RECIPES, default="ours_c")

    table = sub.add_parser("table", help="reproduce a full paper table")
    add_scale_args(table)
    table.add_argument(
        "--max-workers", type=int, default=None,
        help="fan recipes out across this many worker processes "
             "(results are byte-identical to the serial run)",
    )
    table.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="keep the table's sweep directory at DIR (sweep.json plus "
             "one run directory per recipe under DIR/runs; re-renderable "
             "later with `repro report DIR`)",
    )

    solvers = sub.add_parser("solvers",
                             help="compare 2-pi solvers on one mask")
    add_scale_args(solvers)

    def add_serve_args(p, model_required=True):
        p.add_argument("--model", required=model_required, metavar="PATH",
                       help="model artifact saved with --save, "
                            "or a run directory written by `repro run`")
        p.add_argument("--precision", choices=("single", "double"),
                       default=None,
                       help="engine precision (default: the precision "
                            "recorded in the artifact, else double)")
        p.add_argument("--max-batch", type=int, default=32,
                       help="micro-batching flush size")
        p.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="max milliseconds a request waits for a busy "
                            "pool before its batch goes anyway")
        p.add_argument("--shards", type=int, default=1,
                       help="engine workers (each holds one engine)")
        p.add_argument("--backend", choices=("thread", "process"),
                       default="thread")
        p.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="admission window: requests beyond N "
                            "in flight are shed with 429 + Retry-After "
                            "(default: unbounded)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="default per-request deadline; expired "
                            "requests fail fast with 504")
        p.add_argument("--faults", default=None, metavar="PLAN",
                       help="fault-injection plan for chaos testing, "
                            "e.g. 'kill:shard=1,after=3' or "
                            "'kill:replica=1,after=5' (also read "
                            "from $REPRO_FAULTS; see docs/serving.md)")
        p.add_argument("--replicas", type=int, default=1, metavar="N",
                       help="run N process-backed server replicas behind "
                            "a health-probing router with failover "
                            "(default: a single in-process server)")
        p.add_argument("--hedge-ms", type=float, default=None, metavar="MS",
                       help="with --replicas > 1: duplicate requests "
                            "still unanswered after MS to a second "
                            "replica, first answer wins")

    serve = sub.add_parser(
        "serve", help="serve a model artifact over HTTP/JSON"
    )
    add_serve_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="0 binds an ephemeral port")

    bench = sub.add_parser(
        "bench-serve",
        help="load-test the serving stack (throughput, p50/p99 latency)",
    )
    add_serve_args(bench, model_required=False)
    bench.add_argument("--requests", type=int, default=512)
    bench.add_argument("--concurrency", type=int, default=64)
    bench.add_argument("--url", default=None, metavar="URL",
                       help="load-test a live `repro serve` endpoint over "
                            "HTTP instead of an in-process server")
    bench.add_argument("--check", action="store_true",
                       help="verify served predictions are byte-identical "
                            "to a serial engine before timing")
    bench.add_argument("--output", default=None, metavar="JSON",
                       help="write the stats snapshot here")

    tail_p = sub.add_parser(
        "tail",
        help="live terminal dashboard over the events.jsonl streams of "
             "a run, sweep, or runs root",
    )
    tail_p.add_argument(
        "path", metavar="DIR",
        help="a sweep directory (sweep.json), a single run directory, "
             "or a runs root containing run directories",
    )
    tail_p.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (non-TTY/CI friendly)",
    )
    tail_p.add_argument(
        "--html", default=None, metavar="PATH",
        help="write a static HTML snapshot to PATH and exit",
    )
    tail_p.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh period in follow mode (default: 1.0s)",
    )

    bench_cmp = sub.add_parser(
        "bench-compare",
        help="diff two BENCH_*.json snapshots; non-zero exit on "
             "regression against the embedded thresholds",
    )
    bench_cmp.add_argument("old", metavar="OLD_JSON",
                           help="baseline snapshot (e.g. the committed "
                                "benchmarks/BENCH_*.json)")
    bench_cmp.add_argument("new", metavar="NEW_JSON",
                           help="candidate snapshot to gate")
    bench_cmp.add_argument(
        "--max-drop", type=float, default=None, metavar="FRAC",
        help="also fail if any shared case's mean time grew by more "
             "than this fraction (e.g. 0.25 = 25%% slower); off by "
             "default because CI machines are noisy",
    )

    recipes_p = sub.add_parser(
        "recipes",
        help="list every registered recipe with its stage composition",
    )
    recipes_p.add_argument(
        "--paper-only", action="store_true",
        help="only the recipes marked as published table rows",
    )
    return parser


def _config(args) -> ExperimentConfig:
    return ExperimentConfig.laptop(
        args.family,
        n=args.n,
        seed=args.seed,
        n_train=args.train,
        n_test=args.test,
        baseline_epochs=args.epochs,
        precision=getattr(args, "precision", None) or "double",
    )


def _save_result(args, result, recipe: str) -> None:
    """Persist a trained recipe result when ``--save`` was given."""
    if getattr(args, "save", None) is None:
        return
    path = result.model.save(args.save, metadata={
        "recipe": recipe,
        "family": args.family,
        "accuracy": result.accuracy,
        "roughness_before": result.roughness_before,
        "roughness_after": result.roughness_after,
        "seed": args.seed,
    }, precision=args.precision)
    print(f"saved model artifact: {path}")


def _recipe_summary(result) -> str:
    """The one-line recipe summary (shared by `recipe` and `run`)."""
    return (f"{result.label}: accuracy {result.accuracy * 100:.2f}%  "
            f"R_pre {result.roughness_before:.2f}  "
            f"R_post {result.roughness_after:.2f}  "
            f"sparsity {result.sparsity * 100:.0f}%")


#: `repro run` scale flags and their recipe-name-target defaults
#: (mirroring `repro recipe`); None = "not passed by the user".
_RUN_SCALE_DEFAULTS = {
    "family": "digits", "n": 40, "train": 900, "test": 300,
    "epochs": 10, "seed": 0, "precision": "double",
}


def _cmd_run(args) -> int:
    from .pipeline import (
        apply_overrides,
        get_recipe,
        load_experiment,
        parse_override_items,
        save_run,
    )
    from .pipeline.events import EVENTS_FILE, EventLog
    from .pipeline.experiment_io import EXPERIMENT_FILE_SUFFIXES
    from .pipeline.runs import RUN_FILE
    from .utils import InterruptRequested, graceful_sigint

    target = Path(args.target)
    try:
        overrides = parse_override_items(args.set)
        if target.suffix in EXPERIMENT_FILE_SUFFIXES or target.is_file():
            passed = [flag for flag in _RUN_SCALE_DEFAULTS
                      if getattr(args, flag) is not None]
            if passed:
                print(
                    f"--{'/--'.join(passed)} do not apply to experiment "
                    f"files ({target} fixes the scale); use --set "
                    "overrides instead (e.g. --set baseline_epochs=5)",
                    file=sys.stderr,
                )
                return 2
            spec = load_experiment(target)
            if spec.recipe is None:
                print(f"{target} does not set a recipe; add "
                      '"recipe": "<name>" to the file', file=sys.stderr)
                return 2
            recipe_name, config = spec.recipe, spec.config
        else:
            for flag, default in _RUN_SCALE_DEFAULTS.items():
                if getattr(args, flag) is None:
                    setattr(args, flag, default)
            recipe_name, config = args.target, _config(args)
        get_recipe(recipe_name)  # fail fast with the registered names
        config = apply_overrides(config, overrides)
        if args.checkpoint_every < 1:
            print("--checkpoint-every must be >= 1", file=sys.stderr)
            return 2
        if args.resume and not args.name:
            print("--resume needs --name (it fixes the run directory "
                  "the checkpoints live in)", file=sys.stderr)
            return 2
        if args.name:
            # Validate the destination *before* spending the training
            # compute: a collision after run_recipe would discard the
            # finished result.
            run_dir = Path(args.runs_dir) / args.name
            if run_dir.exists() and any(run_dir.iterdir()):
                if (run_dir / RUN_FILE).exists():
                    print(f"run directory {run_dir} already exists and "
                          "holds a completed run; pick another --name",
                          file=sys.stderr)
                    return 2
                if not args.resume:
                    print(f"run directory {run_dir} already exists and "
                          "is not empty; pick another --name, or pass "
                          "--resume to continue an interrupted run",
                          file=sys.stderr)
                    return 2
    except (ValueError, FileNotFoundError) as exc:
        print(exc, file=sys.stderr)
        return 2
    # With --name the run directory is known up front, so the run gets
    # the full fault-tolerance kit: a live events.jsonl stream and
    # per-epoch crash-safe checkpoints (--resume picks them up).
    events = EventLog.null()
    checkpoint_dir = None
    if args.name:
        run_dir = Path(args.runs_dir) / args.name
        run_dir.mkdir(parents=True, exist_ok=True)
        events = EventLog(run_dir / EVENTS_FILE)
        checkpoint_dir = run_dir / "checkpoints"
    try:
        with events, graceful_sigint():
            result = run_recipe(
                recipe_name, config, verbose=args.verbose, events=events,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
            )
    except InterruptRequested as exc:
        print(f"\ninterrupted ({exc}); the latest checkpoint is saved — "
              "resume with the same command plus --resume",
              file=sys.stderr)
        return 130
    run_dir = save_run(result, config, args.runs_dir, name=args.name,
                       in_progress_ok=bool(args.name))
    if checkpoint_dir is not None:
        import shutil

        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    print(_recipe_summary(result))
    for record in result.stages:
        print(f"  stage {record.name:<13} {record.wall_time:8.2f}s")
    print(f"run directory: {run_dir}")
    return 0


def _cmd_sweep(args) -> int:
    from .pipeline import sweep as sweep_mod
    from .utils import graceful_sigint

    try:
        faults = sweep_mod.parse_faults(args.faults)
        if args.resume:
            if args.spec is not None:
                print("pass either a spec file (fresh sweep) or "
                      "--resume DIR, not both", file=sys.stderr)
                return 2
            sweep_dir, spec = Path(args.resume), None
        else:
            if args.spec is None:
                print("sweep needs a spec file (fresh sweep) or "
                      "--resume DIR", file=sys.stderr)
                return 2
            spec = sweep_mod.load_sweep_spec(args.spec)
            sweep_dir = (Path(args.out) if args.out
                         else Path("sweeps") / Path(args.spec).stem)
        with graceful_sigint():
            summary = sweep_mod.run_sweep_dir(
                sweep_dir, spec,
                resume=args.resume is not None,
                max_workers=args.max_workers,
                max_retries=args.max_retries,
                timeout_s=args.timeout_s,
                checkpoint_every=args.checkpoint_every,
                faults=faults,
                verbose=args.verbose,
                echo=print,
            )
    except (ValueError, FileNotFoundError, FileExistsError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(sweep_mod.format_sweep(sweep_dir))
    print()
    print(f"sweep {sweep_dir}: {summary.completed} completed, "
          f"{summary.skipped} skipped, {summary.failed} failed, "
          f"{summary.pending} pending")
    if summary.interrupted:
        print(f"interrupted; continue with: repro sweep --resume "
              f"{sweep_dir}", file=sys.stderr)
        return 130
    return 1 if summary.failed else 0


def _cmd_report(args) -> int:
    from itertools import groupby

    from .pipeline import format_scenarios, load_runs, table_from_runs

    if args.compare is not None:
        if args.runs_dir is not None:
            print("pass either RUNS_DIR or --compare A B, not both",
                  file=sys.stderr)
            return 2
        from .obs import compare_runs, format_run_comparison

        try:
            comparison = compare_runs(args.compare[0], args.compare[1],
                                      tolerance=args.tolerance)
        except (FileNotFoundError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2
        print(format_run_comparison(comparison), end="")
        return 1 if comparison["regressions"] else 0
    if args.runs_dir is None:
        print("report needs RUNS_DIR (render tables) or --compare A B "
              "(diff two runs roots)", file=sys.stderr)
        return 2
    try:
        runs = load_runs(args.runs_dir, strict=args.strict)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    runs = sorted(runs, key=lambda run: run.family)
    first = True
    for family, group in groupby(runs, key=lambda run: run.family):
        if not first:
            print()
        first = False
        table = table_from_runs(list(group))
        print(format_table(table))
        print()
        print(format_comparison(table))
    # Physics-scenario runs get their trained-vs-deployed columns; the
    # block is empty (and unprinted) for legacy runs, so existing report
    # output stays byte-identical.
    scenarios = format_scenarios(runs)
    if scenarios:
        print()
        print(scenarios)
    print()
    print(f"rendered {len(runs)} stored run(s) from {args.runs_dir}")
    return 0


def _cmd_quickstart(args) -> int:
    result = run_recipe("baseline", _config(args))
    print(f"accuracy          : {result.accuracy * 100:.2f}%")
    print(f"R_overall (pre/post 2pi): {result.roughness_before:.2f} / "
          f"{result.roughness_after:.2f}")
    _save_result(args, result, "baseline")
    return 0


def _cmd_recipe(args) -> int:
    result = run_recipe(args.recipe, _config(args))
    print(_recipe_summary(result))
    _save_result(args, result, args.recipe)
    return 0


def _cmd_table(args) -> int:
    try:
        table = run_table(_config(args), max_workers=args.max_workers,
                          runs_dir=args.runs_dir)
    except FileExistsError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(format_table(table))
    print()
    print(format_comparison(table))
    return 0


def _cmd_solvers(args) -> int:
    from .pipeline.ablations import compare_twopi_solvers

    config = _config(args)
    result = run_recipe("ours_b", config)
    phase = result.model.phases()[0]
    # The mask was sparsified on the config's block grid; compare the
    # solvers on that same grid.
    comparison = compare_twopi_solvers(phase,
                                       block_size=config.slr.block_size,
                                       seed=args.seed)
    print(f"2-pi solver comparison on a sparsified layer "
          f"(R before = {comparison['before']:.2f}):")
    for name in ("gumbel_softmax", "greedy", "gumbel_plus_greedy"):
        value = comparison[name]
        drop = (1 - value / comparison["before"]) * 100
        print(f"  {name:<20} R after = {value:8.2f}  ({drop:5.1f}% drop)")
    return 0


def _serve_config(args, host=None, port=None):
    from .serve import ServeConfig

    kwargs = dict(
        precision=args.precision,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1e3,
        shards=args.shards,
        backend=args.backend,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
        faults=args.faults,
    )
    if host is not None:
        kwargs["host"] = host
    if port is not None:
        kwargs["port"] = port
    return ServeConfig(**kwargs)


def _bad_hedge_ms(args) -> bool:
    """``--hedge-ms`` only acts in the router and must be > 0: report
    (and refuse) it rather than ignore it or fail after spawning
    replicas."""
    if args.hedge_ms is None:
        return False
    if args.replicas <= 1:
        problem = "needs --replicas > 1 (hedging happens in the router)"
    elif not args.hedge_ms > 0:
        problem = f"must be > 0, got {args.hedge_ms}"
    else:
        return False
    print(f"--hedge-ms {problem}", file=sys.stderr)
    return True


def _park_until_interrupted() -> None:
    """Park the main thread while the frontend accepts on its own
    thread; returns on Ctrl-C.  ``time.sleep`` is reliably interruptible
    by SIGINT, unlike a bare lock wait."""
    import time

    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass


def _serve_cluster(args, artifact) -> int:
    """``repro serve --replicas N``: ReplicaSet + Router, park, drain
    gracefully on Ctrl-C."""
    from .serve import ReplicaSet, Router, RouterConfig

    config = _serve_config(args)
    with ReplicaSet(artifact, replicas=args.replicas, config=config) as rs:
        with Router(replica_set=rs,
                    config=RouterConfig(hedge_ms=args.hedge_ms)) as router:
            frontend = router.serve_http(host=args.host, port=args.port)
            print(f"serving {artifact} with {args.replicas} replicas "
                  f"behind router at {frontend.url}")
            for replica_id, url in rs.endpoints():
                print(f"  {replica_id}: {url}")
            print("  POST /v1/predict | /v1/logits | /v1/intensity ; "
                  "GET /healthz | /metrics ; POST /admin/drain   "
                  "(Ctrl-C drains and stops)")
            _park_until_interrupted()
            print("\ndraining (new requests get 503 + Retry-After)")
            router.begin_drain()
            rs.begin_drain()
    return 0


def _cmd_serve(args) -> int:
    from .serve import Server, resolve_artifact

    if _bad_hedge_ms(args):
        return 2
    artifact = resolve_artifact(args.model)
    if args.replicas > 1:
        return _serve_cluster(args, artifact)
    server = Server(artifact=artifact,
                    config=_serve_config(args, args.host, args.port))
    with server:
        server.warmup()
        frontend = server.serve_http()
        server_info = server.info()
        info = server_info["model"]["config"]
        print(f"serving {artifact} "
              f"(n={info['n']}, {info['num_layers']} layers) at "
              f"{frontend.url}")
        print(f"  precision={server_info['precision']} "
              f"max_batch={args.max_batch} "
              f"shards={args.shards} backend={args.backend}")
        print("  POST /v1/predict | /v1/logits | /v1/intensity ; "
              "GET /healthz | /v1/model   (Ctrl-C stops)")
        _park_until_interrupted()  # Server.stop on exit ends the accept loop
        print("\nshutting down")
    return 0


def _cmd_bench_serve(args) -> int:
    import numpy as np

    from .serve import http_sender, run_load, write_snapshot

    if _bad_hedge_ms(args):
        return 2
    rng = np.random.default_rng(0)
    samples = rng.random((64, 28, 28))

    if args.url is not None:
        if args.check:
            print("--check needs an in-process server: pass --model "
                  "instead of --url", file=sys.stderr)
            return 2
        send = http_sender(args.url)
        stats = run_load(send, samples, args.requests, args.concurrency)
        snapshot = {"target": args.url, "load": stats}
    elif args.model is None:
        print("bench-serve needs --model (or --url for a live server)",
              file=sys.stderr)
        return 2
    else:
        snapshot = _bench_serve_model(args, samples)
        if snapshot is None:
            return 1
        stats = snapshot["load"]
    replicas = (f"  (replicas {snapshot['replicas']})"
                if "replicas" in snapshot else "")
    print(f"{stats['requests']} requests, concurrency "
          f"{stats['concurrency']}: {stats['throughput_rps']} req/s  "
          f"p50 {stats['p50_ms']} ms  p90 {stats['p90_ms']} ms  "
          f"p99 {stats['p99_ms']} ms{replicas}")
    if args.output:
        write_snapshot(args.output, snapshot)
        print(f"wrote {args.output}")
    return 0


def _bench_serve_model(args, samples) -> Optional[dict]:
    """``repro bench-serve --model``: the closed loop against an
    in-process Server or, with ``--replicas N``, through a real
    ReplicaSet + Router over HTTP.  With ``--faults`` it drives recovery
    until ``/healthz`` reads ok; with ``--check`` every answer is
    verified against the serial engine.  Returns the snapshot, or None
    when recovery or the check failed."""
    from .serve import resolve_artifact
    from .serve.bench import deployment, verified_load
    from .utils.serialization import (load_model, read_model_header,
                                      serving_precision)

    artifact = resolve_artifact(args.model)
    config = _serve_config(args)
    plan = config.resolved_faults()
    cluster = args.replicas > 1
    replicas = args.replicas if cluster else None
    with deployment(config, artifact, replicas=replicas,
                    hedge_ms=args.hedge_ms) as (target, load):
        precision = serving_precision(read_model_header(artifact),
                                      config.precision)
        reference = (load_model(artifact).inference_engine(
            precision=precision).predict(samples) if args.check else None)
        if not plan:
            load["recover"] = None  # no chaos: nothing to recover from
        stats, verdict = verified_load(
            samples=samples, n_requests=args.requests,
            concurrency=args.concurrency, reference=reference, **load)
        snapshot = {"target": str(artifact), "load": stats}
        if cluster:
            stats["replicas"] = snapshot["replicas"] = args.replicas
            counts = target.metrics.as_dict()
            totals = target.metrics.counter_totals()
            hedges = {outcome: int(counts.get(
                f'repro_router_hedges_total{{outcome="{outcome}"}}', 0))
                for outcome in ("won", "lost")}
            failovers = int(totals.get("repro_router_failovers_total", 0))
            ejections = int(totals.get("repro_router_ejections_total", 0))
            snapshot["router"] = {"hedges": hedges, "failovers": failovers,
                                  "ejections": ejections}
        else:
            stats["batcher"] = target.stats()["batcher"]
        if plan:
            health = stats["health"] = target.health()
            if cluster:
                detail = (f"replica respawns {health['restarts']}, "
                          f"failovers {failovers}, ejections {ejections}, "
                          f"quarantined {health['quarantined']}")
            else:
                detail = (f"restarts {health['restarts']}, "
                          f"failures {health['failures']}, "
                          f"retries {health['retries']}")
            print(f"faults: {plan} -> health {health['status']} ({detail})")
            if health["status"] != "ok":
                healthz = "router /healthz" if cluster else "/healthz"
                print(f"FAULT RECOVERY FAILED: {healthz} did not return "
                      "to ok", file=sys.stderr)
                return None
    if args.check:
        served = "routed" if cluster else "served"
        if verdict["mismatches"]:
            print(f"CHECK FAILED: {verdict['mismatches']} {served} "
                  f"prediction(s) differ from serial engine",
                  file=sys.stderr)
            return None
        print(f"check: {served} predictions byte-identical to serial "
              "engine (verified under load)")
    return snapshot


def _cmd_tail(args) -> int:
    from .obs import follow, render_html, render_text, snapshot

    try:
        if args.html:
            Path(args.html).write_text(render_html(snapshot(args.path)))
            print(f"wrote {args.html}")
        elif args.once:
            print(render_text(snapshot(args.path)), end="")
        else:
            follow(args.path, interval=args.interval)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    return 0


def _cmd_recipes(args) -> int:
    from .pipeline import get_recipe, paper_recipe_names, recipe_names

    names = paper_recipe_names() if args.paper_only else recipe_names()
    width = max(len(name) for name in names)
    for name in names:
        recipe = get_recipe(name)
        marker = "*" if recipe.paper_row else " "
        stages = " -> ".join(recipe.stage_names())
        print(f"{marker} {name:<{width}}  [{recipe.label}]  {stages}")
    print()
    print(f"{len(names)} registered recipe(s); * = published table row. "
          "Run one with `repro run <name>`.")
    return 0


def _cmd_bench_compare(args) -> int:
    from .obs import bench_compare, format_bench_compare

    try:
        result = bench_compare(args.old, args.new,
                               max_drop=args.max_drop)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(format_bench_compare(result), end="")
    return 1 if result["regressions"] else 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "quickstart": _cmd_quickstart,
    "recipe": _cmd_recipe,
    "table": _cmd_table,
    "solvers": _cmd_solvers,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
    "tail": _cmd_tail,
    "bench-compare": _cmd_bench_compare,
    "recipes": _cmd_recipes,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
