"""Tests of the command-line interface (tiny end-to-end runs)."""

import json

import pytest

from repro.cli import build_parser, main

TINY = ["--n", "20", "--train", "60", "--test", "30", "--epochs", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.command == "quickstart"
        assert args.family == "digits"
        assert args.n == 40

    def test_recipe_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recipe", "--recipe", "ours_z"])

    def test_family_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--family", "klingon"])

    def test_serve_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        # None = "the precision recorded in the artifact, else double".
        assert args.precision is None
        assert args.max_batch == 32
        assert args.shards == 1
        assert args.backend == "thread"
        assert args.port == 8000

    def test_serve_knobs(self):
        args = build_parser().parse_args([
            "serve", "--model", "m.npz", "--precision", "single",
            "--max-batch", "8", "--shards", "4", "--backend", "process",
        ])
        assert (args.precision, args.max_batch, args.shards,
                args.backend) == ("single", 8, 4, "process")

    def test_bench_serve_defaults(self):
        args = build_parser().parse_args(["bench-serve", "--model", "m"])
        assert args.requests == 512
        assert args.url is None
        assert not args.check

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "ours_c"])
        assert args.command == "run"
        assert args.target == "ours_c"
        assert args.runs_dir == "runs"
        assert args.name is None
        assert args.set == []

    def test_run_set_repeatable(self):
        args = build_parser().parse_args([
            "run", "ours_c", "--set", "slr.block_size=5",
            "--set", "n_train=60",
        ])
        assert args.set == ["slr.block_size=5", "n_train=60"]

    def test_run_resume_and_checkpoint_flags(self):
        args = build_parser().parse_args(["run", "ours_c"])
        assert args.resume is False
        assert args.checkpoint_every == 1
        args = build_parser().parse_args([
            "run", "ours_c", "--name", "x", "--resume",
            "--checkpoint-every", "5",
        ])
        assert args.resume is True and args.checkpoint_every == 5

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "spec.json"])
        assert args.command == "sweep"
        assert args.spec == "spec.json"
        assert args.out is None and args.resume is None
        assert args.max_workers == 1
        assert args.max_retries == 2
        assert args.timeout_s is None
        assert args.checkpoint_every == 1
        assert args.faults is None

    def test_report_requires_runs_dir(self, capsys):
        # RUNS_DIR is optional at parse time (--compare replaces it),
        # but the bare form is still rejected by the command itself.
        args = build_parser().parse_args(["report"])
        assert args.runs_dir is None
        assert main(["report"]) == 2
        assert "RUNS_DIR" in capsys.readouterr().err

    def test_report_strict_flag(self):
        assert build_parser().parse_args(["report", "runs"]).strict is False
        assert build_parser().parse_args(
            ["report", "runs", "--strict"]).strict is True

    def test_table_runs_dir_optional(self):
        assert build_parser().parse_args(["table"]).runs_dir is None


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", *TINY]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "R_overall" in out

    def test_recipe_runs(self, capsys):
        assert main(["recipe", "--recipe", "ours_a", *TINY]) == 0
        out = capsys.readouterr().out
        assert "Ours-A" in out

    def test_sparse_recipe_reports_sparsity(self, capsys):
        assert main(["recipe", "--recipe", "ours_b", *TINY]) == 0
        out = capsys.readouterr().out
        assert "sparsity" in out

    def test_quickstart_save_then_bench_serve(self, capsys, tmp_path):
        # The end-to-end serving story: train -> artifact -> load test.
        artifact = tmp_path / "model.npz"
        assert main(["quickstart", *TINY, "--save", str(artifact)]) == 0
        assert artifact.is_file()
        assert main([
            "bench-serve", "--model", str(artifact), "--requests", "32",
            "--concurrency", "4", "--check",
            "--output", str(tmp_path / "bench.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        assert "req/s" in out
        assert (tmp_path / "bench.json").is_file()

    def test_bench_serve_without_model_or_url_fails(self, capsys):
        assert main(["bench-serve", "--requests", "4"]) == 2

    def test_bench_serve_check_incompatible_with_url(self, capsys):
        # --check must refuse rather than silently skip verification.
        assert main(["bench-serve", "--url", "http://localhost:1",
                     "--check"]) == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "bench-serve"])
    @pytest.mark.parametrize("flags, message", [
        (["--hedge-ms", "20"], "--hedge-ms needs --replicas > 1"),
        (["--hedge-ms", "-5"], "--hedge-ms needs --replicas > 1"),
        (["--replicas", "2", "--hedge-ms", "-5"], "--hedge-ms must be > 0"),
    ])
    def test_bad_hedge_is_rejected(self, capsys, command, flags, message):
        # Hedging lives in the router: the flag must refuse, before any
        # replica starts, rather than be silently dropped or crash.
        assert main([command, "--model", "missing.npz", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_replica_check_reference_uses_artifact_precision(
            self, capsys, monkeypatch, tmp_path):
        # Replicas serve a single-precision artifact at single, so the
        # --check reference must be built at single too.
        import contextlib

        import numpy as np

        import repro.serve.bench as bench
        import repro.utils.serialization as serialization
        from repro.autodiff.rng import spawn_rng
        from repro.donn import DONN, DONNConfig
        from repro.obs.metrics import MetricsRegistry

        model = DONN(DONNConfig.laptop(n=16, num_layers=1),
                     rng=spawn_rng(0))
        artifact = model.save(tmp_path / "m.npz", precision="single")
        built = []

        class Engine:
            def predict(self, samples):
                return np.zeros(len(samples), dtype=np.int64)

        class Model:
            def inference_engine(self, precision):
                built.append(precision)
                return Engine()

        class Target:
            metrics = MetricsRegistry()

        @contextlib.contextmanager
        def deployment(config, artifact, replicas=None, hedge_ms=None):
            assert replicas == 2
            yield Target(), {"send": lambda sample: 0,
                             "health": lambda: {"status": "ok"}}

        monkeypatch.setattr(bench, "deployment", deployment)
        monkeypatch.setattr(serialization, "load_model",
                            lambda path: Model())
        assert main(["bench-serve", "--model", str(artifact),
                     "--replicas", "2", "--check", "--requests", "4",
                     "--concurrency", "2"]) == 0
        assert built == ["single"]


class TestRunCommand:
    def test_json_config_reproduces_recipe_output(self, capsys, tmp_path):
        # Acceptance: `repro run` on a JSON config must produce the same
        # numbers as `repro recipe` with equivalent flags, and leave a
        # reloadable run directory behind.
        assert main(["recipe", "--recipe", "ours_a", *TINY]) == 0
        recipe_line = capsys.readouterr().out.splitlines()[0]

        config_file = tmp_path / "exp.json"
        config_file.write_text(json.dumps({
            "recipe": "ours_a",
            "base": "laptop",
            "family": "digits",
            "n": 20,
            "set": {"n_train": 60, "n_test": 30, "baseline_epochs": 1},
        }))
        runs_dir = tmp_path / "runs"
        assert main(["run", str(config_file),
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == recipe_line
        assert "run directory" in out

        from repro.pipeline import load_runs

        (run,) = load_runs(runs_dir)
        assert run.recipe == "ours_a"
        assert f"accuracy {run.accuracy * 100:.2f}%" in recipe_line

    def test_recipe_name_target_with_overrides(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        assert main(["run", "baseline", *TINY, "--runs-dir",
                     str(runs_dir), "--name", "smoke",
                     "--set", "twopi.iterations=10"]) == 0
        out = capsys.readouterr().out
        assert "[5], [6], [8]" in out
        assert (runs_dir / "smoke" / "run.json").is_file()

        from repro.pipeline import load_run

        assert load_run(runs_dir / "smoke").config.twopi.iterations == 10

    def test_registered_extensibility_recipe_runs(self, capsys, tmp_path):
        assert main(["run", "noisy", *TINY, "--runs-dir",
                     str(tmp_path / "runs"),
                     "--set", "twopi.iterations=10"]) == 0
        assert "Noise-inject" in capsys.readouterr().out

    def test_config_missing_required_key_fails_cleanly(self, capsys,
                                                       tmp_path):
        config_file = tmp_path / "exp.json"
        config_file.write_text(json.dumps(
            {"recipe": "baseline", "config": {"family": "digits"}}))
        assert main(["run", str(config_file), "--runs-dir",
                     str(tmp_path / "runs")]) == 2
        assert "missing ExperimentConfig key(s): system" in \
            capsys.readouterr().err

    def test_unknown_recipe_fails_cleanly(self, capsys, tmp_path):
        assert main(["run", "ours_z", "--runs-dir",
                     str(tmp_path / "runs")]) == 2
        assert "unknown recipe" in capsys.readouterr().err

    def test_bad_set_fails_cleanly(self, capsys, tmp_path):
        assert main(["run", "baseline", "--runs-dir",
                     str(tmp_path / "runs"),
                     "--set", "warp_factor=9"]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_file_without_recipe_fails_cleanly(self, capsys, tmp_path):
        config_file = tmp_path / "exp.json"
        config_file.write_text(json.dumps({"base": "laptop", "n": 20}))
        assert main(["run", str(config_file)]) == 2
        assert "recipe" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err

    def test_scale_flags_rejected_with_file_target(self, capsys, tmp_path):
        # A file fixes the scale; silently ignoring --epochs would
        # record wrong provenance.
        config_file = tmp_path / "exp.json"
        config_file.write_text(json.dumps({
            "recipe": "baseline", "base": "laptop", "n": 20,
        }))
        assert main(["run", str(config_file), "--epochs", "5"]) == 2
        err = capsys.readouterr().err
        assert "epochs" in err
        assert "--set" in err

    def test_name_collision_rejected_before_training(self, capsys,
                                                     tmp_path):
        runs_dir = tmp_path / "runs"
        occupied = runs_dir / "exp1"
        occupied.mkdir(parents=True)
        (occupied / "run.json").write_text("{}")
        assert main(["run", "baseline", *TINY, "--runs-dir",
                     str(runs_dir), "--name", "exp1"]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_resume_requires_name(self, capsys):
        assert main(["run", "baseline", *TINY, "--resume"]) == 2
        assert "--resume needs --name" in capsys.readouterr().err

    def test_interrupted_dir_suggests_resume(self, capsys, tmp_path):
        # A half-run directory (events stream, no run.json) is the
        # --resume case, not a plain collision.
        runs_dir = tmp_path / "runs"
        half = runs_dir / "exp1"
        half.mkdir(parents=True)
        (half / "events.jsonl").write_text("")
        assert main(["run", "baseline", *TINY, "--runs-dir",
                     str(runs_dir), "--name", "exp1"]) == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_checkpoint_every_validated(self, capsys):
        assert main(["run", "baseline", *TINY,
                     "--checkpoint-every", "0"]) == 2
        assert "--checkpoint-every" in capsys.readouterr().err


class TestSweepCommand:
    SPEC = {
        "base": "laptop", "family": "digits", "n": 20, "seed": 0,
        "recipe": "baseline",
        "set": {"n_train": 60, "n_test": 30, "batch_size": 30,
                "baseline_epochs": 1, "twopi.iterations": 10},
        "grid": {"roughness_p": [0.1]},
    }

    def test_sweep_then_resume_skips(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(self.SPEC))
        sweep_dir = tmp_path / "sw"
        assert main(["sweep", str(spec_file), "--out",
                     str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 completed, 0 skipped, 0 failed, 0 pending" in out
        assert "p000-baseline" in out
        assert (sweep_dir / "sweep.json").is_file()
        assert (sweep_dir / "runs" / "p000-baseline"
                / "run.json").is_file()
        from repro.pipeline import format_sweep

        table = format_sweep(sweep_dir)
        assert table in out
        # Resume: nothing recomputed, identical table re-rendered.
        assert main(["sweep", "--resume", str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 completed, 1 skipped, 0 failed, 0 pending" in out
        assert table in out

    def test_spec_xor_resume(self, capsys, tmp_path):
        assert main(["sweep"]) == 2
        assert "spec file" in capsys.readouterr().err
        assert main(["sweep", "spec.json", "--resume",
                     str(tmp_path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_bad_spec_fails_cleanly(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"recipe": "baseline"}))
        assert main(["sweep", str(spec_file)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_bad_faults_fail_cleanly(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(self.SPEC))
        assert main(["sweep", str(spec_file), "--out",
                     str(tmp_path / "sw"), "--faults",
                     "explode:point=0"]) == 2
        assert "bad fault" in capsys.readouterr().err


class TestRecipesCommand:
    def test_lists_registry_with_stage_lists(self, capsys):
        assert main(["recipes"]) == 0
        out = capsys.readouterr().out
        assert "* baseline" in out
        assert "train -> score -> twopi" in out
        # The physics scenarios ride along, unmarked (not paper rows).
        for name in ("differential", "partial_coherence", "quantized",
                     "deploy_gap"):
            assert f"  {name}" in out
        gap_line = next(line for line in out.splitlines()
                        if line.startswith("  deploy_gap"))
        assert "train -> score -> twopi -> deploy_gap" in gap_line
        assert "* = published table row" in out

    def test_paper_only_filters(self, capsys):
        assert main(["recipes", "--paper-only"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "ours_d" in out
        assert "differential" not in out
        assert "5 registered recipe(s)" in out

    def test_report_renders_scenario_table(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        assert main(["run", "deploy_gap", *TINY, "--runs-dir",
                     str(runs_dir), "--name", "gap-smoke",
                     "--set", "twopi.iterations=10"]) == 0
        capsys.readouterr()
        assert main(["report", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Physics scenarios (trained vs deployed accuracy)" in out
        assert "gap-smoke" in out

    def test_report_without_scenarios_stays_silent(self, capsys,
                                                   tmp_path):
        runs_dir = tmp_path / "runs"
        assert main(["run", "baseline", *TINY, "--runs-dir",
                     str(runs_dir),
                     "--set", "twopi.iterations=10"]) == 0
        capsys.readouterr()
        assert main(["report", str(runs_dir)]) == 0
        # No deploy_gap metrics anywhere -> the block must not appear
        # (golden legacy output is byte-identical).
        assert "Physics scenarios" not in capsys.readouterr().out


class TestReportCommand:
    def test_report_renders_stored_runs(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        for recipe in ("ours_a", "baseline"):
            assert main(["run", recipe, *TINY, "--runs-dir",
                         str(runs_dir),
                         "--set", "twopi.iterations=10"]) == 0
        capsys.readouterr()
        assert main(["report", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "measured (this repro) vs published (paper)" in out
        # Paper-row ordering restored from storage.
        assert out.index("[5], [6], [8]") < out.index("Ours-A")
        assert "rendered 2 stored run(s)" in out

    @pytest.fixture(scope="class")
    def table_dirs(self, tmp_path_factory):
        """Two ``repro table --runs-dir`` directories of the same table,
        with the first one's stdout."""
        import contextlib
        import io

        root = tmp_path_factory.mktemp("tables")
        outputs = []
        for name in ("a", "b"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["table", *TINY, "--runs-dir",
                             str(root / name)]) == 0
            outputs.append(out.getvalue())
        return root / "a", root / "b", outputs[0]

    def test_report_renders_a_table_dir(self, capsys, table_dirs):
        table_dir, _, live = table_dirs
        assert main(["report", "--strict", str(table_dir)]) == 0
        assert capsys.readouterr().out == (
            f"{live}\nrendered 5 stored run(s) from {table_dir}\n")
        # A table directory holds one table.
        assert main(["table", *TINY, "--runs-dir", str(table_dir)]) == 2
        assert "already holds a sweep" in capsys.readouterr().err

    def test_report_compares_two_table_dirs(self, capsys, table_dirs):
        a, b, _ = table_dirs
        assert main(["report", "--compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        for point in ("p000-baseline", "p004-ours_d"):
            assert f"{point} (" in out
        assert "only in" not in out
        assert "no accuracy regressions" in out

    def test_report_missing_dir_fails_cleanly(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err

    def test_report_strict_hard_fails_on_corrupt_run(self, capsys,
                                                     tmp_path):
        runs_dir = tmp_path / "runs"
        assert main(["run", "baseline", *TINY, "--runs-dir",
                     str(runs_dir), "--name", "good",
                     "--set", "twopi.iterations=10"]) == 0
        bad = runs_dir / "bad"
        bad.mkdir()
        (bad / "run.json").write_text("{torn")
        capsys.readouterr()
        # Default: warn and render the healthy run.
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            assert main(["report", str(runs_dir)]) == 0
        assert "rendered 1 stored run(s)" in capsys.readouterr().out
        # Strict (CI gate): every run accounted for, or fail.
        assert main(["report", str(runs_dir), "--strict"]) == 2
        assert "corrupt run directory" in capsys.readouterr().err
