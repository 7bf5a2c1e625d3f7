"""Tests of persisted run directories (save_run / RunResult / reports)."""

import json

import numpy as np
import pytest

from repro.pipeline import (
    format_comparison,
    format_table,
    load_run,
    load_runs,
    run_recipe,
    run_table,
    save_run,
    table_from_runs,
)
from repro.pipeline.runs import MODEL_FILE, RUN_FILE


@pytest.fixture(scope="module")
def baseline_run(tiny_cfg):
    cfg = tiny_cfg()
    return cfg, run_recipe("baseline", cfg)


class TestSaveLoadRun:
    def test_round_trip(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        assert (run_dir / RUN_FILE).is_file()
        assert (run_dir / MODEL_FILE).is_file()
        loaded = load_run(run_dir)
        assert loaded.recipe == "baseline"
        assert loaded.label == result.label
        assert loaded.family == "digits"
        assert loaded.accuracy == result.accuracy
        assert loaded.roughness_before == result.roughness_before
        assert loaded.roughness_after == result.roughness_after
        assert loaded.sparsity == result.sparsity
        assert loaded.config == cfg
        assert [s["name"] for s in loaded.stages] == \
            [s.name for s in result.stages]
        assert loaded.stage_metrics()["score"]["accuracy"] == \
            result.accuracy

    def test_model_reloads_bit_identical(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        model = load_run(run_dir).load_model()
        for stored, original in zip(model.phases(), result.model.phases()):
            np.testing.assert_array_equal(stored, original)

    def test_self_describing_name_and_collision_suffix(self, baseline_run,
                                                       tmp_path):
        cfg, result = baseline_run
        first = save_run(result, cfg, tmp_path)
        assert first.name == "digits-n20-baseline-seed0"
        second = save_run(result, cfg, tmp_path)
        assert second.name == "digits-n20-baseline-seed0-2"

    def test_explicit_name_conflict_rejected(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        save_run(result, cfg, tmp_path, name="mine")
        with pytest.raises(FileExistsError):
            save_run(result, cfg, tmp_path, name="mine")

    def test_manifest_is_valid_json_with_format_tag(self, baseline_run,
                                                    tmp_path):
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        manifest = json.loads((run_dir / RUN_FILE).read_text())
        assert manifest["format"] == "repro-run"
        assert manifest["version"] == 1
        assert manifest["config"]["system"]["n"] == 20

    def test_load_run_rejects_missing_and_corrupt(self, baseline_run,
                                                  tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        (run_dir / RUN_FILE).write_text("{broken")
        with pytest.raises(ValueError, match="corrupt"):
            load_run(run_dir)

    def test_scoreless_recipe_writes_strict_json(self, tiny_cfg, tmp_path):
        # A recipe without Score/TwoPi stages yields NaN metrics; the
        # manifest must stay valid RFC 8259 JSON (NaN stored as null)
        # and load back as NaN.
        import math

        from repro.pipeline import register_recipe, unregister_recipe
        from repro.pipeline.stages import TrainStage

        register_recipe("test_manifest_nan", [TrainStage()])
        try:
            cfg = tiny_cfg()
            result = run_recipe("test_manifest_nan", cfg)
            run_dir = save_run(result, cfg, tmp_path)
        finally:
            unregister_recipe("test_manifest_nan")
        text = (run_dir / RUN_FILE).read_text()
        assert "NaN" not in text

        def reject_constants(token):
            raise AssertionError(f"non-strict JSON token {token}")

        json.loads(text, parse_constant=reject_constants)
        loaded = load_run(run_dir)
        assert math.isnan(loaded.accuracy)
        assert math.isnan(loaded.roughness_after)

    def test_load_run_rejects_wrong_version(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        manifest = json.loads((run_dir / RUN_FILE).read_text())
        manifest["version"] = 99
        (run_dir / RUN_FILE).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_run(run_dir)


class TestInProgressRunDirs:
    def test_in_progress_dir_accepted(self, baseline_run, tmp_path):
        # A resumable driver populates the directory (events.jsonl,
        # checkpoints) before the run completes; save_run must finish it.
        cfg, result = baseline_run
        run_dir = tmp_path / "point"
        run_dir.mkdir()
        (run_dir / "events.jsonl").write_text('{"event": "run_begin"}\n')
        saved = save_run(result, cfg, tmp_path, name="point",
                         in_progress_ok=True)
        assert saved == run_dir
        assert load_run(run_dir).recipe == "baseline"

    def test_completed_run_never_overwritten(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        save_run(result, cfg, tmp_path, name="point")
        with pytest.raises(FileExistsError, match="not empty"):
            save_run(result, cfg, tmp_path, name="point",
                     in_progress_ok=True)

    def test_non_empty_dir_still_rejected_by_default(self, baseline_run,
                                                     tmp_path):
        cfg, result = baseline_run
        run_dir = tmp_path / "point"
        run_dir.mkdir()
        (run_dir / "events.jsonl").write_text("")
        with pytest.raises(FileExistsError, match="not empty"):
            save_run(result, cfg, tmp_path, name="point")


class TestStrictLoading:
    def test_strict_raises_on_corrupt_run(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        save_run(result, cfg, tmp_path, name="good")
        bad = save_run(result, cfg, tmp_path, name="bad")
        (bad / RUN_FILE).write_text("{torn")
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            assert len(load_runs(tmp_path)) == 1
        with pytest.raises(ValueError, match="corrupt run directory"):
            load_runs(tmp_path, strict=True)


class TestLoadRunsAndTables:
    def test_table_from_stored_runs_no_recompute(self, tiny_cfg, tmp_path):
        cfg = tiny_cfg()
        table = run_table(cfg, recipes=("ours_a", "baseline"),
                          runs_dir=tmp_path)
        runs = load_runs(tmp_path)
        assert len(runs) == 2
        stored = table_from_runs(runs)
        # Paper-row order is restored regardless of run order on disk.
        assert [r.recipe for r in stored.results] == ["baseline", "ours_a"]
        live = {r.recipe: r for r in table.results}
        for run in stored.results:
            assert run.accuracy == live[run.recipe].accuracy
            assert run.roughness_after == live[run.recipe].roughness_after
        rendered = format_table(stored)
        assert "TABLE II" in rendered
        assert "[5], [6], [8]" in rendered
        assert "headline" not in rendered
        assert "466.39" in format_comparison(stored)
        # A table directory holds one table; a rerun fails before compute.
        with pytest.raises(FileExistsError, match="already holds a sweep"):
            run_table(cfg, recipes=("baseline",), runs_dir=tmp_path)

    def test_load_runs_accepts_single_run_dir(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        runs = load_runs(run_dir)
        assert len(runs) == 1
        assert runs[0].recipe == "baseline"

    def test_load_runs_empty_root_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no run directories"):
            load_runs(tmp_path)
        with pytest.raises(FileNotFoundError, match="no runs directory"):
            load_runs(tmp_path / "missing")

    def test_load_runs_skips_corrupt_run_with_warning(self, baseline_run,
                                                      tmp_path):
        # One truncated manifest must not hold the healthy runs hostage.
        cfg, result = baseline_run
        save_run(result, cfg, tmp_path, name="good")
        bad = save_run(result, cfg, tmp_path, name="bad")
        (bad / RUN_FILE).write_text('{"format": "repro-run", "vers')
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            runs = load_runs(tmp_path)
        assert [run.path.name for run in runs] == ["good"]

    def test_non_object_manifest_is_skipped_by_name(self, baseline_run,
                                                    tmp_path):
        # Valid JSON that is not an object is as corrupt as a torn file.
        cfg, result = baseline_run
        save_run(result, cfg, tmp_path, name="good")
        bad = save_run(result, cfg, tmp_path, name="bad")
        (bad / RUN_FILE).write_text("[]")
        with pytest.raises(ValueError, match=r"bad.*not a JSON object"):
            load_run(bad)
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            runs = load_runs(tmp_path)
        assert [run.path.name for run in runs] == ["good"]

    def test_load_runs_all_corrupt_rejected(self, baseline_run, tmp_path):
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path, name="only")
        (run_dir / RUN_FILE).write_text("not json at all")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(FileNotFoundError, match="corrupt"):
                load_runs(tmp_path)

    def test_save_run_leaves_no_temp_files(self, baseline_run, tmp_path):
        # The atomic-rename protocol must not strand its temp names.
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        assert sorted(p.name for p in run_dir.iterdir()) == \
            sorted([RUN_FILE, MODEL_FILE])

    def test_manifestless_dir_invisible_to_load_runs(self, baseline_run,
                                                     tmp_path):
        # A crash between the model rename and the manifest rename
        # leaves a directory without run.json — exactly what a partial
        # save looks like, and load_runs must not trip over it.
        cfg, result = baseline_run
        save_run(result, cfg, tmp_path, name="complete")
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / MODEL_FILE).write_bytes(b"\x00" * 16)
        runs = load_runs(tmp_path)
        assert [run.path.name for run in runs] == ["complete"]

    def test_table_from_runs_rejects_mixed_families(self, baseline_run,
                                                    tmp_path):
        cfg, result = baseline_run
        save_run(result, cfg, tmp_path)
        other = load_runs(tmp_path)[0]
        import dataclasses

        foreign = dataclasses.replace(other, family="fashion")
        with pytest.raises(ValueError, match="multiple families"):
            table_from_runs([other, foreign])

    def test_table_from_runs_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            table_from_runs([])


class TestServeFromRunDir:
    def test_resolve_artifact_accepts_run_dir(self, baseline_run, tmp_path):
        from repro.serve import resolve_artifact

        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        assert resolve_artifact(run_dir) == run_dir / MODEL_FILE

    def test_resolve_artifact_rejects_modelless_dir(self, tmp_path):
        from repro.serve import resolve_artifact

        with pytest.raises(FileNotFoundError, match="model.npz"):
            resolve_artifact(tmp_path)

    def test_engine_from_stored_run_matches_live_model(self, baseline_run,
                                                       tmp_path):
        cfg, result = baseline_run
        run_dir = save_run(result, cfg, tmp_path)
        rng = np.random.default_rng(0)
        images = rng.random((4, 28, 28))
        stored = load_run(run_dir).load_model().predict(images)
        live = result.model.predict(images)
        np.testing.assert_array_equal(stored, live)
