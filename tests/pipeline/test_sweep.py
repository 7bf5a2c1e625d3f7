"""Tests of resumable sweeps (repro.pipeline.sweep).

The fault-tolerance invariant under test throughout: whatever crashes —
a worker process (SIGKILL mid-epoch), the orchestrator itself, or a
hung point — rerunning / resuming the sweep converges to results
byte-identical to an uninterrupted serial sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import load_runs
from repro.pipeline.events import EVENTS_FILE, read_events
from repro.pipeline.runs import MODEL_FILE, RUN_FILE
from repro.pipeline.sweep import (
    SWEEP_FILE,
    expand_points,
    format_sweep,
    parse_faults,
    read_manifest,
    run_sweep_dir,
    validate_sweep_spec,
)
from repro.utils.interrupt import _requested as _interrupt_flag

TINY_SPEC = {
    "base": "laptop", "family": "digits", "n": 20, "seed": 0,
    "recipe": "ours_a",
    "set": {"n_train": 60, "n_test": 30, "batch_size": 30,
            "baseline_epochs": 3, "twopi.iterations": 10},
    "grid": {"roughness_p": [0.1, 0.5]},
}


#: Stage metrics that time a phase of the stage, so vary run to run.
TIMING_METRICS = ("gumbel_s", "polish_s")


def assert_point_dirs_identical(a: Path, b: Path):
    """Byte-identity modulo wall times and the stages' timing metrics
    (the only legitimately varying fields) for a completed point's run
    directory."""
    left = json.loads((a / RUN_FILE).read_text())
    right = json.loads((b / RUN_FILE).read_text())
    for manifest in (left, right):
        manifest.pop("wall_time")
        for stage in manifest["stages"]:
            stage.pop("wall_time")
            for key in TIMING_METRICS:
                stage["metrics"].pop(key, None)
    assert left == right
    with np.load(a / MODEL_FILE) as wa, np.load(b / MODEL_FILE) as wb:
        assert sorted(wa.files) == sorted(wb.files)
        for key in wa.files:
            np.testing.assert_array_equal(wa[key], wb[key])


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The uninterrupted serial sweep every chaos scenario must match."""
    sweep_dir = tmp_path_factory.mktemp("sweep-ref") / "ref"
    summary = run_sweep_dir(sweep_dir, spec=TINY_SPEC)
    assert summary.ok and summary.completed == 2
    return sweep_dir


class TestSpecValidation:
    def test_grid_and_random_mutually_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            validate_sweep_spec({"recipe": "baseline",
                                 "grid": {"seed": [0]},
                                 "random": {"samples": 1, "space": {}}})
        with pytest.raises(ValueError, match="exactly one"):
            validate_sweep_spec({"recipe": "baseline"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep key"):
            validate_sweep_spec({"recipe": "baseline",
                                 "grid": {"seed": [0]}, "bogus": 1})

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_sweep_spec({"recipe": "baseline",
                                 "grid": {"seed": []}})

    def test_unknown_config_key_fails_before_compute(self):
        with pytest.raises(ValueError, match="unknown config key"):
            validate_sweep_spec({"recipe": "baseline",
                                 "grid": {"warp_factor": [9]}})

    def test_unknown_recipe_fails_before_compute(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            validate_sweep_spec({"recipe": "ours_z",
                                 "grid": {"seed": [0]}})

    def test_repo_example_sweep_spec_loads(self):
        from repro.pipeline.sweep import load_sweep_spec

        spec_path = (Path(__file__).resolve().parents[2] / "examples"
                     / "configs" / "sweep_roughness.json")
        points = expand_points(load_sweep_spec(spec_path))
        assert [p.name for p in points] == [
            "p000-ours_c", "p001-ours_c", "p002-ours_c", "p003-ours_c",
        ]

    def test_family_axis_rejected(self):
        # A family override keeps the base family's block sizes.
        base = {key: value for key, value in TINY_SPEC.items()
                if key != "grid"}
        for axes in ({"grid": {"family": ["fashion"]}},
                     {"random": {"samples": 1, "space": {
                         "family": {"choices": ["fashion"]}}}}):
            with pytest.raises(ValueError, match="top-level 'family'"):
                validate_sweep_spec({**base, **axes})

    def test_random_space_validated(self):
        with pytest.raises(ValueError, match="choices.*or.*low"):
            validate_sweep_spec({
                "recipe": "baseline",
                "random": {"samples": 2,
                           "space": {"roughness_p": {"lo": 0}}},
            })


class TestExpansion:
    def test_grid_cartesian_product_in_spec_order(self):
        points = expand_points({
            "recipe": "baseline",
            "grid": {"roughness_p": [0.1, 0.2], "intra_q": [1, 2]},
        })
        assert [p.name for p in points] == [
            "p000-baseline", "p001-baseline", "p002-baseline",
            "p003-baseline",
        ]
        assert [p.overrides for p in points] == [
            {"roughness_p": 0.1, "intra_q": 1},
            {"roughness_p": 0.1, "intra_q": 2},
            {"roughness_p": 0.2, "intra_q": 1},
            {"roughness_p": 0.2, "intra_q": 2},
        ]
        assert points[0].config.roughness_p == 0.1
        assert points[3].config.intra_q == 2

    def test_recipe_axis(self):
        points = expand_points({
            "grid": {"recipe": ["baseline", "ours_a"]},
        })
        assert [(p.name, p.recipe) for p in points] == [
            ("p000-baseline", "baseline"), ("p001-ours_a", "ours_a"),
        ]

    def test_missing_recipe_rejected(self):
        with pytest.raises(ValueError, match="names no recipe"):
            expand_points({"grid": {"seed": [0]}})

    def test_random_expansion_is_deterministic(self):
        spec = {
            "recipe": "baseline",
            "random": {"samples": 4, "seed": 7, "space": {
                "roughness_p": {"low": 0.01, "high": 1.0, "log": True},
                "slr.block_size": {"choices": [2, 4]},
                "baseline_epochs": {"low": 1, "high": 3, "int": True},
            }},
        }
        first = expand_points(spec)
        second = expand_points(spec)
        assert [p.overrides for p in first] == [p.overrides
                                               for p in second]
        for point in first:
            assert 0.01 <= point.overrides["roughness_p"] <= 1.0
            assert point.overrides["slr.block_size"] in (2, 4)
            assert point.overrides["baseline_epochs"] in (1, 2, 3)


class TestSharedData:
    SPEC = {**TINY_SPEC, "set": {**TINY_SPEC["set"], "baseline_epochs": 1}}

    def count_prepare_data(self, monkeypatch):
        from repro.pipeline import recipes, sweep

        calls = []
        real = recipes.prepare_data

        def counting(config):
            calls.append(config.seed)
            return real(config)

        monkeypatch.setattr(recipes, "prepare_data", counting)
        monkeypatch.setattr(sweep, "prepare_data", counting)
        return calls

    def test_points_sharing_a_fingerprint_share_one_split(
            self, tmp_path, monkeypatch):
        calls = self.count_prepare_data(monkeypatch)
        assert run_sweep_dir(tmp_path / "sw", spec=self.SPEC).ok
        assert calls == [0]

    def test_points_on_different_seeds_prepare_their_own(
            self, tmp_path, monkeypatch):
        calls = self.count_prepare_data(monkeypatch)
        spec = {**self.SPEC, "grid": {"seed": [0, 1]}}
        assert run_sweep_dir(tmp_path / "sw", spec=spec).ok
        assert calls == [0, 1]


class TestParseFaults:
    def test_parses_kinds_and_fields(self):
        faults = parse_faults("kill:point=0,epoch=2;hang:point=1;"
                              "diverge:point=2")
        assert faults == {0: {"kind": "kill", "epoch": 2},
                          1: {"kind": "hang"},
                          2: {"kind": "diverge"}}
        assert parse_faults(None) == {}
        assert parse_faults("") == {}

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad fault"):
            parse_faults("explode:point=0")
        with pytest.raises(ValueError, match="names no point"):
            parse_faults("kill:epoch=1")


class TestSerialSweep:
    def test_layout_and_manifest(self, serial_reference):
        manifest = json.loads(
            (serial_reference / SWEEP_FILE).read_text())
        assert manifest["format"] == "repro-sweep"
        assert [p["status"] for p in manifest["points"]] == ["done",
                                                             "done"]
        for entry in manifest["points"]:
            point_dir = serial_reference / "runs" / entry["name"]
            assert (point_dir / RUN_FILE).is_file()
            assert (point_dir / MODEL_FILE).is_file()
            # Checkpoints are cleaned up after a successful point.
            assert not (point_dir / "checkpoints").exists()
            events = [e["event"]
                      for e in read_events(point_dir / EVENTS_FILE)]
            assert events[0] == "run_begin"
            assert events[-1] == "point_done"
            assert events.count("epoch") == 3

    def test_runs_are_reportable(self, serial_reference):
        runs = load_runs(serial_reference / "runs", strict=True)
        assert [run.recipe for run in runs] == ["ours_a", "ours_a"]

    def test_resume_skips_everything_and_table_is_stable(
            self, serial_reference):
        table = format_sweep(serial_reference)
        summary = run_sweep_dir(serial_reference, resume=True)
        assert summary.skipped == 2 and summary.completed == 0
        assert format_sweep(serial_reference) == table
        assert "p000-ours_a" in table and "roughness_p=0.1" in table

    def test_fresh_sweep_refuses_existing_dir(self, serial_reference):
        with pytest.raises(FileExistsError, match="resume"):
            run_sweep_dir(serial_reference, spec=TINY_SPEC)

    def test_non_object_manifest_rejected_by_name(self, tmp_path):
        (tmp_path / SWEEP_FILE).write_text("[]")
        with pytest.raises(ValueError,
                           match=f"{SWEEP_FILE}.*not a JSON object"):
            read_manifest(tmp_path)

    def test_resume_missing_dir_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_sweep_dir(tmp_path / "nope", resume=True)


class TestWorkerCrash:
    def test_sigkilled_worker_is_retried_and_byte_identical(
            self, serial_reference, tmp_path):
        # The ISSUE-mandated scenario: a worker process dies (os._exit
        # via the injected kill fault) mid-training inside the pool.
        # The sweep must complete with the point retried and every
        # result byte-identical to the serial reference.
        sweep_dir = tmp_path / "chaos"
        summary = run_sweep_dir(
            sweep_dir, spec=TINY_SPEC, max_workers=2,
            faults=parse_faults("kill:point=0,epoch=1"),
        )
        assert summary.ok and summary.completed == 2
        for name in ("p000-ours_a", "p001-ours_a"):
            assert_point_dirs_identical(sweep_dir / "runs" / name,
                                        serial_reference / "runs" / name)
        assert format_sweep(sweep_dir) == format_sweep(serial_reference)
        events = read_events(
            sweep_dir / "runs" / "p000-ours_a" / EVENTS_FILE)
        kinds = [e["event"] for e in events]
        assert "point_retry" in kinds
        # The retry resumed from the epoch-1 checkpoint: the second
        # attempt trains epochs 2..3 only (2 epoch events), not 3.
        assert kinds.count("epoch") == 1 + 2

    def test_hang_is_timed_out_and_retried(self, serial_reference,
                                           tmp_path):
        sweep_dir = tmp_path / "hang"
        summary = run_sweep_dir(
            sweep_dir, spec=TINY_SPEC, max_workers=2, timeout_s=10,
            faults=parse_faults("hang:point=1"),
        )
        assert summary.ok and summary.completed == 2
        assert format_sweep(sweep_dir) == format_sweep(serial_reference)

    def test_divergence_is_permanent_failure(self, tmp_path):
        sweep_dir = tmp_path / "diverge"
        summary = run_sweep_dir(
            sweep_dir, spec=TINY_SPEC, max_workers=2,
            faults=parse_faults("diverge:point=0"),
        )
        assert summary.failed == 1 and summary.completed == 1
        failure = summary.failures[0]
        assert failure["error_type"] == "TrainingDiverged"
        assert failure["permanent"] is True
        assert failure["attempts"] == 1  # deterministic -> never retried
        manifest = json.loads((sweep_dir / SWEEP_FILE).read_text())
        assert manifest["points"][0]["status"] == "failed"
        assert "FAILED" in format_sweep(sweep_dir)

    def test_failed_points_rerun_on_resume(self, serial_reference,
                                           tmp_path):
        sweep_dir = tmp_path / "rerun"
        summary = run_sweep_dir(
            sweep_dir, spec=TINY_SPEC,
            faults=parse_faults("diverge:point=0"),
        )
        assert summary.failed == 1
        # The fault marker was consumed, so the resume runs clean.
        summary = run_sweep_dir(sweep_dir, resume=True)
        assert summary.ok and summary.completed == 1 and \
            summary.skipped == 1
        assert format_sweep(sweep_dir) == format_sweep(serial_reference)


class TestGracefulInterrupt:
    def test_pending_interrupt_stops_before_any_point(self, tmp_path):
        _interrupt_flag.set()
        try:
            summary = run_sweep_dir(tmp_path / "sw", spec=TINY_SPEC)
        finally:
            _interrupt_flag.clear()
        assert summary.interrupted
        assert summary.completed == 0 and summary.failed == 0
        assert summary.pending == 2
        # The manifest survived and the sweep is resumable.
        summary = run_sweep_dir(tmp_path / "sw", resume=True)
        assert summary.ok and summary.completed == 2


class TestOrchestratorSigkill:
    def test_sigkilled_orchestrator_resumes_byte_identical(
            self, serial_reference, tmp_path):
        # SIGKILL the whole `repro sweep` process mid-training, then
        # `repro sweep --resume`; the final table must match the
        # uninterrupted reference exactly (the CI chaos smoke re-runs
        # this end to end).
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC))
        sweep_dir = tmp_path / "killed"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep", str(spec_path),
             "--out", str(sweep_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            ckpt = (sweep_dir / "runs" / "p000-ours_a" / "checkpoints"
                    / "stage0-train.npz")
            deadline = time.time() + 120
            while not ckpt.exists() and time.time() < deadline:
                if proc.poll() is not None:
                    pytest.fail("sweep finished before it could be "
                                "killed; shrink the test scale")
                time.sleep(0.02)
            assert ckpt.exists(), "no checkpoint appeared to kill at"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        # The killed point is half-done: no run.json yet.
        assert not (sweep_dir / "runs" / "p000-ours_a" / RUN_FILE).exists()
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "--resume",
             str(sweep_dir)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        for name in ("p000-ours_a", "p001-ours_a"):
            assert_point_dirs_identical(sweep_dir / "runs" / name,
                                        serial_reference / "runs" / name)
        assert format_sweep(sweep_dir) == format_sweep(serial_reference)
