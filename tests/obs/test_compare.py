"""Cross-commit comparison tests: run diffs and the bench gate."""

import json

import pytest

from repro.cli import main
from repro.obs.compare import (
    bench_compare,
    compare_runs,
    format_bench_compare,
    format_run_comparison,
)
from repro.pipeline import ExperimentConfig


@pytest.fixture(scope="module")
def config_dict():
    return ExperimentConfig.laptop("digits", n=20).to_dict()


def _write_run(root, name, recipe, accuracy, wall, stage_walls,
               config_dict):
    run_dir = root / name
    run_dir.mkdir(parents=True)
    (run_dir / "run.json").write_text(json.dumps({
        "format": "repro-run", "version": 1, "recipe": recipe,
        "label": recipe, "family": "digits", "config": config_dict,
        "metrics": {"accuracy": accuracy, "roughness_before": 30.0,
                    "roughness_after": 12.0, "sparsity": 0.25},
        "wall_time": wall,
        "stages": [{"name": stage, "wall_time": seconds, "metrics": {}}
                   for stage, seconds in stage_walls],
        "model": "model.npz",
    }))


@pytest.fixture()
def run_roots(tmp_path, config_dict):
    a, b = tmp_path / "A", tmp_path / "B"
    _write_run(a, "p000-baseline", "baseline", 0.95, 10.0,
               [("train", 8.0), ("score", 2.0)], config_dict)
    _write_run(a, "p001-ours_c", "ours_c", 0.93, 12.0,
               [("train", 9.0), ("score", 3.0)], config_dict)
    _write_run(a, "only-in-a", "baseline", 0.90, 5.0,
               [("train", 5.0)], config_dict)
    _write_run(b, "p000-baseline", "baseline", 0.95, 9.0,
               [("train", 7.0), ("score", 2.0)], config_dict)
    _write_run(b, "p001-ours_c", "ours_c", 0.91, 11.0,
               [("train", 8.5), ("score", 2.5)], config_dict)
    _write_run(b, "only-in-b", "ours_a", 0.92, 6.0,
               [("train", 6.0)], config_dict)
    return a, b


class TestCompareRuns:
    def test_matches_and_orphans(self, run_roots):
        comparison = compare_runs(*run_roots)
        assert [run["name"] for run in comparison["runs"]] == \
            ["p000-baseline", "p001-ours_c"]
        assert comparison["only_a"] == ["only-in-a"]
        assert comparison["only_b"] == ["only-in-b"]

    def test_accuracy_regression_flagged(self, run_roots):
        comparison = compare_runs(*run_roots)
        assert [r["run"] for r in comparison["regressions"]] == \
            ["p001-ours_c"]
        assert comparison["regressions"][0]["delta"] == \
            pytest.approx(-0.02)

    def test_tolerance_swallows_small_drop(self, run_roots):
        comparison = compare_runs(*run_roots, tolerance=0.05)
        assert comparison["regressions"] == []

    def test_stage_wall_ratios(self, run_roots):
        comparison = compare_runs(*run_roots)
        stages = comparison["runs"][0]["stages"]
        assert stages["train"]["ratio"] == pytest.approx(8.0 / 7.0,
                                                         abs=1e-3)

    def test_formatted_output(self, run_roots):
        text = format_run_comparison(compare_runs(*run_roots))
        assert "REGRESSION" in text
        assert "only in A: only-in-a" in text
        assert "p001-ours_c" in text

    def test_cli_exit_codes(self, run_roots):
        a, b = run_roots
        assert main(["report", "--compare", str(a), str(b)]) == 1
        assert main(["report", "--compare", str(a), str(b),
                     "--tolerance", "0.05"]) == 0
        assert main(["report", "--compare", str(b), str(b)]) == 0
        # Positional RUNS_DIR and --compare are mutually exclusive.
        assert main(["report", str(a), "--compare", str(a), str(b)]) == 2


@pytest.fixture()
def snapshots(tmp_path):
    old = {
        "machine_info": {"cpu_count": 8},
        "provenance": {"git_sha": "a" * 40,
                       "timestamp": "2026-08-01T00:00:00+00:00"},
        "thresholds": {"batch32_vs_batch1": 2.0, "byte_identical": True},
        "cases": {"bench_a": {"mean_s": 0.010, "min_s": 0.009,
                              "stddev_s": 0.001, "rounds": 5},
                  "bench_b": {"mean_s": 0.100, "min_s": 0.090,
                              "stddev_s": 0.002, "rounds": 5}},
        "summary": {"batch32_vs_batch1": 3.1, "byte_identical": True},
    }
    new = json.loads(json.dumps(old))
    new["provenance"]["git_sha"] = "b" * 40
    paths = {}
    for name, payload in (("old", old), ("new", new)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return paths, new


class TestBenchCompare:
    def _write_new(self, paths, new):
        paths["new"].write_text(json.dumps(new))

    def test_identical_snapshots_pass(self, snapshots):
        paths, _ = snapshots
        result = bench_compare(paths["old"], paths["new"])
        assert result["regressions"] == []

    def test_threshold_regression_flagged(self, snapshots):
        paths, new = snapshots
        new["summary"]["batch32_vs_batch1"] = 1.2
        self._write_new(paths, new)
        result = bench_compare(paths["old"], paths["new"])
        assert [r["key"] for r in result["regressions"]] == \
            ["batch32_vs_batch1"]
        assert result["regressions"][0]["kind"] == "threshold"

    def test_boolean_flip_is_regression_even_unthresholded(
            self, snapshots):
        paths, new = snapshots
        # Strip the gate: the generic true->false rule must still fire.
        new["thresholds"] = {"batch32_vs_batch1": 2.0}
        new["summary"]["byte_identical"] = False
        self._write_new(paths, new)
        result = bench_compare(paths["old"], paths["new"])
        assert [(r["kind"], r["key"]) for r in result["regressions"]] == \
            [("boolean_flip", "byte_identical")]

    def test_missing_gated_summary_key_is_regression(self, snapshots):
        paths, new = snapshots
        del new["summary"]["batch32_vs_batch1"]
        self._write_new(paths, new)
        result = bench_compare(paths["old"], paths["new"])
        assert result["regressions"][0]["key"] == "batch32_vs_batch1"
        assert result["regressions"][0]["value"] is None

    def test_new_thresholds_win_over_old(self, snapshots):
        # A quick/CI snapshot writes weaker gates for its meaningless
        # timing ratios; those (not the committed ones) must apply.
        paths, new = snapshots
        new["thresholds"] = {"byte_identical": True}
        new["summary"]["batch32_vs_batch1"] = 0.5
        self._write_new(paths, new)
        assert bench_compare(paths["old"], paths["new"])["regressions"] \
            == []

    def test_max_drop_gates_case_timings(self, snapshots):
        paths, new = snapshots
        new["cases"]["bench_b"]["mean_s"] = 0.200  # 2x slower
        self._write_new(paths, new)
        assert bench_compare(paths["old"],
                             paths["new"])["regressions"] == []
        result = bench_compare(paths["old"], paths["new"], max_drop=0.25)
        assert [r["kind"] for r in result["regressions"]] == ["slowdown"]
        assert result["regressions"][0]["value"] == pytest.approx(1.0)

    def test_case_ratio_direction(self, snapshots):
        paths, new = snapshots
        new["cases"]["bench_a"]["mean_s"] = 0.005  # new is 2x faster
        self._write_new(paths, new)
        result = bench_compare(paths["old"], paths["new"])
        assert result["cases"]["cases.bench_a"]["ratio"] == \
            pytest.approx(2.0)

    def test_formatted_output_carries_provenance(self, snapshots):
        paths, new = snapshots
        new["summary"]["byte_identical"] = False
        self._write_new(paths, new)
        text = format_bench_compare(bench_compare(paths["old"],
                                                  paths["new"]))
        assert "a" * 12 in text and "b" * 12 in text  # short SHAs
        # The flip is gated by a threshold, so it reports exactly once.
        assert "REGRESSIONS (1)" in text

    def test_cli_exit_codes(self, snapshots, capsys):
        paths, new = snapshots
        assert main(["bench-compare", str(paths["old"]),
                     str(paths["new"])]) == 0
        new["summary"]["batch32_vs_batch1"] = 1.0  # injected regression
        self._write_new(paths, new)
        assert main(["bench-compare", str(paths["old"]),
                     str(paths["new"])]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_rejects_non_snapshot_input(self, tmp_path):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("not json")
        with pytest.raises(ValueError, match="not a JSON"):
            bench_compare(garbled, garbled)
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            bench_compare(listy, listy)

    def test_committed_snapshots_self_compare_clean(self):
        # Every committed snapshot must pass against itself (its
        # thresholds are consistent with its recorded numbers).
        from pathlib import Path
        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        snapshots = sorted(bench_dir.glob("BENCH_*.json"))
        assert snapshots, "committed benchmark snapshots are missing"
        for path in snapshots:
            result = bench_compare(path, path)
            assert result["regressions"] == [], path.name
