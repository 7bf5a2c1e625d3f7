"""Tests of the experiment pipeline (configs, recipes, tables)."""

import numpy as np
import pytest

from repro.pipeline import (
    PAPER_BLOCK_SIZES,
    PAPER_TABLES,
    RECIPE_LABELS,
    RECIPES,
    ExperimentConfig,
    format_comparison,
    format_table,
    prepare_data,
    run_recipe,
    run_sweep,
    run_table,
)


def tiny_cfg(**overrides) -> ExperimentConfig:
    """A seconds-scale config for pipeline plumbing tests."""
    defaults = dict(
        n=20, n_train=60, n_test=30, batch_size=30, baseline_epochs=2,
    )
    defaults.update(overrides)
    cfg = ExperimentConfig.laptop("digits", **defaults)
    # Shrink the heavy stages too.
    from dataclasses import replace

    return cfg.with_overrides(
        slr=replace(cfg.slr, outer_iterations=1, inner_epochs=1,
                    finetune_epochs=1),
        twopi=replace(cfg.twopi, iterations=20),
    )


class TestExperimentConfig:
    def test_laptop_block_size_divides_mask(self):
        for family in ("digits", "fashion", "kuzushiji", "letters"):
            cfg = ExperimentConfig.laptop(family)
            assert cfg.system.n % cfg.slr.block_size == 0

    def test_laptop_n40_matches_paper_block_geometry(self):
        # 25/200 -> 5 for MNIST, 20/200 -> 4 for the others.
        assert ExperimentConfig.laptop("digits", n=40).slr.block_size == 5
        assert ExperimentConfig.laptop("fashion", n=40).slr.block_size == 4

    def test_paper_scale_exact_parameters(self):
        cfg = ExperimentConfig.paper_scale("digits")
        assert cfg.system.n == 200
        assert cfg.baseline_epochs == 50
        assert cfg.slr.block_size == 25
        assert cfg.slr.sparsity_ratio == pytest.approx(0.1)
        assert cfg.n_train == 60000

    def test_paper_dataset_mapping(self):
        assert ExperimentConfig.laptop("digits").paper_dataset == "MNIST"
        assert ExperimentConfig.laptop("letters").paper_dataset == "EMNIST"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.laptop("klingon")

    def test_indivisible_block_rejected(self):
        from dataclasses import replace

        cfg = ExperimentConfig.laptop("digits", n=40)
        with pytest.raises(ValueError):
            cfg.with_overrides(slr=replace(cfg.slr, block_size=7))

    def test_with_overrides(self):
        cfg = ExperimentConfig.laptop("digits")
        assert cfg.with_overrides(roughness_p=1.0).roughness_p == 1.0


class TestPaperTables:
    def test_all_four_datasets_present(self):
        assert set(PAPER_TABLES) == {"MNIST", "FMNIST", "KMNIST", "EMNIST"}

    def test_all_recipes_per_table(self):
        for rows in PAPER_TABLES.values():
            assert set(rows) == set(RECIPES)

    def test_ours_a_after_cell_blank(self):
        for rows in PAPER_TABLES.values():
            assert rows["ours_a"][2] is None

    def test_headline_reductions_match_abstract(self):
        # Abstract: 35.7 / 34.2 / 28.1 / 27.3 % reduction (Ours-C post-2pi
        # vs baseline pre-2pi).
        expected = {"MNIST": 35.7, "FMNIST": 34.2, "KMNIST": 28.1,
                    "EMNIST": 27.3}
        for name, pct in expected.items():
            base = PAPER_TABLES[name]["baseline"][1]
            ours_c = PAPER_TABLES[name]["ours_c"][2]
            assert (1 - ours_c / base) * 100 == pytest.approx(pct, abs=0.35)

    def test_block_sizes_match_captions(self):
        assert PAPER_BLOCK_SIZES == {"MNIST": 25, "FMNIST": 20,
                                     "KMNIST": 20, "EMNIST": 20}


class TestRunRecipe:
    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError):
            run_recipe("ours_z", tiny_cfg())

    def test_baseline_result_fields(self):
        result = run_recipe("baseline", tiny_cfg())
        assert result.recipe == "baseline"
        assert 0.0 <= result.accuracy <= 1.0
        assert result.roughness_before > 0
        assert result.roughness_after <= result.roughness_before + 1e-9
        assert result.sparsity == 0.0
        assert result.label == RECIPE_LABELS["baseline"]

    def test_sparse_recipe_installs_masks(self):
        result = run_recipe("ours_b", tiny_cfg())
        assert result.sparsity > 0.0
        assert all(m is not None for m in result.model.sparsity_masks())
        assert len(result.offsets()) == result.model.config.num_layers

    def test_recipes_share_data(self):
        cfg = tiny_cfg()
        data = prepare_data(cfg)
        a = run_recipe("baseline", cfg, data=data)
        b = run_recipe("baseline", cfg, data=data)
        # Same data + same seeds -> identical results.
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.roughness_before == pytest.approx(b.roughness_before)


class TestRunTable:
    def test_two_recipe_table(self):
        table = run_table(tiny_cfg(), recipes=("baseline", "ours_a"))
        assert len(table.results) == 2
        assert set(table.by_recipe()) == {"baseline", "ours_a"}
        assert table.paper_dataset == "MNIST"
        assert table.paper_rows() is PAPER_TABLES["MNIST"]

    def test_format_table_layout(self):
        table = run_table(tiny_cfg(), recipes=("baseline",))
        text = format_table(table)
        assert "TABLE II" in text
        assert "[5], [6], [8]" in text
        assert "R before 2pi" in text

    def test_format_comparison_includes_paper_values(self):
        table = run_table(tiny_cfg(), recipes=("baseline", "ours_c"))
        text = format_comparison(table)
        assert "466.39" in text  # published MNIST baseline value
        assert "headline" in text

    def test_failed_recipe_raises_naming_it(self):
        from repro.pipeline import register_recipe, unregister_recipe
        from repro.pipeline.stages import Stage

        class Boom(Stage):
            name = "boom"

            def run(self, ctx):
                raise ArithmeticError("boom stage")

        register_recipe("test_boom", [Boom()])
        try:
            with pytest.raises(RuntimeError, match=(
                    r"1 of 1 point\(s\) failed: p000-test_boom: "
                    r"ArithmeticError after 1 attempt\(s\): boom stage")):
                run_table(tiny_cfg(), recipes=("test_boom",))
        finally:
            unregister_recipe("test_boom")

    def test_serial_failure_lands_in_the_points_event_stream(self,
                                                             tmp_path):
        # The pool path streams point_failed through on_event; the
        # serial path leaves the same record for `repro tail`.
        from repro.pipeline import register_recipe, unregister_recipe
        from repro.pipeline.events import EVENTS_FILE, read_events
        from repro.pipeline.stages import Stage

        class Boom(Stage):
            name = "boom"

            def run(self, ctx):
                raise ArithmeticError("boom stage")

        register_recipe("test_boom", [Boom()])
        try:
            with pytest.raises(RuntimeError, match=r"1 of 2 point\(s\)"):
                run_table(tiny_cfg(baseline_epochs=1),
                          recipes=("baseline", "test_boom"), max_workers=1,
                          runs_dir=str(tmp_path / "table"))
        finally:
            unregister_recipe("test_boom")
        events = read_events(tmp_path / "table" / "runs" / "p001-test_boom"
                             / EVENTS_FILE)
        failed = [event for event in events
                  if event["event"] == "point_failed"]
        assert [{key: event[key] for key in ("point", "error_type",
                                              "message", "attempts",
                                              "permanent")}
                for event in failed] == [{
                    "point": "p001-test_boom",
                    "error_type": "ArithmeticError",
                    "message": "boom stage", "attempts": 1,
                    "permanent": False}]

    def test_callers_split_reaches_the_points(self):
        # Train and test drawn from different seeds, as the benchmark's
        # table workload does: a split rebuilt from the config differs.
        from repro.data import make_dataset

        cfg = tiny_cfg(baseline_epochs=1)
        train, _ = make_dataset(cfg.family, n_train=cfg.n_train, n_test=1,
                                seed=0)
        _, test = make_dataset(cfg.family, n_train=1, n_test=cfg.n_test,
                               seed=1)
        direct = run_recipe("baseline", cfg, data=(train, test))
        for workers in (1, 2):
            row, = run_sweep(cfg, "roughness_p", [cfg.roughness_p],
                             recipe="baseline", data=(train, test),
                             max_workers=workers)
            assert (row.accuracy, row.roughness_after) == (
                direct.accuracy, direct.roughness_after)


class TestRunSweep:
    def test_roughness_sweep(self):
        cfg = tiny_cfg()
        results = run_sweep(cfg, "roughness_p", [0.0, 1e-4],
                            recipe="ours_a")
        assert len(results) == 2

    def test_sparsity_sweep(self):
        cfg = tiny_cfg()
        results = run_sweep(cfg, "sparsity_ratio", [0.25], recipe="ours_b")
        assert results[0].sparsity == pytest.approx(0.25, abs=0.01)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(tiny_cfg(), "warp_factor", [1.0])
