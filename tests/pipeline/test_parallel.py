"""Parallel table/sweep runner: rows and stored models from the worker
pool must be byte-identical to the serial path (deterministic
per-recipe seeding).

The rows are stored runs read back from disk, so they carry no live
model and no 2-pi solutions.  The model is compared as the bytes of
each point's ``model.npz`` (the CI sweep chaos step's ``cmp``).  The
2-pi offsets are not persisted in a run directory, so their old
array comparison is gone; they reach the rows through
``roughness_after``, which they determine.
"""

import contextlib
import filecmp

from repro.pipeline import prepare_data, run_sweep, run_table, runner
from repro.pipeline.runs import MODEL_FILE


def rows(results):
    return [(r.recipe, r.accuracy, r.roughness_before, r.roughness_after,
             r.sparsity) for r in results]


def assert_same_models(serial, parallel):
    assert len(serial) == len(parallel)
    for s, p in zip(serial, parallel):
        assert s.path.name == p.path.name
        assert filecmp.cmp(s.path / MODEL_FILE, p.path / MODEL_FILE,
                           shallow=False)


def small_cfg(tiny_cfg):
    return tiny_cfg(n_train=40, n_test=20, batch_size=20)


class TestRunTableParallel:
    def test_matches_serial_byte_identical(self, tiny_cfg, tmp_path):
        config = small_cfg(tiny_cfg)
        data = prepare_data(config)
        recipes = ("baseline", "ours_a")
        serial = run_table(config, recipes=recipes, data=data,
                           runs_dir=str(tmp_path / "serial"))
        parallel = run_table(config, recipes=recipes, data=data,
                             max_workers=2,
                             runs_dir=str(tmp_path / "parallel"))
        assert rows(serial.results) == rows(parallel.results)
        assert_same_models(serial.results, parallel.results)

    def test_max_workers_one_is_serial(self, tiny_cfg):
        config = small_cfg(tiny_cfg)
        table = run_table(config, recipes=("baseline",),
                          data=prepare_data(config), max_workers=1)
        assert [r.recipe for r in table.results] == ["baseline"]

    def test_order_preserved(self, tiny_cfg):
        config = small_cfg(tiny_cfg)
        data = prepare_data(config)
        recipes = ("ours_a", "baseline")
        table = run_table(config, recipes=recipes, data=data, max_workers=2)
        assert [r.recipe for r in table.results] == list(recipes)


class TestRunSweepParallel:
    def test_matches_serial_byte_identical(self, tiny_cfg, tmp_path,
                                           monkeypatch):
        # run_sweep takes no runs_dir: hand it named sweep directories
        # instead of temporary ones, so the models outlive the call.
        names = iter(["serial", "parallel"])
        monkeypatch.setattr(
            runner, "TemporaryDirectory",
            lambda: contextlib.nullcontext(str(tmp_path / next(names))))
        config = small_cfg(tiny_cfg)
        data = prepare_data(config)
        values = (1e-5, 1e-4)
        serial = run_sweep(config, "roughness_p", values, recipe="ours_a",
                           data=data)
        parallel = run_sweep(config, "roughness_p", values, recipe="ours_a",
                             data=data, max_workers=2)
        assert rows(serial) == rows(parallel)
        assert [r.config.roughness_p for r in serial] == list(values)
        assert serial[0].path.parents[1] == tmp_path / "serial"
        assert parallel[0].path.parents[1] == tmp_path / "parallel"
        assert_same_models(serial, parallel)
