"""Smoke tests: the example scripts must stay runnable end to end.

Each example is executed through ``runpy`` with tiny command-line
arguments (seconds-scale).  The two heaviest examples (deployment gap,
hyperparameter exploration) are exercised by their benchmark equivalents
instead.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(script: str, argv):
    saved = sys.argv
    sys.argv = [script, *argv]
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = saved


def test_quickstart_example(capsys):
    run_example("quickstart.py",
                ["--epochs", "1", "--n", "16", "--train", "60",
                 "--test", "30"])
    out = capsys.readouterr().out
    assert "test accuracy" in out
    assert "confusion matrix" in out


def test_train_physics_aware_example(capsys, tmp_path):
    from repro.utils import load_model

    ckpt = tmp_path / "model.npz"
    run_example("train_physics_aware.py",
                ["--recipe", "ours_a", "--n", "20", "--train", "60",
                 "--epochs", "1", "--save", str(ckpt)])
    out = capsys.readouterr().out
    assert "Ours-A" in out
    assert "R_overall" in out
    assert load_model(ckpt).config.n == 20


def test_declarative_experiment_example(capsys, tmp_path):
    run_example("declarative_experiment.py",
                ["--n", "16", "--train", "60", "--epochs", "1",
                 "--runs-dir", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert "Robust-A" in out
    assert "TABLE II" in out
    assert (tmp_path / "runs").is_dir()


def test_two_pi_smoothing_example(capsys):
    run_example("two_pi_smoothing.py",
                ["--n", "20", "--epochs", "1"])
    out = capsys.readouterr().out
    assert "unchanged: True" in out
    assert "before 2-pi" in out
