"""The FFT CPU budget: the parent uses every CPU it may run on, and each
child launcher pins its process to one FFT thread, so FFT threads x
processes stay within the CPUs."""

import os
import select
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.backend import backend_name, dispatch, get_precision, hop
from repro.donn import DONN, DONNConfig
from repro.pipeline.pool import SupervisedPool
from repro.pipeline.sweep import _init_worker
from repro.serve import ShardedPool
from repro.utils.serialization import save_model

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def env_workers(monkeypatch):
    """Set ``REPRO_FFT_WORKERS`` (or clear it with ``None``) and re-read
    the environment (``conftest.py`` restores the worker default)."""

    def apply(value):
        if value is None:
            monkeypatch.delenv("REPRO_FFT_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_FFT_WORKERS", str(value))
        dispatch._init_from_env()

    return apply


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    model = DONN(DONNConfig.laptop(n=8, num_layers=1), rng=spawn_rng(0))
    path = tmp_path_factory.mktemp("budget") / "model.npz"
    return str(save_model(path, model))


class TestParent:
    def test_unset_resolves_to_the_affinity_count(self, env_workers):
        env_workers(None)
        assert dispatch.get_workers() is None
        assert dispatch._resolve_workers(None) == len(
            os.sched_getaffinity(0))

    def test_short_transforms_run_one_thread(self, env_workers):
        env_workers(None)
        budget = len(os.sched_getaffinity(0))
        short = dispatch._THREADED_MIN_LENGTH - 1
        assert dispatch._resolve_workers(None, short) == 1
        assert dispatch._resolve_workers(
            None, dispatch._THREADED_MIN_LENGTH) == budget
        env_workers(2)
        assert dispatch._resolve_workers(None, short) == 2

    def test_cpu_count_without_affinity(self, env_workers, monkeypatch):
        env_workers(None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert dispatch._resolve_workers(None) == os.cpu_count()

    def test_explicit_settings_still_win(self, env_workers):
        env_workers(2)
        assert dispatch.get_workers() == 2
        assert dispatch._resolve_workers(None) == 2
        dispatch.set_workers(1)
        assert dispatch._resolve_workers(None) == 1
        assert dispatch._resolve_workers(3) == 3


class TestChildren:
    """Each child inherits ``REPRO_FFT_WORKERS=2`` and still runs one
    FFT thread."""

    def test_process_shard(self, env_workers, artifact):
        env_workers(2)
        with ShardedPool(artifact=artifact, shards=1,
                         backend="process") as pool:
            executor = pool._shards[0].executor
            assert executor.submit(dispatch._resolve_workers,
                                   None).result(60) == 1

    def test_replica(self, env_workers, artifact):
        env_workers(2)
        script = textwrap.dedent(f"""
            from repro.backend import dispatch
            from repro.serve import ServeConfig
            from repro.serve.cluster import _replica_main

            class Conn:
                def send(self, message):
                    pass

                def recv(self):
                    return "stop"

            assert dispatch._resolve_workers(None) == 2
            _replica_main(Conn(), {artifact!r}, ServeConfig(), 0)
            print(dispatch._resolve_workers(None))
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]

    def test_table_worker(self, env_workers):
        # The initializer of every sweep pool (repro sweep, run_table,
        # run_sweep); None: each point prepares its own data split.
        env_workers(2)
        pool = SupervisedPool(
            dispatch._resolve_workers, max_workers=2,
            initializer=_init_worker,
            initargs=(None, backend_name(), get_precision().name),
        )
        outcomes = pool.run([None, None])
        assert [outcome.result for outcome in outcomes] == [1, 1]


class TestFork:
    def test_forked_child_spreads_a_hop(self, monkeypatch, spy_fft_threads):
        # The parent's spread hop builds the shared helper pool.
        rng = spawn_rng(0)
        n, pad, side = 8, 8, 24
        fields = (rng.standard_normal((7, n, n))
                  + 1j * rng.standard_normal((7, n, n)))
        h = rng.standard_normal((side, side)) + 0j
        monkeypatch.setattr(hop, "_BLOCK_BYTES", h.nbytes)
        monkeypatch.setattr(hop, "_THREAD_MIN_BYTES", h.nbytes)
        dispatch.set_workers(2)
        expected = hop.propagate_rows(fields, h, pad)
        assert hop._HELPERS is not None

        read, write = os.pipe()
        with warnings.catch_warnings():
            # Forking a process that runs threads is the point here.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child keeps the parent's two-thread budget
            try:
                os.close(read)
                threads = spy_fft_threads(split=True)
                out = hop.propagate_rows(fields, h, pad)
                ok = np.array_equal(out, expected) and len(threads) > 1
                os.write(write, b"1" if ok else b"0")
            finally:
                os._exit(0)
        os.close(write)
        ready = []
        try:
            ready, _, _ = select.select([read], [], [], 60)
            assert ready, "the forked child's hop hung"
            assert os.read(read, 1) == b"1"
        finally:
            os.close(read)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
