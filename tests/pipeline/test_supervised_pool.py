"""Tests of the crash-supervised process pool (pool.SupervisedPool)."""

import os
import time

import pytest

from repro.pipeline.pool import PointFailure, PointOutcome, SupervisedPool

# Module-level task functions so ProcessPoolExecutor can pickle them.


def _double(x):
    return x * 2


def _crash_once(payload):
    """Die hard on the first attempt (marker file present), succeed
    after — models a transient worker crash."""
    marker, x = payload
    if os.path.exists(marker):
        os.unlink(marker)
        os._exit(1)
    return x * 10


def _always_crash(_):
    os._exit(1)


def _app_error(_):
    raise ValueError("deterministic application bug")


def _hang_once(payload):
    marker, x = payload
    if os.path.exists(marker):
        os.unlink(marker)
        time.sleep(600)
    return x + 1


def pool(task_fn, **kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.05)
    return SupervisedPool(task_fn, **kwargs)


class TestHappyPath:
    def test_results_preserve_order(self):
        outcomes = pool(_double).run([3, 1, 2])
        assert [o.result for o in outcomes] == [6, 2, 4]
        assert all(o.ok and o.retries == 0 for o in outcomes)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            SupervisedPool(_double, max_workers=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisedPool(_double, max_workers=1, max_retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            SupervisedPool(_double, max_workers=1, timeout_s=0)


class TestCrashSupervision:
    def test_crash_is_retried_and_attributed(self, tmp_path):
        marker = str(tmp_path / "crash-me")
        open(marker, "w").close()
        events = []
        outcomes = pool(
            _crash_once,
            on_event=lambda name, **f: events.append((name, f)),
        ).run([(marker, 1), (str(tmp_path / "absent"), 2)])
        # The crashed point recovered; the healthy one never retried.
        assert outcomes[0].ok and outcomes[0].result == 10
        assert outcomes[0].retries == 1
        assert outcomes[1].ok and outcomes[1].retries == 0
        retry_events = [f for name, f in events if name == "point_retry"]
        assert len(retry_events) == 1
        assert retry_events[0]["index"] == 0
        assert retry_events[0]["error_type"] == "crash"

    def test_exhausted_retries_become_structured_failure(self):
        events = []
        outcomes = pool(
            _always_crash, max_retries=1,
            on_event=lambda name, **f: events.append(name),
        ).run(["x"])
        failure = outcomes[0].failure
        assert isinstance(failure, PointFailure)
        assert failure.permanent is False
        assert failure.attempts == 2  # 1 try + 1 retry
        assert failure.error_type == "crash"
        assert events == ["point_retry", "point_failed"]
        assert failure.as_dict()["attempts"] == 2

    def test_app_error_is_permanent_no_retry(self):
        events = []
        outcomes = pool(
            _app_error,
            on_event=lambda name, **f: events.append((name, f)),
        ).run(["x"])
        failure = outcomes[0].failure
        assert failure.permanent is True
        assert failure.attempts == 1
        assert failure.error_type == "ValueError"
        assert "deterministic application bug" in failure.message
        assert [name for name, _ in events] == ["point_failed"]

    def test_one_crash_does_not_poison_other_points(self):
        # With the stdlib pool a single BrokenProcessPool cancels every
        # queued future; the supervised pool must finish the rest.
        outcomes = pool(_always_crash, max_retries=0,
                        max_workers=1).run(["a"])
        assert not outcomes[0].ok
        follow_up = pool(_double).run([1, 2, 3, 4, 5])
        assert [o.result for o in follow_up] == [2, 4, 6, 8, 10]


class TestTimeout:
    def test_hang_is_killed_and_retried(self, tmp_path):
        marker = str(tmp_path / "hang-me")
        open(marker, "w").close()
        events = []
        outcomes = pool(
            _hang_once, timeout_s=2.0,
            on_event=lambda name, **f: events.append((name, f)),
        ).run([(marker, 41)])
        assert outcomes[0].ok and outcomes[0].result == 42
        assert outcomes[0].retries == 1
        retry = [f for name, f in events if name == "point_retry"][0]
        assert retry["error_type"] == "timeout"


class TestGracefulStop:
    def test_stop_requested_drains_without_failures(self):
        stop = {"now": False}
        seen = []

        def stopper():
            return stop["now"]

        # Stop immediately: nothing submitted, all outcomes None.
        stop["now"] = True
        outcomes = pool(_double).run([1, 2, 3], stop_requested=stopper)
        assert outcomes == [None, None, None]
        assert seen == []


class TestOutcomeShape:
    def test_ok_property(self):
        assert PointOutcome(index=0, result=1).ok
        failure = PointFailure(index=0, error_type="crash", message="m",
                               attempts=1, permanent=False)
        assert not PointOutcome(index=0, failure=failure).ok
