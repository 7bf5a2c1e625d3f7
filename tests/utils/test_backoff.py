"""The shared retry policy: jitter band, seeded replay, thread safety."""

import sys
import threading

from repro.utils.backoff import Backoff


def test_every_delay_lies_in_the_jitter_band():
    backoff = Backoff(base=0.01, cap=2.0, seed=7)
    for attempt in range(13):
        ceiling = min(2.0, 0.01 * 2 ** attempt)
        for _ in range(50):
            assert 0.5 * ceiling <= backoff.delay(attempt) < ceiling


def test_same_seed_replays_the_same_sequence():
    first = Backoff(0.05, 1.0, seed=0x5EED)
    second = Backoff(0.05, 1.0, seed=0x5EED)
    other = Backoff(0.05, 1.0, seed=1)
    attempts = [k % 6 for k in range(40)]
    replay = [first.delay(k) for k in attempts]
    assert replay == [second.delay(k) for k in attempts]
    assert replay != [other.delay(k) for k in attempts]


def test_concurrent_draws_stay_in_band():
    backoff = Backoff(base=0.25, cap=4.0, seed=0)
    out_of_band = []
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as much as possible

    def draw(thread_index):
        for draw_index in range(1000):
            attempt = (thread_index + draw_index) % 13
            ceiling = min(4.0, 0.25 * 2 ** attempt)
            delay = backoff.delay(attempt)
            if not 0.5 * ceiling <= delay < ceiling:
                out_of_band.append((attempt, delay))

    threads = [threading.Thread(target=draw, args=(index,))
               for index in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert out_of_band == []
