"""Tests for the ``backend="shards"`` decide path.

The contract under test: the persistent shard pool returns reports
**bit-identical** to the serial loop (verdicts, f-counts, evidence),
stays warm across calls, falls back with a *recorded reason* when the
language cannot cross a pipe, and survives a SIGKILLed pool worker.
"""

import os
import signal

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import decide_many, decide_many_resilient
from repro.kernel import Le
from repro.obs import instrumented
from repro.shard import shared_pool, shutdown_pool
from repro.shard.pool import pool_is_warm
from repro.words import TimedWord


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every test starts cold and leaves nothing resident."""
    shutdown_pool()
    yield
    shutdown_pool()


def bounded_gap_tba(bound=2):
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def make_words(n):
    words = []
    for i in range(n):
        if i % 2 == 0:
            words.append(TimedWord.lasso([], [("a", 1)], shift=1))
        else:
            words.append(TimedWord.lasso([("a", 1), ("a", 6)], [("a", 7)], shift=1))
    return words


def fingerprint(reports):
    return [(r.verdict, r.f_count, r.evidence) for r in reports]


class Unpicklable:
    """A valid acceptor whose closure cannot cross a pipe."""

    def __init__(self):
        from repro.engine.batch import compiled_tba

        base = compiled_tba(bounded_gap_tba())
        self._count = lambda word, horizon: base.count_f(word, horizon)

    def count_f(self, word, horizon):
        return self._count(word, horizon)


def test_shards_backend_is_bit_identical_to_serial():
    tba, words = bounded_gap_tba(), make_words(200)
    serial = decide_many(tba, words, horizon=300, backend="serial")
    sharded = decide_many(tba, words, horizon=300, workers=2, backend="shards")
    assert fingerprint(sharded) == fingerprint(serial)


def test_second_call_reuses_the_warm_pool():
    tba, words = bounded_gap_tba(), make_words(80)
    decide_many(tba, words, horizon=200, workers=2, backend="shards")
    assert pool_is_warm()
    router = shared_pool()
    pids = {s.proc.pid for s in router._shards.values()}
    decide_many(tba, words, horizon=200, workers=2, backend="shards")
    assert {s.proc.pid for s in router._shards.values()} == pids


def test_unshippable_acceptor_falls_back_with_recorded_reason():
    words = make_words(70)
    serial = decide_many(
        Unpicklable(), words, horizon=200, strategy="f-rate", backend="serial"
    )
    with instrumented() as inst:
        fell_back = decide_many(
            Unpicklable(),
            words,
            horizon=200,
            strategy="f-rate",
            workers=2,
            backend="shards",
        )
    assert fingerprint(fell_back) == fingerprint(serial)
    counter = inst.registry.counter("engine.backend_fallbacks")
    assert counter.labels(reason="unshippable-acceptor").value == 1
    assert not pool_is_warm()  # nothing was spun up for the fallback


def test_auto_routes_small_batches_to_serial():
    tba, words = bounded_gap_tba(), make_words(8)
    with instrumented() as inst:
        decide_many(tba, words, horizon=200, workers=4, backend="auto")
    fallbacks = inst.registry.counter("engine.backend_fallbacks")
    assert fallbacks.labels(reason="small-batch").value == 1
    assert inst.registry.counter("engine.batches").labels(mode="serial").value == 1
    assert not pool_is_warm()


def test_auto_prefers_a_warm_pool_for_large_batches():
    tba, words = bounded_gap_tba(), make_words(300)
    shared_pool(2)  # pre-warm
    with instrumented() as inst:
        auto = decide_many(tba, words, horizon=200, workers=2, backend="auto")
    assert inst.registry.counter("engine.batches").labels(mode="shards").value == 1
    serial = decide_many(tba, words, horizon=200, backend="serial")
    assert fingerprint(auto) == fingerprint(serial)


def test_invalid_backend_is_rejected():
    with pytest.raises(ValueError, match="backend"):
        decide_many(bounded_gap_tba(), make_words(4), backend="threads")
    with pytest.raises(ValueError, match="backend"):
        decide_many_resilient(bounded_gap_tba(), make_words(4), backend="threads")


def test_pool_survives_a_sigkilled_worker():
    tba, words = bounded_gap_tba(), make_words(200)
    serial = decide_many(tba, words, horizon=300, backend="serial")
    router = shared_pool(2)
    victim = router._shards[router.shard_ids[0]]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join()
    sharded = decide_many(tba, words, horizon=300, workers=2, backend="shards")
    assert fingerprint(sharded) == fingerprint(serial)
    # the pool healed itself back to strength
    assert all(s.proc.is_alive() for s in router._shards.values())


def test_resilient_shards_backend_clean_run():
    tba, words = bounded_gap_tba(), make_words(150)
    serial = decide_many_resilient(tba, words, horizon=250, backend="serial")
    out = decide_many_resilient(
        tba, words, horizon=250, workers=2, backend="shards"
    )
    assert out.mode == "shards"
    assert out.clean
    assert fingerprint(out.reports) == fingerprint(serial.reports)


def test_resilient_shards_heals_sigkill_mid_ladder():
    tba, words = bounded_gap_tba(), make_words(150)
    serial = decide_many_resilient(tba, words, horizon=250, backend="serial")
    router = shared_pool(2)
    victim = router._shards[router.shard_ids[1]]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join()
    out = decide_many_resilient(
        tba, words, horizon=250, workers=2, backend="shards"
    )
    assert out.mode == "shards"
    assert fingerprint(out.reports) == fingerprint(serial.reports)


def test_language_tables_stay_bounded():
    # More distinct languages than a table holds, none kept alive by the
    # caller or the parent's compile cache: ids get recycled, so a stale
    # entry would show as a wrong verdict (bound 2 rejects the gap-5
    # words that bound 6 accepts).
    from repro.engine.batch import CACHE_SIZE, clear_caches

    words = make_words(2)  # one chunk per shard
    with instrumented() as inst:
        for i in range(CACHE_SIZE + 12):
            tba = bounded_gap_tba(bound=2 if i % 2 else 6)
            sharded = decide_many(tba, words, horizon=30, workers=2, backend="shards")
            serial = decide_many(tba, words, horizon=30, backend="serial")
            assert fingerprint(sharded) == fingerprint(serial)
            clear_caches()
    shards = shared_pool(2)._shards.values()  # the pool the loop used
    assert [len(s.langs) for s in shards] == [CACHE_SIZE] * len(shards)
    resident = inst.registry.gauge("shard.worker_langs").children()
    assert [(g.value, g.peak) for g in resident] == [(CACHE_SIZE, CACHE_SIZE)] * len(shards)


def test_workers_count_only_for_a_metered_parent():
    # With no hooks in the parent nothing would merge a decide worker's
    # counts, so the worker judges bare; with hooks it counts every word.
    tba, words = bounded_gap_tba(), make_words(40)
    decide_many(tba, words, horizon=200, workers=2, backend="shards")
    with instrumented() as inst:
        shared_pool().sync_metrics()
        frames = inst.registry.counter("shard.worker_frames")
        assert sum(c.value for c in frames.children()) > 0  # the pull worked
        judged = inst.registry.counter("engine.words_judged")
        assert sum(c.value for c in judged.children()) == 0
        decide_many(tba, words, horizon=200, workers=2, backend="shards")
        assert judged.labels(strategy="lasso-exact").value == len(words)
