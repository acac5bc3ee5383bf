"""Tests for repro.shard.router — the sharded mux front.

The load-bearing invariant everywhere: a ShardRouter over N workers
produces *exactly* the verdicts a single in-process SessionMux would,
through crashes, recoveries, fail-overs, and rebalances.
"""

import random

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.kernel import Le
from repro.shard import ShardError, ShardRouter
from repro.stream import SessionMux, StreamVerdict


def bounded_gap_tba(bound=2):
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def traffic(sessions=30, events=1500, seed=11):
    """Mixed traffic: most gaps in-bound, some breaking the bound."""
    rng = random.Random(seed)
    clocks = {f"c-{i}": 0 for i in range(sessions)}
    out = []
    for _ in range(events):
        name = rng.choice(list(clocks))
        gap = rng.choice([1, 1, 1, 2, 2, 5])
        clocks[name] += gap
        out.append((name, "a", clocks[name]))
    return out


@pytest.fixture
def tba():
    return bounded_gap_tba()


def reference_verdicts(tba, events):
    mux = SessionMux(tba)
    for e in events:
        mux.ingest(*e)
    return mux.verdicts()


def test_verdicts_identical_to_single_mux(tba):
    events = traffic()
    with ShardRouter(tba, n_shards=3, batch_events=64) as router:
        router.ingest_batch(events)
        assert router.verdicts() == reference_verdicts(tba, events)
        stats = router.stats()
        assert stats["active"] == 30
        assert stats["opened"] == 30
        assert router.session_count == 30


def test_scalar_ingest_and_close_session(tba):
    events = traffic(sessions=6, events=200)
    ref = SessionMux(tba)
    with ShardRouter(tba, n_shards=2, batch_events=16) as router:
        for name, sym, t in events:
            router.ingest(name, sym, t)
            ref.ingest(name, sym, t)
        name = events[0][0]
        want = ref.close(name)
        got = router.close_session(name)
        assert (got.name, got.verdict, got.events_ingested) == (
            want.name, want.verdict, want.events_ingested
        )
        assert router.session_count == ref.stats()["active"]
        assert router.verdicts() == ref.verdicts()


def test_evict_idle_matches_mux(tba):
    events = [("hot", "a", t) for t in range(1, 40)] + [("cold", "a", 1)]
    ref = SessionMux(tba)
    for e in events:
        ref.ingest(*e)
    with ShardRouter(tba, n_shards=2) as router:
        router.ingest_batch(events)
        assert sorted(router.evict_idle(idle_ttl=10)) == sorted(
            ref.evict_idle(idle_ttl=10)
        )
        assert router.verdicts() == ref.verdicts()


def test_crash_then_recover_is_verdict_identical(tba):
    events = traffic(events=1200)
    head, tail = events[:700], events[700:]
    with ShardRouter(tba, n_shards=3, batch_events=50) as router:
        router.ingest_batch(head)
        router.checkpoint()
        router.ingest_batch(tail)
        victim = router.shard_ids[1]
        router.crash(victim)
        latency = router.recover(victim)
        assert latency >= 0
        assert router.verdicts() == reference_verdicts(tba, events)


def test_crash_without_checkpoint_replays_whole_journal(tba):
    events = traffic(events=400)
    with ShardRouter(tba, n_shards=2, batch_events=32) as router:
        router.ingest_batch(events)
        victim = router.shard_ids[0]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_events_buffered_while_dead_are_replayed(tba):
    events = traffic(events=600)
    head, tail = events[:300], events[300:]
    with ShardRouter(tba, n_shards=2, batch_events=10_000) as router:
        router.ingest_batch(head)
        router.sync()
        victim = router.shard_ids[0]
        router.crash(victim)
        # These buffer parent-side for the dead shard (no flush raises).
        router.ingest_batch(tail)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_fail_over_replaces_sessions_on_survivors(tba):
    events = traffic(events=1000)
    head, tail = events[:600], events[600:]
    with ShardRouter(tba, n_shards=3, batch_events=40) as router:
        router.ingest_batch(head)
        router.checkpoint()
        router.ingest_batch(tail)
        victim = router.shard_ids[0]
        router.crash(victim)
        router.fail_over(victim)
        assert victim not in router.shard_ids
        assert router.n_shards == 2
        assert router.verdicts() == reference_verdicts(tba, events)


def test_rebalance_grow_and_shrink_preserve_verdicts(tba):
    events = traffic(events=900)
    with ShardRouter(tba, n_shards=2, batch_events=64) as router:
        router.ingest_batch(events[:450])
        grown = router.rebalance(4)
        assert router.n_shards == 4
        # consistent hashing: growing 2 -> 4 moves roughly half, never all
        assert 0 < len(grown["moved"]) < router.session_count
        router.ingest_batch(events[450:])
        assert router.verdicts() == reference_verdicts(tba, events)
        shrunk = router.rebalance(2)
        assert router.n_shards == 2
        assert shrunk["moved"]
        assert router.verdicts() == reference_verdicts(tba, events)


def test_rebalance_then_crash_recovers_on_new_layout(tba):
    events = traffic(events=800)
    with ShardRouter(tba, n_shards=2, batch_events=64) as router:
        router.ingest_batch(events[:400])
        router.rebalance(3)
        router.ingest_batch(events[400:])
        victim = router.shard_ids[2]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_reject_policy_errors_surface_at_sync(tba):
    with ShardRouter(
        tba,
        n_shards=2,
        batch_events=8,
        mux_kwargs={"buffer_limit": 1, "drop_policy": "reject", "lateness": 4},
    ) as router:
        # out-of-order events pile into the reorder buffer and overflow
        for i in range(12):
            router.ingest("s", "a", 10 - (i % 3))
        with pytest.raises(ShardError):
            router.sync()


def test_router_validates_configuration(tba):
    with pytest.raises(ValueError):
        ShardRouter(tba, n_shards=0)
    with pytest.raises(ValueError):
        ShardRouter(tba, mux_factory=lambda: None)
    with pytest.raises(ValueError):
        ShardRouter(mux_kwargs={"lateness": 1})
    with pytest.raises(ValueError):
        ShardRouter(tba, max_inflight=0)
    for every in (0, -5):
        with pytest.raises(ValueError, match="checkpoint_every must be >= 1"):
            ShardRouter(tba, checkpoint_every=every)


def test_fail_over_refuses_last_shard(tba):
    with ShardRouter(tba, n_shards=1) as router:
        with pytest.raises(ShardError):
            router.fail_over(router.shard_ids[0])


def test_auto_checkpoint_bounds_the_journal(tba):
    events = traffic(events=600)
    with ShardRouter(
        tba, n_shards=2, batch_events=25, checkpoint_every=100
    ) as router:
        router.ingest_batch(events)
        router.sync()
        for shard in router._shards.values():
            assert len(shard.journal) <= 200
            assert shard.snapshot is not None
        victim = router.shard_ids[1]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


# -- retired sessions stay retired through recovery -------------------------


@pytest.fixture(params=[None, 1], ids=["lazy", "compacting"])
def compaction(request, monkeypatch):
    """Run with the default journal compaction, and with retired
    sessions' events dropped at every retirement."""
    if request.param is not None:
        from repro.stream import supervisor as ledger_mod

        monkeypatch.setattr(ledger_mod, "COMPACT_MIN", request.param)
    return request.param is not None


def test_recover_keeps_closed_sessions_closed(tba, compaction):
    """A close after the last checkpoint retires the session's journaled
    events: replay into the respawned worker must not bring it back."""
    with ShardRouter(tba, n_shards=1) as router:
        router.ingest_batch([("a", "a", 1), ("b", "a", 1)])
        router.close_session("a")
        journal = router._shards["s0"].journal
        assert ("a", "a", 1) not in journal if compaction else ("a", "a", 1) in journal
        router.crash("s0")
        router.recover("s0")
        assert router.verdicts() == {"b": SessionMux(tba).ingest("b", "a", 1)}
        assert router.stats()["closed"] == 1


def test_recover_replays_close_then_reopen_in_order(tba, compaction):
    """A name closed and then reused after the checkpoint: the replay
    retires the first session and keeps the second."""
    head = [("a", "a", 1), ("b", "a", 1)]
    # a fresh session rejects at t=3 (gap 3); the closed one would not
    reopened = [("a", "a", 3), ("c", "a", 1)]
    with ShardRouter(tba, n_shards=1) as router:
        router.ingest_batch(head)
        router.checkpoint()
        router.ingest("a", "a", 2)
        router.close_session("a")
        router.ingest_batch(reopened)
        router.close_session("c")  # born and retired since the checkpoint
        want = (router.verdicts(), router.stats())
        router.crash("s0")
        router.recover("s0")
        assert (router.verdicts(), router.stats()) == want
    ref = SessionMux(tba)
    for e in head + [("a", "a", 2)]:
        ref.ingest(*e)
    ref.close("a")
    for e in reopened:
        ref.ingest(*e)
    ref.close("c")
    assert want == (ref.verdicts(), ref.stats())
    assert want[0]["a"] is StreamVerdict.REJECTED


def test_recover_keeps_evicted_sessions_evicted(tba, compaction):
    events = [("hot", "a", t) for t in range(1, 40)] + [("cold", "a", 1)]
    ref = SessionMux(tba)
    for e in events:
        ref.ingest(*e)
    ref.evict_idle(idle_ttl=10)
    with ShardRouter(tba, n_shards=1) as router:
        router.ingest_batch(events)
        assert router.evict_idle(idle_ttl=10) == ["cold"]
        router.crash("s0")
        router.recover("s0")
        assert router.verdicts() == ref.verdicts()
        assert router.stats()["evicted"] == 1


def test_fail_over_keeps_retired_sessions_retired(tba, compaction):
    events = traffic(events=900)
    head, tail = events[:500], events[500:]
    with ShardRouter(tba, n_shards=3, batch_events=40) as router:
        router.ingest_batch(head)
        router.checkpoint()
        router.ingest_batch(tail)
        victim = router.shard_ids[0]
        mine = sorted(n for n in {e[0] for e in events} if router.place_of(n) == victim)
        assert len(mine) >= 2
        closed, idle = mine[0], mine[1]
        router.close_session(closed)
        router.ingest_batch([(n, "a", 10_000) for n in mine[2:]])
        assert idle in router.evict_idle(now=10_000, idle_ttl=50)
        router.crash(victim)
        router.fail_over(victim)
        ref = SessionMux(tba)
        for e in events:
            ref.ingest(*e)
        ref.close(closed)
        for n in mine[2:]:
            ref.ingest(n, "a", 10_000)
        ref.evict_idle(now=10_000, idle_ttl=50)
        assert router.verdicts() == ref.verdicts()
        assert closed not in router.verdicts() and idle not in router.verdicts()


def test_planned_router_rebalances_then_recovers():
    """A fused-plan mux per worker: sessions migrate (checkpointed
    rows) and a crashed shard recovers, channel verdicts intact."""
    from repro.query import Q, QueryPlan

    plan = QueryPlan(
        {f"w{w}": Q.event("req").then("rsp").within(w).repeat() for w in (2, 4)}
    )
    rng = random.Random(5)
    clocks = {f"p{i}": 0 for i in range(24)}
    events = []
    for k in range(600):
        name = rng.choice(sorted(clocks))
        clocks[name] += rng.choice([1, 1, 2, 3, 5])
        events.append((name, "req" if k % 2 else "rsp", clocks[name]))
    ref = SessionMux(plan=plan)
    ref.ingest_batch(events)
    with ShardRouter(mux_factory=lambda: SessionMux(plan=plan), n_shards=1) as router:
        router.ingest_batch(events[:300])
        assert router.rebalance(2)["moved"]
        router.ingest_batch(events[300:])
        victim = router.shard_ids[1]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == ref.verdicts()
        for name in sorted(clocks)[:6]:
            report = router.close_session(name)
            assert report.query_verdicts == ref.monitor(name).query_verdicts()
