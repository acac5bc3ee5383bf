"""One recovery contract over both fronts of the recovery ledger.

``MuxSupervisor`` (in-process) and ``ShardRouter`` (a worker behind a
pipe) keep the same snapshot + journal + retirement books
(``repro.stream.supervisor.RecoveryLedger``).  Each case below runs one
script of ingests, checkpoints, closes and evictions through a front,
crashing and recovering it along the way, and through an uninterrupted
``SessionMux``: after every recovery the two must agree in verdicts and
in every ``stats()`` counter.  Closed and evicted sessions stay retired,
and a name reused after a close comes back as a fresh session.
"""

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.kernel import Le
from repro.shard import ShardRouter
from repro.stream import MuxSupervisor, SessionMux


def bounded_gap_tba(bound=2):
    # a fresh session rejects at t=3 (gap 3 from time 0)
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def feed(*pairs):
    return ("ingest", [(name, "a", t) for name, t in pairs])


CHECKPOINT, BOUNCE = ("checkpoint",), ("bounce",)

CASES = {
    "close": [
        feed(("a", 1), ("b", 1), ("a", 2), ("b", 2)),
        CHECKPOINT,
        feed(("a", 3), ("b", 3)),
        ("close", "a"),
        BOUNCE,
        feed(("b", 4)),
        BOUNCE,
    ],
    "close-unsnapshotted": [
        feed(("a", 1), ("b", 1), ("a", 2)),
        ("close", "a"),
        BOUNCE,
    ],
    "close-then-reopen": [
        feed(("a", 1), ("b", 1)),
        CHECKPOINT,
        feed(("a", 2)),
        ("close", "a"),
        feed(("a", 3), ("c", 1)),  # the reopened "a" rejects; the old one would not
        ("close", "c"),  # born and retired since the checkpoint
        BOUNCE,
        feed(("a", 4), ("b", 2)),
        BOUNCE,
    ],
    "evict": [
        feed(*[("hot", t) for t in range(1, 31)], ("cold", 1)),
        ("evict", None, 10),
        BOUNCE,
        feed(("cold", 31)),  # a fresh "cold" rejects
        BOUNCE,
    ],
    "evict-after-checkpoint": [
        feed(*[("hot", t) for t in range(1, 6)], ("cold", 1)),
        CHECKPOINT,
        feed(*[("hot", t) for t in range(6, 21)]),
        ("evict", 20, 10),
        BOUNCE,
    ],
    "retire-across-recoveries": [
        feed(("a", 1), ("b", 1), ("c", 1)),
        ("close", "a"),
        BOUNCE,
        ("close", "b"),
        BOUNCE,
        feed(("a", 2), ("c", 2)),
        CHECKPOINT,
        ("close", "c"),
        BOUNCE,
    ],
}


class SupervisorFront:
    def __init__(self, tba, mux_kwargs):
        self.host = MuxSupervisor(lambda: SessionMux(tba, **mux_kwargs))

    def ingest(self, events):
        for event in events:
            self.host.ingest(*event)

    def bounce(self):
        self.host.crash()
        self.host.recover()

    def shutdown(self):
        pass


class RouterFront:
    def __init__(self, tba, mux_kwargs):
        self.host = ShardRouter(tba, n_shards=1, mux_kwargs=mux_kwargs)

    def ingest(self, events):
        self.host.ingest_batch(events)

    def bounce(self):
        (shard_id,) = self.host.shard_ids
        self.host.crash(shard_id)
        self.host.recover(shard_id)

    def shutdown(self):
        self.host.shutdown()


@pytest.fixture(params=[None, 1], ids=["lazy", "compacting"])
def compaction(request, monkeypatch):
    """The default journal compaction, and retired sessions' events
    dropped at every retirement."""
    if request.param is not None:
        from repro.stream import supervisor as ledger_mod

        monkeypatch.setattr(ledger_mod, "COMPACT_MIN", request.param)


@pytest.mark.parametrize("mux_kwargs", [{}, {"lateness": 2}], ids=["rows", "objects"])
@pytest.mark.parametrize("front_cls", [SupervisorFront, RouterFront], ids=["supervisor", "router"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_recovery_matches_uninterrupted_mux(case, front_cls, mux_kwargs, compaction):
    tba = bounded_gap_tba()
    reference = SessionMux(tba, **mux_kwargs)
    front = front_cls(tba, mux_kwargs)
    bounces = 0
    try:
        for op, *args in CASES[case]:
            if op == "ingest":
                (events,) = args
                front.ingest(events)
                for event in events:
                    reference.ingest(*event)
            elif op == "checkpoint":
                front.host.checkpoint()
            elif op == "close":
                got = front.host.close_session(args[0])
                assert got == reference.close(args[0])
            elif op == "evict":
                now, ttl = args
                assert front.host.evict_idle(now, ttl) == reference.evict_idle(now, ttl)
            else:
                front.bounce()
                bounces += 1
                want = reference.stats()
                stats = front.host.stats()
                assert front.host.verdicts() == reference.verdicts()
                assert {k: stats[k] for k in want} == want
    finally:
        front.shutdown()
    assert bounces
