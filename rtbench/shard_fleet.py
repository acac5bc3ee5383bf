"""``shard-fleet``: the fleet's tick shape through a one-shard router.

The same sessions and traffic as ``plan-fleet`` in bigger ticks, over
the one-clock bounded-gap TBA, through ``ShardRouter(n_shards=1)``: the
parent and one forked worker make two processes.  The worker's step is
cheap, so parent-side routing and journaling, ACK transport and
readout round trips dominate.  ``router.checkpoint()`` runs at a fixed
cadence in the closed loop, so state snapshots run beside the event
path; the open loop takes none, so the journal grows there.

Reference: an in-process ``SessionMux`` fed the same events; its wall
time over one closed-loop pass is also the in-process baseline the
router is compared against.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, List, Tuple

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.kernel import Le
from repro.shard import ShardError, ShardRouter
from repro.stream import SessionMux
from repro.stream.compiled import compiled_for
from repro.stream.monitor import analysis_for

from fleet import FleetSize, Target, run_fleet
from loops import Aside
from result import Result

#: Largest allowed gap between a session's consecutive events.
BOUND = 2
#: Gaps: one in 23 breaks the bound, so about half of the sessions
#: (16 events, 15 gaps) end REJECTED and the rest ACCEPTING.
GAPS = (1, 2) * 11 + (3,)
#: Four of plan-fleet's ticks in one, every 100 ms (10k ev/s): each
#: tick reads all 2,000 sessions back over the pipe, so bigger, rarer
#: ticks keep IPC wake-up jitter a small part of a tick's latency.
#: A pass holds half of plan-fleet's events (the closed loop is slower).
SIZE = FleetSize(tick_events=1000, period_s=0.100, pass_ticks=30)
#: The router forks a worker: the command line runs it on a CPU of its
#: own and calibrates both CPUs.
FORKS_WORKER = True
#: Closed-loop chunks between ``router.checkpoint()`` calls.
CHECKPOINT_EVERY = 10

LAYERS = (
    "stream.analysis_s",
    "stream.compile_s",
    "shard.spawn_s",
    "shard.route_s",
    "shard.sync_s",
    "shard.checkpoint_s",
    "shard.readout_s",
    "shard.close_s",
    "shard.inproc_baseline_s",
    "loadgen.late_ticks",
    "loadgen.lag_p90_ms",
    "trace.overhead_frac",
)


def bounded_gap_tba(bound: int = BOUND) -> TimedBuchiAutomaton:
    """One state, one clock: every ``a`` within ``bound`` of the last."""
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def step(rng: Any, k: int) -> Tuple[str, int]:
    return "a", (rng.choice(GAPS) if k else 1)


def setup(tracer: Any, aside: Aside) -> Any:
    """Build the automaton's analysis and compiled table, then fork the
    worker and wait for its first answer.  ``aside.calibrate()`` runs
    between steps."""
    tba = bounded_gap_tba()
    with tracer.span("stream.analysis", key="setup"):
        analysis = analysis_for(tba)
    with tracer.span("stream.compile", key="setup"):
        compiled_for(analysis)
    aside.calibrate()
    with tracer.span("shard.spawn", key="setup"):
        router = ShardRouter(tba, n_shards=1)
        router.verdicts()
    return SimpleNamespace(tba=tba, router=router)


def teardown(state: Any) -> None:
    state.router.shutdown()


class ShardTarget(Target):
    """A fresh one-shard router; ``ShardError``\\ s count as failures."""

    def __init__(self, tba: Any, tracer: Any):
        self.router = ShardRouter(tba, n_shards=1)
        self.router.verdicts()  # the worker is up before timing starts
        self.tracer = tracer
        self.errors = 0

    def _guard(self, fn: Any, *args: Any) -> Any:
        try:
            return fn(*args)
        except ShardError:
            self.errors += 1
            return None

    def ingest(self, events: List[Any]) -> int:
        with self.tracer.span("shard.route"):
            self._guard(self.router.ingest_batch, events)
        return 0

    def readout(self, touched: List[str]) -> Any:
        with self.tracer.span("shard.sync"):
            self._guard(self.router.sync)
        with self.tracer.span("shard.readout"):
            return self._guard(self.router.verdicts) or {}

    def readout_digest(self, raw: Any, touched: List[str]) -> int:
        return hash(tuple(raw.get(n) for n in touched))

    def close(self, names: List[str]) -> List[Any]:
        close = self.router.close_session
        with self.tracer.span("shard.close"):
            reports = [self._guard(close, n) for n in names]
        return [r.verdict if r is not None else None for r in reports]

    def final(self) -> Tuple[int, int]:
        got = self.readout([])
        return hash(frozenset(got.items())), len(got)

    def chunk_done(self, index: int) -> None:
        if (index + 1) % CHECKPOINT_EVERY == 0:
            with self.tracer.span("shard.checkpoint"):
                self._guard(self.router.checkpoint)

    def dropped(self) -> int:
        stats = self._guard(self.router.stats) or {}
        return stats.get("drops", 0) + self.errors

    def shutdown(self) -> None:
        self.router.shutdown()


class InProcessReference(Target):
    def __init__(self, tba: Any):
        self.mux = SessionMux(tba)

    def ingest(self, events: List[Any]) -> int:
        return self.mux.ingest_batch(events)

    def readout(self, touched: List[str]) -> Any:
        return self.mux.verdicts()

    def readout_digest(self, raw: Any, touched: List[str]) -> int:
        return hash(tuple(raw.get(n) for n in touched))

    def close(self, names: List[str]) -> List[Any]:
        return [self.mux.close(n).verdict for n in names]

    def final(self) -> Tuple[int, int]:
        got = self.mux.verdicts()
        return hash(frozenset(got.items())), len(got)

    def dropped(self) -> int:
        return self.mux.drops


def run(
    state: Any, seed: int, seconds: float, tracer: Any, size: FleetSize = SIZE
) -> Result:
    # Only one worker at a time: the set-up router has done its job.
    state.router.shutdown()
    res = run_fleet(
        size,
        seed,
        seconds,
        tracer,
        step,
        make_target=lambda tr: ShardTarget(state.tba, tr),
        make_reference=lambda: InProcessReference(state.tba),
        pass_layers=("shard.route", "shard.close", "shard.checkpoint"),
        tick_layers=("shard.sync", "shard.readout"),
        baseline_layer="shard.inproc_baseline_s",
    )
    if tracer.enabled:
        res.layers.update(
            tracer.layer_figures(
                setup_layers=("stream.analysis", "stream.compile", "shard.spawn")
            )
        )
    return res
