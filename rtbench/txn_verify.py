"""``txn-verify``: cold, then warm verification of 2PC and 3PC runs.

Cold: build the ten property languages (five properties per protocol,
``TxnConfig(n_participants=3, d_lo=1, d_hi=2)``) — spec to TBA, region
analysis, compiled table — and prime the engine's machine replay with
one transaction per protocol.  Warm: simulate seeded transactions at
mixed crash rates, judge them online (thousands of short sessions,
each fed in one deep batch and then closed) and offline
(``decide_many`` serial machine replay), and cross-check the two.

This is the only workload where analysis/compile and engine fan-out do
most of the work, and it drives the mux in the opposite shape to
``plan-fleet``: few events per session, all at once.

* **closed loop** — passes of ``per_cell`` transactions per (protocol,
  crash rate) cell, simulated then judged back-to-back; throughput is
  the median pass.
* **open loop** — every ``period_s`` a tick of ``tick_txns`` finished
  transactions per protocol (simulated ahead of their due time) is
  judged both ways; the latency runs from the due time until both
  verdict sets are readable.

Reference: the online verdicts must equal the offline machine-replay
verdicts wherever both apply, and the online atomicity count must
equal the protocol-level ``atomicity_ok`` count.
"""

from __future__ import annotations

import random
from contextlib import ExitStack
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Set

from repro.obs import Instrumentation, instrumented
from repro.spec.compile import to_tba
from repro.stream import SessionMux
from repro.stream.compiled import compiled_for
from repro.stream.monitor import analysis_for
from repro.txn import (
    PROTOCOLS,
    TxnConfig,
    atomicity_ok,
    corpus,
    corpus_verdicts,
    offline_batched,
    online_verdicts,
    properties_for,
)

from loadgen import median
from loops import Aside, closed_loop, closed_notes, open_loop, peak_rss_mb
from result import Result

#: Coordinator crash rates; participants crash at half the rate.
CRASH_RATES = (0.0, 0.2, 0.4)

LAYERS = (
    "spec.to_tba_s",
    "stream.analysis_s",
    "stream.compile_s",
    "stream.analysis_configs",
    "stream.compile_fallbacks",
    "stream.ingest_s",
    "stream.vectorized_frac",
    "stream.close_s",
    "txn.simulate_s",
    "txn.online_s",
    "engine.offline_s",
    "kernel.events_dispatched",
    "loadgen.late_ticks",
    "loadgen.lag_p90_ms",
    "trace.overhead_frac",
)


@dataclass(frozen=True)
class TxnSize:
    n_participants: int = 3
    #: Transactions per (protocol, crash rate) cell in one closed pass.
    per_cell: int = 8
    #: Transactions per (protocol, crash rate) cell in one open-loop
    #: tick: every tick carries the same mix, so its cost does not hinge
    #: on whether it drew a crash.
    tick_txns: int = 1
    period_s: float = 0.100

    @property
    def offered_rate(self) -> float:
        cells = len(PROTOCOLS) * len(CRASH_RATES)
        return self.tick_txns * cells / self.period_s


def cfg_at(size: TxnSize, crash_rate: float) -> TxnConfig:
    return TxnConfig(
        n_participants=size.n_participants,
        d_lo=1,
        d_hi=2,
        abort_vote_rate=0.05,
        participant_crash_rate=crash_rate / 2,
        coordinator_crash_rate=crash_rate,
    )


def setup(tracer: Any, aside: Aside, size: TxnSize = TxnSize()) -> Any:
    """Build the ten property languages and prime both judges.
    ``aside.calibrate()`` runs between steps."""
    cfg = cfg_at(size, 0.0)
    configs = fallbacks = 0
    for proto in PROTOCOLS:
        for prop in properties_for(cfg, proto).values():
            with tracer.span("spec.to_tba", key="setup"):
                tba = to_tba(prop.spec, prop.alphabet)
            with tracer.span("stream.analysis", key="setup"):
                analysis = analysis_for(tba)
            aside.calibrate()
            with tracer.span("stream.compile", key="setup"):
                compiled = compiled_for(analysis)
            aside.calibrate()
            configs += len(analysis.universe)
            fallbacks += compiled is None
    for proto in PROTOCOLS:
        runs = corpus(proto, cfg, 1, base_seed=0)
        with tracer.span("txn.online", key="setup"):
            online_verdicts(runs)
        with tracer.span("engine.offline", key="setup"):
            offline_batched(runs)
    return SimpleNamespace(size=size, configs=configs, fallbacks=fallbacks)


def teardown(state: Any) -> None:
    pass


class _Judge:
    """Simulation and both judgements, with traced spans and checks."""

    def __init__(self, tracer: Any):
        self.tracer = tracer
        self.events = self.vectorized = 0
        self.dispatched: List[float] = []
        self.failed = 0

    def simulate(
        self, cells: List[Any], count_kernel: bool, aside: Optional[Aside] = None
    ) -> List[Any]:
        """Run the seeded transactions; with ``count_kernel`` the obs
        hooks count kernel events (traced passes only).
        ``aside.calibrate()`` runs between cells."""
        aside = aside or Aside()
        inst = Instrumentation() if count_kernel else None
        runs: List[Any] = []
        with ExitStack() as hooks:
            if inst is not None:
                hooks.enter_context(instrumented(inst))
            for proto, cfg, n, base in cells:
                with self.tracer.span("txn.simulate"):
                    runs += corpus(proto, cfg, n, base_seed=base)
                aside.calibrate()
        if inst is not None:
            counter = inst.registry.get("kernel.events_dispatched")
            self.dispatched.append(counter.value / len(runs))
        return runs

    def judge(self, runs: List[Any], aside: Optional[Aside] = None) -> Any:
        tr = self.tracer
        with tr.span("txn.online"):
            online, stats = online_verdicts(runs)
        (aside or Aside()).calibrate()
        with tr.span("engine.offline"):
            offline = offline_batched(runs, backend="serial")
        return online, offline, stats

    def check(self, runs: List[Any], judged: Any) -> None:
        """Count transactions whose verdicts disagree (outside timing)."""
        online, offline, stats = judged
        self.events += stats["events"]
        self.vectorized += stats["vectorized"]
        bad: Set[int] = {
            i for (i, name, proc), v in offline.items() if online[(i, name, proc)] is not v
        }
        atomic = corpus_verdicts(runs, online)["atomic"]
        self.failed += len(bad) + abs(atomic - sum(map(atomicity_ok, runs)))


def run(state: Any, seed: int, seconds: float, tracer: Any) -> Result:
    size = state.size
    res = Result()
    judge = _Judge(tracer)
    # One stream per loop, so the open loop's transactions do not depend
    # on how many closed-loop passes the machine managed.
    closed_rng = random.Random(f"{seed}/closed")
    open_rng = random.Random(f"{seed}/open")
    txns = [0]

    def cells(rng: random.Random, per: int, rates: Any) -> List[Any]:
        return [
            (proto, cfg_at(size, rate), per, rng.randrange(2**31))
            for proto in PROTOCOLS
            for rate in rates
        ]

    # -- closed loop ------------------------------------------------------
    def make_pass(i: int, tr: Any) -> Any:
        plan = cells(closed_rng, size.per_cell, CRASH_RATES)
        patches = ExitStack()
        patches.enter_context(tr.patched(SessionMux, "ingest_batch", "stream.ingest"))
        patches.enter_context(tr.patched(SessionMux, "close", "stream.close"))
        out: Dict[str, Any] = {}

        def run(aside: Aside) -> Dict[str, int]:
            judge.tracer = tr
            with tr.span("loadgen.pass", key=("pass", i)):
                out["runs"] = runs = judge.simulate(plan, tr.enabled, aside)
                out["judged"] = judge.judge(runs, aside)
            return {"txns_per_s": len(runs), "events_per_s": out["judged"][2]["events"]}

        def finish() -> None:
            patches.close()
            if "judged" in out:  # the pass completed
                judge.check(out["runs"], out["judged"])
                txns[0] += len(out["runs"])

        return run, finish

    log = closed_loop(seconds, tracer, make_pass)
    res.e2e["txns_per_s"] = log.rate("txns_per_s")
    res.e2e["events_per_s"] = log.rate("events_per_s")

    # -- open loop ----------------------------------------------------------
    judge.tracer = tracer

    def prepare(k: int) -> List[Any]:
        with tracer.span("loadgen.generate", key=("tick", k)):
            tick = cells(open_rng, size.tick_txns, CRASH_RATES)
            return judge.simulate(tick, count_kernel=False)

    def work(k: int, runs: List[Any]) -> Any:
        with tracer.span("loadgen.tick", key=("tick", k)):
            return judge.judge(runs)

    def after(k: int, runs: List[Any], judged: Any) -> None:
        judge.check(runs, judged)
        txns[0] += len(runs)

    with tracer.patched(SessionMux, "ingest_batch", "stream.ingest"), \
            tracer.patched(SessionMux, "close", "stream.close"):
        open_loop(res, size.period_s, seconds, prepare, work, after)
    res.e2e["peak_rss_mb"] = peak_rss_mb()

    res.layers["stream.vectorized_frac"] = judge.vectorized / judge.events
    res.layers["stream.analysis_configs"] = state.configs
    res.layers["stream.compile_fallbacks"] = state.fallbacks
    res.notes.append(
        f"offered {size.offered_rate:.0f} txn/s in {size.period_s * 1e3:g} ms ticks"
    )
    closed_notes(
        res, log, f"{size.per_cell * len(PROTOCOLS) * len(CRASH_RATES)} transactions"
    )
    if tracer.enabled:
        res.layers["trace.overhead_frac"] = log.overhead_frac()
        res.layers["kernel.events_dispatched"] = median(judge.dispatched)
        res.layers.update(
            tracer.layer_figures(
                pass_layers=(
                    "txn.simulate",
                    "txn.online",
                    "engine.offline",
                    "stream.ingest",
                    "stream.close",
                ),
                setup_layers=("spec.to_tba", "stream.analysis", "stream.compile"),
            )
        )
    res.attempted = txns[0]
    res.failed = judge.failed
    return res
