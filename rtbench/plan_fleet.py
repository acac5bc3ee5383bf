"""``plan-fleet``: a fused five-query plan over a churning session fleet.

One in-process ``SessionMux(plan=QueryPlan(...))`` watches about 2,000
concurrent request/response sessions against five ``req -> rsp within
w`` queries (w = 4..8).  Response gaps straddle the windows, so each
session's channels split between ACCEPTING and REJECTED.  There is no
IPC and set-up is cheap: the query and stream layers (wave stepping,
judgement, bookkeeping, readout) do almost all the work.

Reference: five independent per-query muxes fed the same events; the
fused channel verdicts must equal their headline verdicts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.query import Q, QueryPlan
from repro.stream import SessionMux

from fleet import FleetSize, Target, run_fleet
from loops import Aside
from result import Result

WINDOWS = (4, 5, 6, 7, 8)
#: Chronons from a response to the next request (the queries allow 2).
REQ_DELAYS = (1, 2)
#: Response gaps: mostly inside every window, with a tail that crosses
#: them, so narrow windows mostly end REJECTED and wide ones ACCEPTING.
RSP_GAPS = (1, 1, 2, 2, 2, 3) * 3 + (4, 5, 6, 7, 8, 9)

#: Per-layer metrics this workload measures (the rest read 0 here).
LAYERS = (
    "query.plan_build_s",
    "query.plan_configs",
    "stream.ingest_s",
    "stream.vectorized_frac",
    "stream.readout_s",
    "stream.close_s",
    "loadgen.late_ticks",
    "loadgen.lag_p90_ms",
    "trace.overhead_frac",
)


def queries() -> Dict[str, Any]:
    return {
        f"rsp-within-{w}": Q.event("req").within(2).then("rsp").within(w).repeat()
        for w in WINDOWS
    }


def step(rng: Any, k: int) -> Tuple[str, int]:
    """A session alternates req and rsp; its first req is at time 0."""
    if k % 2 == 0:
        return "req", (rng.choice(REQ_DELAYS) if k else 0)
    return "rsp", rng.choice(RSP_GAPS)


def setup(tracer: Any, aside: Aside) -> QueryPlan:
    """Build the fused plan: the product automaton, its analysis and
    its compiled table.  ``aside.calibrate()`` runs between steps."""
    with tracer.span("query.plan_build", key="setup"):
        plan = QueryPlan(queries())
    aside.calibrate()
    SessionMux(plan=plan)  # the first event can now be accepted
    return plan


class PlanTarget(Target):
    def __init__(self, plan: QueryPlan, tracer: Any):
        self.mux = SessionMux(plan=plan)
        self.tracer = tracer
        self.late = 0

    def ingest(self, events: List[Any]) -> int:
        with self.tracer.span("stream.ingest"):
            return self.mux.ingest_batch(events)

    def readout(self, touched: List[str]) -> Any:
        monitor = self.mux.monitor
        with self.tracer.span("stream.readout"):
            return [monitor(n).query_verdicts() for n in touched]

    def readout_digest(self, raw: Any, touched: List[str]) -> int:
        return hash(tuple(tuple(d.values()) for d in raw))

    def close(self, names: List[str]) -> List[Any]:
        close = self.mux.close
        with self.tracer.span("stream.close"):
            reports = [close(n) for n in names]
        self.late += sum(r.late_events for r in reports)
        return [tuple(r.query_verdicts.values()) for r in reports]

    def final(self) -> Tuple[int, int]:
        monitor = self.mux.monitor
        with self.tracer.span("stream.readout"):
            got = {n: monitor(n).query_verdicts() for n in self.mux.active}
        return hash(frozenset((n, tuple(d.values())) for n, d in got.items())), len(got)

    def dropped(self) -> int:
        return self.mux.drops + self.late


class PerQueryReference(Target):
    """One independent mux per query, each on its own automaton."""

    def __init__(self) -> None:
        self.muxes = [SessionMux(q.tba()) for q in queries().values()]

    def ingest(self, events: List[Any]) -> int:
        for mux in self.muxes:
            mux.ingest_batch(events)
        return 0

    def readout(self, touched: List[str]) -> Any:
        return [tuple(m.monitor(n).verdict for m in self.muxes) for n in touched]

    def readout_digest(self, raw: Any, touched: List[str]) -> int:
        return hash(tuple(raw))

    def close(self, names: List[str]) -> List[Any]:
        return [tuple(m.close(n).verdict for m in self.muxes) for n in names]

    def final(self) -> Tuple[int, int]:
        names = self.muxes[0].active
        got = {n: tuple(m.monitor(n).verdict for m in self.muxes) for n in names}
        return hash(frozenset(got.items())), len(got)

    def dropped(self) -> int:
        return 0


def run(
    plan: QueryPlan,
    seed: int,
    seconds: float,
    tracer: Any,
    size: FleetSize = FleetSize(),
) -> Result:
    res = run_fleet(
        size,
        seed,
        seconds,
        tracer,
        step,
        make_target=lambda tr: PlanTarget(plan, tr),
        make_reference=PerQueryReference,
        pass_layers=("stream.ingest", "stream.close"),
        tick_layers=("stream.readout",),
    )
    res.layers["query.plan_configs"] = len(plan.analysis.universe)
    if tracer.enabled:
        res.layers.update(tracer.layer_figures(setup_layers=("query.plan_build",)))
    return res


def teardown(plan: QueryPlan) -> None:
    pass
