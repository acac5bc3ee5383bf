"""The session-fleet loops shared by ``plan-fleet`` and ``shard-fleet``.

Both workloads drive one *target* (a fused-plan mux, or a shard router)
through the same two loops over seeded fleet traffic:

* **closed loop** — each pass feeds the same ``pass_ticks`` chunks
  back-to-back into a fresh target, closes the sessions that finished
  in each chunk, and reads every open session's verdicts once at the
  end.  A chunk is generated just before it is fed, off the pass's
  clock, so the benchmark never holds a whole pass of events.  Passes
  repeat until the closed-loop share of the run is spent; throughput
  is the median pass.
* **open loop** — a fresh generator offers ``tick_events`` every
  ``period_s``; each tick is fed, then its touched sessions' verdicts
  are read, and the latency runs from the tick's due time (its events'
  creation stamp) until that readout returns.  Finished sessions close
  after the stamp.  No checkpoints are taken here, so a target's
  unbounded journal shows in ``peak_rss_mb``.

Every readout is reduced to a digest outside the timed intervals, and
the same traffic is replayed afterwards through an independent
in-process *reference* target; a digest that differs counts every
readout it covers as a wrong verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from loadgen import FleetGen, Tick
from loops import Aside, closed_loop, closed_notes, open_loop, peak_rss_mb
from result import Result
from tracing import NULL


@dataclass(frozen=True)
class FleetSize:
    sessions: int = 2000
    #: Events each session emits before it closes.
    session_events: int = 16
    tick_events: int = 250
    period_s: float = 0.020
    #: Chunks (of ``tick_events``) in one closed-loop pass.
    pass_ticks: int = 240

    @property
    def offered_rate(self) -> float:
        return self.tick_events / self.period_s


class Target:
    """What a fleet workload drives; raw readouts go to the digests."""

    def ingest(self, events: List[Any]) -> int:
        """Feed one chunk; returns events advanced vectorized (0 when
        the target cannot tell)."""
        raise NotImplementedError

    def readout(self, touched: List[str]) -> Any:
        """Read the touched sessions' verdicts, as the caller gets them."""
        raise NotImplementedError

    def readout_digest(self, raw: Any, touched: List[str]) -> int:
        raise NotImplementedError

    def close(self, names: List[str]) -> List[Any]:
        """Close finished sessions; one hashable verdict item each."""
        raise NotImplementedError

    def final(self) -> Tuple[int, int]:
        """Read every open session's verdicts once; returns their
        digest and how many sessions were read."""
        raise NotImplementedError

    def chunk_done(self, index: int) -> None:
        """Called after closed-loop chunk ``index`` (checkpoint
        cadence)."""

    def dropped(self) -> int:
        """Events dropped or late-dropped, plus errors raised."""
        raise NotImplementedError

    def shutdown(self) -> None:
        pass


#: Closed-loop chunks between calibration slices.
CALIBRATE_EVERY = 8


def _pass(
    target: Target,
    gen: FleetGen,
    size: FleetSize,
    tracer: Any,
    i: int,
    aside: Optional[Aside] = None,
) -> Tuple[int, int, int, int, int]:
    """One closed-loop pass: (digest, events fed, sessions closed,
    events vectorized, final reads)."""
    aside = aside or Aside()
    closes: List[Any] = []
    fed = vec = 0
    with tracer.span("loadgen.pass", key=("pass", i)):
        for j in range(size.pass_ticks):
            chunk = aside(gen.tick, size.tick_events)
            fed += len(chunk.events)
            vec += target.ingest(chunk.events)
            closes.extend(target.close(chunk.closing))
            target.chunk_done(j)
            if j % CALIBRATE_EVERY == CALIBRATE_EVERY - 1:
                aside.calibrate()
        final, n_final = target.final()
    return hash((tuple(closes), final)), fed, len(closes), vec, n_final


def run_fleet(
    size: FleetSize,
    seed: int,
    seconds: float,
    tracer: Any,
    step: Callable[[Any, int], Any],
    make_target: Callable[[Any], Target],
    make_reference: Callable[[], Target],
    pass_layers: Sequence[str],
    tick_layers: Sequence[str],
    baseline_layer: Optional[str] = None,
) -> Result:
    """Run both loops and the reference replay.

    Traced runs report each span name in ``pass_layers`` as its median
    self time per traced pass, and each in ``tick_layers`` as its mean
    self time per recorded open-loop tick (metric name: span name +
    ``_s``).  When ``baseline_layer`` is named, the reference's wall
    time over one pass is reported under it.
    """
    res = Result()

    def gen(stream: str) -> FleetGen:
        return FleetGen(f"{seed}/{stream}", size.sessions, size.session_events, step)

    passes: List[Tuple[int, int]] = []  # (digest, operations)
    counts = {"fed": 0, "vectorized": 0, "dropped": 0}

    def make_pass(i: int, tr: Any) -> Any:
        target = make_target(tr)
        out: List[Tuple[int, int, int, int, int]] = []

        def run(aside: Aside) -> Dict[str, int]:
            out.append(_pass(target, gen("closed"), size, tr, i, aside))
            _digest, fed, closed, _vec, _final = out[0]
            return {"events_per_s": fed, "txns_per_s": closed}

        def finish() -> None:
            try:
                if out:  # the pass completed
                    digest, fed, closed, vec, final = out[0]
                    counts["dropped"] += target.dropped()
                    passes.append((digest, fed + closed + final))
                    counts["fed"] += fed
                    counts["vectorized"] += vec
            finally:
                target.shutdown()

        return run, finish

    log = closed_loop(seconds, tracer, make_pass)
    res.e2e["events_per_s"] = log.rate("events_per_s")
    res.e2e["txns_per_s"] = log.rate("txns_per_s")

    # -- open loop ----------------------------------------------------------
    open_gen = gen("open")
    tick_digests: List[int] = []
    tick_ops: List[int] = []
    target = make_target(tracer)

    def prepare(k: int) -> Tick:
        with tracer.span("loadgen.generate", key=("tick", k)):
            return open_gen.tick(size.tick_events)

    def work(k: int, tick: Tick) -> Any:
        with tracer.span("loadgen.tick", key=("tick", k)):
            counts["vectorized"] += target.ingest(tick.events)
            return target.readout(tick.touched)

    def after(k: int, tick: Tick, raw: Any) -> None:
        with tracer.span("loadgen.settle", key=("tick", k)):
            closed = target.close(tick.closing)
        tick_digests.append(
            hash((target.readout_digest(raw, tick.touched), tuple(closed)))
        )
        tick_ops.append(len(tick.events) + len(tick.touched) + len(closed))

    try:
        loop = open_loop(res, size.period_s, seconds, prepare, work, after)
        counts["dropped"] += target.dropped()
    finally:
        target.shutdown()
    counts["fed"] += loop.ticks * size.tick_events
    # Read before the reference replay, which is not the program's load.
    res.e2e["peak_rss_mb"] = peak_rss_mb()
    res.layers["stream.vectorized_frac"] = counts["vectorized"] / counts["fed"]
    res.notes.append(
        f"offered {size.offered_rate:.0f} ev/s in {size.period_s * 1e3:g} ms "
        f"ticks over {size.sessions} sessions"
    )
    closed_notes(res, log, f"{size.pass_ticks * size.tick_events} events")
    if tracer.enabled:
        res.layers["trace.overhead_frac"] = log.overhead_frac()
        res.layers.update(
            tracer.layer_figures(pass_layers, tick_layers, warmup=loop.warmup)
        )

    # -- reference replay (outside every timed interval) -------------------
    ref = make_reference()
    try:
        t0 = time.perf_counter()
        want = _pass(ref, gen("closed"), size, NULL, -1)[0]
        if baseline_layer is not None:
            res.layers[baseline_layer] = time.perf_counter() - t0
    finally:
        ref.shutdown()
    res.attempted += sum(ops for _d, ops in passes) + sum(tick_ops)
    res.failed += sum(ops for digest, ops in passes if digest != want)
    ref = make_reference()
    replay = gen("open")
    try:
        for k in range(loop.ticks):
            tick = replay.tick(size.tick_events)
            ref.ingest(tick.events)
            raw = ref.readout(tick.touched)
            closed = ref.close(tick.closing)
            digest = hash((ref.readout_digest(raw, tick.touched), tuple(closed)))
            if digest != tick_digests[k]:
                res.failed += tick_ops[k]
    finally:
        ref.shutdown()
    res.failed += counts["dropped"]
    return res
