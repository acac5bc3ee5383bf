"""The closed and open loops every workload runs, with their figures.

* :func:`closed_loop` repeats passes of fixed work back-to-back until
  its share of ``--seconds`` is spent and reports the median pass rate.
  Traced runs alternate traced and untraced passes; the ratio of their
  wall times is ``trace.overhead_frac``.
* :func:`open_loop` offers ticks on a fixed schedule
  (:class:`loadgen.OpenLoop`) and reports verdict latency from each
  tick's due time, generator lateness, and whether the backlog grew.

Gated rates and latencies are scaled to the reference machine speed
(:mod:`calibrate`): slices are timed just before and after each pass,
at step boundaries inside it, and after every open-loop tick.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from calibrate import REFERENCE_S, Speed
from loadgen import OpenLoop, median, percentile
from result import Result
from tracing import NULL

#: Share of ``--seconds`` spent in the closed loop; the rest is the
#: open loop, whose first sixth is warm-up and is not recorded.
CLOSED_SHARE = 0.35
MIN_PASSES = 3
#: Calibration slices timed just before and just after each pass.
SLICES_AROUND_PASS = 3
#: An open-loop tick's latency is scaled by the slices timed within
#: this long on either side of it (at least the adjacent ones).
TICK_WINDOW_S = 0.1


def peak_rss_mb() -> float:
    """Peak resident set of this process (children not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassLog:
    #: Raw pass wall times, by whether the pass was traced.
    walls: Dict[bool, List[float]] = field(
        default_factory=lambda: {False: [], True: []}
    )
    #: Per untraced pass: units per second at the reference speed.
    rates: Dict[str, List[float]] = field(default_factory=dict)
    raw_rates: Dict[str, List[float]] = field(default_factory=dict)

    def rate(self, name: str) -> float:
        return median(self.rates[name])

    def overhead_frac(self) -> float:
        return median(self.walls[True]) / median(self.walls[False]) - 1


class Aside:
    """Runs benchmark-side work inside a timed pass and keeps its time
    out of the pass: ``aside(fn, *args)`` returns ``fn(*args)``."""

    def __init__(self, speed: Optional[Speed] = None) -> None:
        self.spent = 0.0
        self.speed = speed

    def __call__(self, fn: Callable, *args: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spent += time.perf_counter() - t0

    def calibrate(self) -> None:
        """Time a calibration slice here, if the pass is calibrated."""
        if self.speed is not None:
            self(self.speed.sample)


def closed_loop(seconds: float, tracer: Any, make_pass: Callable) -> PassLog:
    """``make_pass(i, tracer)`` prepares pass ``i`` (untimed) and
    returns ``(run, finish)``.  ``run(aside)`` is timed and returns the
    units it completed (``{"events_per_s": 60000, ...}``, keyed by the
    rate they feed); work it hands to ``aside`` (an :class:`Aside`) is
    taken out of the pass, and ``aside.calibrate()`` at its step
    boundaries refines the pass's speed estimate.  ``finish()`` runs
    after the clock stops."""
    clock = time.perf_counter
    log = PassLog()
    speed = Speed()
    min_passes = MIN_PASSES * (2 if tracer.enabled else 1)
    deadline = clock() + CLOSED_SHARE * seconds
    i = 0
    while i < min_passes or clock() < deadline:
        traced = tracer.enabled and i % 2 == 0
        run, finish = make_pass(i, tracer if traced else NULL)
        try:
            mark = len(speed.samples)
            speed.sample(SLICES_AROUND_PASS)
            aside = Aside(speed)
            t0 = clock()
            units = run(aside)
            wall = clock() - t0 - aside.spent
            speed.sample(SLICES_AROUND_PASS)
        finally:
            finish()
        log.walls[traced].append(wall)
        if not traced:
            scaled = wall * speed.scale(mark)
            for name, n in units.items():
                log.rates.setdefault(name, []).append(n / scaled)
                log.raw_rates.setdefault(name, []).append(n / wall)
        i += 1
    return log


def open_loop(
    res: Result,
    period_s: float,
    seconds: float,
    prepare: Callable,
    work: Callable,
    after: Callable,
) -> OpenLoop:
    """Run the open loop and record its figures in ``res``.

    One calibration slice is timed right after each tick's latency
    stamp; each tick's latency is scaled by the mean of the slices
    timed within :data:`TICK_WINDOW_S` on either side of it."""
    ticks = max(2, round((1 - CLOSED_SHARE) * seconds / period_s))
    speed = Speed()
    speed.sample()  # slice i + 1 follows tick i

    def settle(k: int, tick: Any, result: Any) -> None:
        speed.sample()
        after(k, tick, result)

    loop = OpenLoop(period_s, ticks, warmup=ticks // 6)
    loop.run(prepare, work, settle)
    slices = speed.samples
    lat_ms = [x * 1e3 for x in loop.latencies_s]
    window = max(1, round(TICK_WINDOW_S / period_s))
    scaled = []
    for k, x in zip(range(loop.warmup, ticks), lat_ms):
        near = slices[max(0, k + 1 - window):k + 1 + window]
        scaled.append(x * REFERENCE_S * len(near) / sum(near))
    p99 = percentile(lat_ms, 99)
    res.e2e["verdict_latency_p50_ms"] = percentile(scaled, 50)
    res.layers["loadgen.late_ticks"] = loop.late_ticks()
    res.layers["loadgen.lag_p90_ms"] = percentile(loop.lags_s, 90) * 1e3
    res.notes.append(
        f"verdict_latency_p90_ms {percentile(scaled, 90):.4f} ms, "
        f"verdict_latency_p99_ms {percentile(scaled, 99):.4f} ms (not gated; "
        f"{len(scaled)} ticks, {sum(1 for x in scaled if x > percentile(scaled, 99))} "
        f"beyond p99); raw p50/p90/p99 {percentile(lat_ms, 50):.3f}/"
        f"{percentile(lat_ms, 90):.3f}/{p99:.3f} ms"
    )
    res.notes.append(
        f"open loop: {loop.late_ticks()} late ticks, lag p90 "
        f"{res.layers['loadgen.lag_p90_ms']:.3f} ms"
    )
    if loop.backlog_grew():
        res.valid = False
        res.notes.append(
            "INVALID: the open loop fell behind its schedule (backlog grew); "
            "its latency figures describe the backlog, not the program"
        )
    return loop


def closed_notes(res: Result, log: PassLog, what: str) -> None:
    walls = log.walls[False]
    res.notes.append(
        f"closed loop: {len(walls) + len(log.walls[True])} passes of {what}; "
        f"untraced pass wall min/median/max {min(walls):.4f}/"
        f"{median(walls):.4f}/{max(walls):.4f} s; raw "
        + ", ".join(f"{k} {median(v):.6g}" for k, v in log.raw_rates.items())
    )
