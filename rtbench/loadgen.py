"""The load generator: seeded inputs and the open-loop tick schedule.

Everything the program sees comes from here, made from the workload
seed alone: the same seed gives the same events, session names, closes
and transaction seeds.  The open loop offers work on a fixed schedule
that does not slow down when the program does, times each tick from
its due time, and records how late the generator itself ran.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence, Tuple

Event = Tuple[str, Any, int]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


@dataclass
class Tick:
    """One tick's worth of fleet traffic."""

    events: List[Event]
    #: Distinct sessions the tick's events touch, first-seen order.
    touched: List[str]
    #: Sessions that emitted their last event in this tick; the caller
    #: closes them after the tick.
    closing: List[str]


class FleetGen:
    """Concurrent sessions with churn, over ``slots`` session slots.

    Each slot runs one session at a time.  A session emits
    ``length`` events through ``step(rng, k) -> (symbol, delta)`` (its
    ``k``-th event lands ``delta`` chronons after its previous one, on
    its own event-time clock) and then closes; the slot's next event
    opens a fresh session name.  Each tick draws its events from
    uniformly chosen slots, so about ``slots`` sessions are live at any
    time and each session's events stay in time order.
    """

    def __init__(
        self,
        seed: Any,
        slots: int,
        length: int,
        step: Callable[[random.Random, int], Tuple[Any, int]],
    ):
        self.rng = random.Random(seed)
        self.slots = slots
        self.length = length
        self.step = step
        self._gen = [0] * slots
        self._k = [0] * slots
        self._t = [0] * slots
        self._names = [self._name(i) for i in range(slots)]

    def _name(self, slot: int) -> str:
        return f"s{slot}.{self._gen[slot]}"

    def tick(self, n_events: int) -> Tick:
        rng = self.rng
        step = self.step
        length = self.length
        gen, ks, ts, names = self._gen, self._k, self._t, self._names
        events: List[Event] = []
        closing: List[str] = []
        for slot in rng.choices(range(self.slots), k=n_events):
            k = ks[slot]
            if k == length:
                # The slot's previous session closed: open a fresh name.
                gen[slot] += 1
                names[slot] = self._name(slot)
                k = 0
                ts[slot] = 0
            symbol, delta = step(rng, k)
            ts[slot] += delta
            name = names[slot]
            events.append((name, symbol, ts[slot]))
            ks[slot] = k + 1
            if k + 1 == length:
                closing.append(name)
        touched = list(dict.fromkeys(name for name, _s, _t in events))
        return Tick(events, touched, closing)


@dataclass
class OpenLoop:
    """Fixed-rate tick schedule: tick ``k`` is due at ``start + k*period``.

    :meth:`run` starts each tick's work once it is due (never early)
    and stamps its latency from the *due* time, so a stall delays every
    later tick's figure too.  Ticks below ``warmup`` are run but not
    recorded.
    """

    period_s: float
    ticks: int
    warmup: int
    clock: Callable[[], float] = time.perf_counter
    latencies_s: List[float] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)

    def run(
        self,
        prepare: Callable[[int], Any],
        work: Callable[[int, Any], Any],
        after: Callable[[int, Any, Any], None],
    ) -> None:
        """``prepare(k)`` builds tick ``k``'s input ahead of its due
        time; ``work(k, input)`` runs at the due time and returns once
        the tick's verdicts are readable; ``after(k, input, result)``
        runs outside the latency interval (closes, bookkeeping)."""
        clock = self.clock
        prepared = prepare(0)
        start = clock() + self.period_s
        for k in range(self.ticks):
            due = start + k * self.period_s
            now = clock()
            if now < due:
                time.sleep(due - now)
                now = clock()
            result = work(k, prepared)
            done = clock()
            if k >= self.warmup:
                self.lags_s.append(now - due)
                self.latencies_s.append(done - due)
            after(k, prepared, result)
            if k + 1 < self.ticks:
                prepared = prepare(k + 1)

    def late_ticks(self) -> int:
        """Recorded ticks that started half a period or more after due."""
        return sum(1 for lag in self.lags_s if lag >= self.period_s / 2)

    def backlog_grew(self) -> bool:
        """True when the generator ended the run far behind schedule:
        the median lag over the last tenth of recorded ticks exceeds
        ten periods, which a sustainable rate never reaches."""
        n = len(self.lags_s)
        if n == 0:
            return False
        tail = self.lags_s[n - max(1, n // 10):]
        return median(tail) > 10 * self.period_s
