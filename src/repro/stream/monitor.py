"""Incremental online monitors over Definition 3.4 acceptors.

The engine judges words *offline*: :func:`repro.engine.decide` takes a
complete (lasso or long-prefix) timed word and renders one verdict.
The paper's acceptor, however, is an *online* device — it reads the
input tape as events arrive and emits f symbols as it goes.  This
module is the online side of that coin: a monitor ingests one
``(symbol, timestamp)`` event at a time and maintains a three-valued
verdict-so-far in the LTL₃ tradition (Bauer–Leucker–Schallhart):

* :data:`StreamVerdict.REJECTED` — no accepting continuation exists
  (safety violated / every run died).  Absorbing.
* :data:`StreamVerdict.ACCEPTING` — an accepting lasso is still
  reachable and the f-obligations are currently being met (an f /
  accepting configuration was seen within the monitor's ``f_window``),
  or — for deterministic TBAs — *every* continuation is accepting.
* :data:`StreamVerdict.INCONCLUSIVE` — neither of the above.

Two monitors share the ingestion machinery:

:class:`Monitor`
    Wraps any machine-protocol acceptor (a
    :class:`~repro.machine.rtalgorithm.RealTimeAlgorithm`, including
    the Section 4/5 worker/monitor harnesses and compiled TBAs).  It
    hosts the acceptor's program on a private push-driven
    :class:`~repro.machine.tape.InputTape` and pumps the simulator up
    to each event's timestamp, so the online run dispatches the *exact*
    event sequence the batch judge would — :meth:`Monitor.finish`
    replicates ``RealTimeAlgorithm._decide``'s tail and therefore
    agrees with ``engine.decide(strategy="lasso-exact")`` verbatim (the
    stream-vs-batch invariant of ``tests/test_stream_monitor.py``).

:class:`TBAMonitor`
    Steps a :class:`~repro.automata.timed.TimedBuchiAutomaton`'s capped
    configuration set directly, in O(state) per event, against a
    precomputed :class:`TBAAnalysis` of the finite configuration graph:
    ``live`` (can still reach an accepting cycle — its complement makes
    REJECTED exact, for nondeterministic TBAs too) and ``green``
    (deterministic TBAs: every continuation stays alive and accepts, so
    ACCEPTING becomes a guarantee rather than an observation).

    The TBA monitor has **two verdict-identical stepping paths**.  The
    *interpreted* path calls ``TimedBuchiAutomaton._step_configs`` per
    event (dict-built valuations, guard ASTs re-evaluated).  The
    *compiled* path (:mod:`repro.stream.compiled`, the default when
    numpy is available) steps a dense transition table / successor
    bitset compiled once per analysis, so an event costs a couple of
    array lookups; ``ingest_many`` additionally batches whole event
    slices through one tight scan when no reorder buffering is in
    play.  ``compiled=False`` (or ``REPRO_STREAM_COMPILED=0``, or a
    missing numpy, or an automaton past the table bounds) falls back
    to the interpreter; ``tests/test_stream_compiled.py`` pins the two
    paths verdict-stream-identical.  Cost model and measured speedups:
    ``docs/performance.md``.

Out-of-order tolerance: events are buffered in a small reorder heap
and applied only once the *watermark* (``max_seen − lateness``) passes
them, so events may arrive up to ``lateness`` chronons late.  An event
older than the watermark is *late*: policy ``"raise"`` (default)
raises :class:`LateEventError`, ``"drop"`` counts and discards it.

Observability (``docs/observability.md``): ``stream.events_ingested``
(``outcome=ok|late``), ``stream.events_released``,
``stream.watermark_lag``, and ``stream.verdict_flips`` (``to=…``).
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..automata.timed import TimedBuchiAutomaton
from ..engine.batch import cached_acceptor
from ..engine.strategies import DEFAULT_HORIZON
from ..engine.verdict import DecisionReport, Verdict
from ..kernel.simulator import Simulator
from ..machine.rtalgorithm import ACCEPT_SYMBOL, Context, WorkingStorage
from ..machine.tape import InputTape, OutputTape
from ..obs import hooks as _obs
from .compiled import compiled_for

__all__ = [
    "StreamVerdict",
    "LateEventError",
    "Monitor",
    "TBAMonitor",
    "TBAAnalysis",
    "analysis_for",
]

Config = Tuple[Any, Tuple[int, ...]]


class StreamVerdict(Enum):
    """Three-valued verdict-so-far of an online monitor."""

    ACCEPTING = "accepting"
    REJECTED = "rejected"
    INCONCLUSIVE = "inconclusive"

    def as_verdict(self) -> Verdict:
        """Project onto the engine's batch vocabulary."""
        if self is StreamVerdict.ACCEPTING:
            return Verdict.ACCEPT
        if self is StreamVerdict.REJECTED:
            return Verdict.REJECT
        return Verdict.UNDECIDED


#: Verdict codes: a packed row (and the mux's session table) stores a
#: verdict as its index here.
VERDICTS = (StreamVerdict.INCONCLUSIVE, StreamVerdict.ACCEPTING, StreamVerdict.REJECTED)
INC, ACC, REJ = 0, 1, 2  # judge_many relies on ACC == True, INC == False
_CODE = {v: i for i, v in enumerate(VERDICTS)}

#: Packed-row columns of a compiled deterministic run: state index,
#: previous timestamp, max seen (-1: none), last accept time (-1:
#: never), accept visits, green lock, verdict code, verdict flips,
#: events ingested (= released: rows never buffer), late events.  A
#: query plan appends one last-accept time per channel, then one
#: accept-visit count per channel.
ST, PT, MS, LAT, VIS, GL, VC, FL, NEV, LATE = range(10)
NF = 10


def judge(
    alive: bool, green: bool, locked: bool, lat: int, t: int, fw: Optional[int]
) -> Tuple[int, bool]:
    """The LTL₃ verdict rule, scalar form: ``(verdict code, green lock)``
    for a run whose current state is ``alive``/``green``, given its
    lock and last accept time ``lat`` (negative: never) at time ``t``.

    Dead → REJECTED; green lock, or an accept within ``fw`` (the
    ``f_window``; None: ever) → ACCEPTING; otherwise INCONCLUSIVE.
    :func:`judge_many` is the array form; nothing else restates it.
    """
    if not alive:
        return REJ, locked
    if green or locked:
        return ACC, True
    if lat >= 0 and (fw is None or t - lat <= fw):
        return ACC, False
    return INC, False


def judge_many(
    np: Any, alive: Any, green: Any, locked: Any, lat: Any, t: Any, fw: Optional[int]
) -> Tuple[Any, Any]:
    """:func:`judge` over arrays, elementwise (one element per event)."""
    locked = locked | (alive & green)
    recent = lat >= 0
    if fw is not None:
        recent &= t - lat <= fw
    # (locked | recent) reads as a code: ACC is 1, INC is 0.
    return np.where(alive, locked | recent, REJ), locked


def scan(
    comp: Any, v: List[Any], events: Any, fw: Optional[int], chan: Any = None
) -> int:
    """Apply on-time events to one packed row ``v`` (in place) through
    a deterministic compiled table; stops at the first late or negative
    timestamp and returns how many events it applied.

    Rejection absorbs exactly as in ``TBAMonitor._advance``: the events
    still count, the state and previous timestamp freeze.  ``chan``
    (query plans) maps a state index to the channels accepting there.
    """
    table = comp.table_list
    column = comp.sym_index.__getitem__
    cap = comp.gap_cap
    acc, live, green = comp.accepting_list, comp.live_list, comp.green_list
    vis0 = NF + (len(v) - NF) // 2
    ci, pt, wm, lat, visits, locked, code, flips = v[: FL + 1]
    h = _obs.HOOKS
    applied = 0
    for symbol, t in events:
        if t < wm or t < 0:
            break
        applied += 1
        wm = t
        if code == REJ:
            continue
        gap = t - pt
        pt = t
        row = table[ci][column(symbol)]
        ci = row[gap] if gap <= cap else row[cap]
        if acc[ci]:
            visits += 1
            lat = t
        if chan is not None:
            for q in chan[ci]:
                v[NF + q] = t
                v[vis0 + q] += 1
        new, locked = judge(live[ci], green[ci], locked, lat, t, fw)
        if new != code:
            code = new
            flips += 1
            if h is not None:
                h.count("stream.verdict_flips", to=VERDICTS[new].value)
    v[: FL + 1] = ci, pt, wm, lat, visits, locked, code, flips
    v[NEV] += applied
    return applied


class LateEventError(ValueError):
    """An event arrived with a timestamp older than the watermark."""


class _BaseMonitor:
    """Watermark/reorder machinery shared by both monitor flavours.

    Subclasses implement :meth:`_advance` (apply one released event) and
    may override :attr:`absorbed` (the verdict can no longer change).
    """

    def __init__(self, *, lateness: int = 0, late_policy: str = "raise"):
        if lateness < 0:
            raise ValueError(f"lateness must be >= 0, got {lateness}")
        if late_policy not in ("raise", "drop"):
            raise ValueError(f"late_policy must be 'raise' or 'drop', got {late_policy!r}")
        self.lateness = lateness
        self.late_policy = late_policy
        self.verdict = StreamVerdict.INCONCLUSIVE
        self.max_seen: Optional[int] = None
        self.events_ingested = 0
        self.events_released = 0
        self.late_events = 0
        self.verdict_flips = 0
        self._heap: List[Tuple[int, int, Any]] = []
        self._seq = 0

    # -- watermark ---------------------------------------------------------
    @property
    def watermark(self) -> Optional[int]:
        """Events at or below this timestamp have been applied (None
        before the first event)."""
        return None if self.max_seen is None else self.max_seen - self.lateness

    @property
    def pending(self) -> int:
        """Buffered events awaiting the watermark (the reorder heap)."""
        return len(self._heap)

    @property
    def absorbed(self) -> bool:
        """The verdict can no longer change; further events are no-ops."""
        return self.verdict is StreamVerdict.REJECTED

    # -- ingestion ---------------------------------------------------------
    def ingest(self, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event; returns the verdict-so-far.

        Events with ``t`` within ``lateness`` of the newest timestamp
        may arrive out of order; older ones are late (policy applies).
        """
        if t < 0:
            raise ValueError(f"negative timestamp {t}")
        h = _obs.HOOKS
        wm = self.watermark
        if wm is not None and t < wm:
            self.late_events += 1
            if h is not None:
                h.count("stream.events_ingested", outcome="late")
            if self.late_policy == "raise":
                raise LateEventError(
                    f"event at t={t} is older than the watermark {wm} "
                    f"(lateness={self.lateness})"
                )
            return self.verdict
        self.events_ingested += 1
        heapq.heappush(self._heap, (t, self._seq, symbol))
        self._seq += 1
        if self.max_seen is None or t > self.max_seen:
            self.max_seen = t
        if h is not None:
            h.count("stream.events_ingested", outcome="ok")
            h.observe("stream.watermark_lag", self.max_seen - t)
        self._release(self.watermark)
        return self.verdict

    def _release(self, up_to: Optional[int]) -> None:
        if up_to is None:
            return
        h = _obs.HOOKS
        while self._heap and self._heap[0][0] <= up_to:
            t, _seq, symbol = heapq.heappop(self._heap)
            self.events_released += 1
            if h is not None:
                h.count("stream.events_released")
            self._advance(symbol, t)

    def release_oldest(self) -> None:
        """Force-apply the earliest buffered event (backpressure relief).

        Order-safe: the heap minimum precedes everything still buffered,
        so releasing it early never reorders the applied sequence.
        """
        if not self._heap:
            return
        t, _seq, symbol = heapq.heappop(self._heap)
        self.events_released += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.events_released")
        self._advance(symbol, t)

    def ingest_many(self, events) -> StreamVerdict:
        """Feed a sequence of ``(symbol, t)`` events; returns the
        verdict-so-far.

        Semantically a loop of :meth:`ingest`; subclasses override it
        with batched fast paths (:class:`TBAMonitor` scans compiled
        transition tables without touching the reorder heap when no
        buffering is in play).
        """
        v = self.verdict
        for symbol, t in events:
            v = self.ingest(symbol, t)
        return v

    def flush(self) -> StreamVerdict:
        """Apply every buffered event regardless of the watermark."""
        while self._heap:
            self.release_oldest()
        return self.verdict

    # -- verdict bookkeeping ----------------------------------------------
    def _set_verdict(self, v: StreamVerdict) -> None:
        if v is self.verdict:
            return
        self.verdict = v
        self.verdict_flips += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.verdict_flips", to=v.value)

    def _advance(self, symbol: Any, t: int) -> None:
        raise NotImplementedError


class Monitor(_BaseMonitor):
    """Online driver of any machine-protocol acceptor.

    Builds a private :class:`~repro.kernel.simulator.Simulator` with a
    push-driven input tape, registers ``acceptor.program`` on it, and on
    each released event pushes the pair and pumps the simulator up to
    the event's timestamp — the batch judge's loop, sliced per event.
    Because the delivered event sequence is identical, the final
    verdict (after :meth:`finish`) matches
    ``engine.decide(acceptor, word, strategy="lasso-exact")`` exactly.

    Verdict-so-far between absorbing states: ACCEPTING while the
    acceptor's f-obligations are met — an f was written, within
    ``f_window`` chronons of the current event if a window is given —
    else INCONCLUSIVE.

    ``keep_history=True`` records released events so the monitor can be
    checkpointed by replay (:mod:`repro.stream.checkpoint`); generator
    state itself is not serializable.
    """

    def __init__(
        self,
        acceptor: Any,
        *,
        lateness: int = 0,
        late_policy: str = "raise",
        f_window: Optional[int] = None,
        keep_history: bool = False,
    ):
        super().__init__(lateness=lateness, late_policy=late_policy)
        self.acceptor = acceptor
        self.f_window = f_window
        self.keep_history = keep_history
        self.history: List[Tuple[Any, int]] = []
        self.f_count = 0
        self._f_cursor = 0
        self._last_f_time: Optional[int] = None
        self._decided_at: Optional[int] = None
        sim = Simulator()
        tape = InputTape(sim, None)
        out = OutputTape(sim)
        storage = WorkingStorage(limit=getattr(acceptor, "space_limit", None))
        self._ctx = Context(sim, tape, out, storage)
        sim.process(
            acceptor.program(self._ctx), name=getattr(acceptor, "name", "A")
        )

    @property
    def absorbed(self) -> bool:
        return self._ctx.verdict is not Verdict.UNDECIDED

    def _advance(self, symbol: Any, t: int) -> None:
        if self.keep_history:
            self.history.append((symbol, t))
        ctx = self._ctx
        if ctx.verdict is Verdict.UNDECIDED:
            ctx.input.push(symbol, t)
            # The batch judge's loop, bounded by this event's timestamp.
            while ctx.verdict is Verdict.UNDECIDED:
                nxt = ctx.sim.peek()
                if nxt is None or nxt > t:
                    break
                ctx.sim.step()
            if ctx.verdict is not Verdict.UNDECIDED and self._decided_at is None:
                self._decided_at = ctx.sim.now
        self._refresh(t)

    def _refresh(self, t: int) -> None:
        new = self._ctx.output.written_since(self._f_cursor)
        if new:
            self._f_cursor += len(new)
            for s, wt in new:
                if s == ACCEPT_SYMBOL:
                    self.f_count += 1
                    self._last_f_time = wt
        v, lat = self._ctx.verdict, self._last_f_time
        alive, green = v is not Verdict.REJECT, v is Verdict.ACCEPT
        lat = -1 if lat is None else lat
        code, _lock = judge(alive, green, False, lat, t, self.f_window)
        self._set_verdict(VERDICTS[code])

    def finish(self, horizon: int = DEFAULT_HORIZON) -> DecisionReport:
        """Close the stream and render the batch-equivalent report.

        Flushes the reorder buffer, runs any still-scheduled machine
        work up to ``horizon``, and — when an absorbing verdict was
        declared — lets it demonstrate itself for the same 16 chronons
        ``RealTimeAlgorithm._decide`` grants, so verdict, f-count and
        decision chronon all match the lasso-exact batch judgement.
        """
        self.flush()
        ctx = self._ctx
        while ctx.verdict is Verdict.UNDECIDED:
            nxt = ctx.sim.peek()
            if nxt is None or nxt > horizon:
                break
            ctx.sim.step()
        if ctx.verdict is not Verdict.UNDECIDED:
            if self._decided_at is None:
                self._decided_at = ctx.sim.now
            target = min(horizon, self._decided_at + 16)
            if target > ctx.sim.now:
                ctx.sim.run(until=target)
        self._refresh(self.max_seen if self.max_seen is not None else 0)
        return DecisionReport(
            verdict=ctx.verdict,
            f_count=ctx.output.count(ACCEPT_SYMBOL),
            horizon=horizon,
            space_peak=ctx.storage.peak,
            decided_at=self._decided_at,
            evidence={
                "events_released": self.events_released,
                "late_events": self.late_events,
                "verdict_flips": self.verdict_flips,
            },
        )


class TBAAnalysis:
    """Liveness/guarantee sets over a TBA's capped configuration graph.

    Discrete time caps clock values at cmax+1 (see
    :mod:`repro.automata.timed`), so gap classes ``0..cmax+1`` exhaust
    all inter-arrival behaviours and the graph of configurations under
    every (symbol, gap-class) edge is finite.  One breadth-first pass
    builds it: :meth:`TimedBuchiAutomaton.gap_relation` yields every
    gap class of a (config, symbol) pair at once, and the pass stores
    the result as ``rows[i][k][g]`` — the successor indices (into
    ``configs``) of ``configs[i]`` on ``(symbols[k], +g)``.  Adjacency,
    determinism and totality are read from those rows, and
    :class:`~repro.stream.compiled.CompiledTBA` compiles its tables
    from them; nothing in the build calls the interpreter.  On the
    graph we precompute:

    * ``live`` — configurations from which an accepting cycle is
      reachable.  A configuration set disjoint from ``live`` has *no*
      accepting continuation (exact for nondeterministic TBAs too:
      liveness is closed under predecessors, so REJECTED is absorbing).
    * ``green`` (deterministic stepping only) — configurations from
      which *every* infinite continuation stays alive and visits an
      accepting state infinitely often: totality under every (symbol,
      gap-class) as a greatest fixpoint, minus everything that can
      reach a cycle avoiding F.  A green configuration makes ACCEPTING
      a guarantee, not just an observation; ``green`` is closed under
      successors.

    ``deterministic`` is *semantic*: at most one successor per
    (configuration, symbol, gap-class) on the reachable graph.
    Guard-disjoint multi-edges (the multi-query plan's completed
    product automata are full of them) therefore still qualify for
    dense-table stepping and green guarantees.

    Both liveness sets are *parameterized* over the accepting set:
    :meth:`live_for` / :meth:`green_for` recompute them for any
    alternative accepting projection over the same universe — how a
    :class:`~repro.query.plan.QueryPlan` derives per-channel verdict
    flags from one shared graph.
    """

    def __init__(self, tba: TimedBuchiAutomaton):
        h = _obs.HOOKS
        if h is not None:
            # One build per language is the invariant the mux relies on
            # (tests/test_stream_compiled.py asserts on this counter).
            h.count("stream.analysis_builds")
        self.tba = tba
        self.symbols: List[Any] = sorted(tba.alphabet, key=repr)
        init = tba._initial_config()
        configs: List[Config] = [init]
        rows: List[List[Tuple[Tuple[int, ...], ...]]] = []
        # Equal cells and rows share one tuple: most rows repeat.
        single: Dict[Config, Tuple[int]] = {init: (0,)}
        pool: Dict[Any, Any] = {}
        deterministic = True
        successors = tba.gap_relation(self.symbols)
        for config in configs:  # the list grows as the BFS queue
            per_symbol = []
            for cells in successors(config):
                row = []
                for cell in cells:
                    ids: Tuple[int, ...] = ()
                    for s in cell:
                        j = single.get(s)
                        if j is None:
                            j = single[s] = (len(configs),)
                            configs.append(s)
                        ids = ids + j if ids else j
                    if len(ids) > 1:
                        deterministic = False
                        key = tuple(sorted(ids))
                        ids = pool.setdefault(key, key)
                    row.append(ids)
                key = tuple(row)
                per_symbol.append(pool.setdefault(key, key))
            rows.append(per_symbol)
        self.configs = configs
        self.index: Dict[Config, int] = {c: ids[0] for c, ids in single.items()}
        self.rows = rows
        self.deterministic = deterministic
        self.universe: FrozenSet[Config] = frozenset(configs)
        succ: List[List[int]] = []
        reverse: List[List[int]] = [[] for _ in configs]
        for i, per_symbol in enumerate(rows):
            cells = {cell for row in set(per_symbol) for cell in row}
            out = list({j for cell in cells for j in cell})
            succ.append(out)
            for j in out:
                reverse[j].append(i)
        self._succ = succ
        self._reverse = reverse
        self.accepting: FrozenSet[Config] = frozenset(
            c for c in configs if c[0] in tba.accepting
        )
        self._cyclic: Optional[List[bool]] = None
        self._total: Optional[Set[int]] = None
        self.live: FrozenSet[Config] = self.live_for(self.accepting)
        self.green: FrozenSet[Config] = self.green_for(self.accepting)

    def _decode(self, ids: Any) -> FrozenSet[Config]:
        configs = self.configs
        return frozenset(configs[i] for i in ids)

    @staticmethod
    def _backward(seeds: Any, reverse: List[List[int]]) -> Set[int]:
        """``seeds`` plus every index that can reach one of them."""
        seen = set(seeds)
        stack = list(seen)
        while stack:
            for p in reverse[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def live_for(self, accepting: FrozenSet[Config]) -> FrozenSet[Config]:
        """Configurations with an accepting continuation w.r.t. an
        alternative accepting set over the same universe (backward
        closure of its recurrent members)."""
        cyclic = self._on_cycle()
        index = self.index
        recurrent = [i for i in (index[c] for c in accepting) if cyclic[i]]
        return self._decode(self._backward(recurrent, self._reverse))

    def _on_cycle(self) -> List[bool]:
        """``cyclic[i]``: ``configs[i]`` lies on a cycle (a strongly
        connected component of two or more, or a self-loop).  One
        iterative Tarjan pass, cached for every projection."""
        if self._cyclic is not None:
            return self._cyclic
        succ = self._succ
        n = len(succ)
        order = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        cyclic = [False] * n
        stack: List[int] = []
        counter = 0
        for root in range(n):
            if order[root] >= 0:
                continue
            order[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, 0)]
            while work:
                v, k = work[-1]
                if k < len(succ[v]):
                    work[-1] = (v, k + 1)
                    w = succ[v][k]
                    if order[w] < 0:
                        order[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, 0))
                    elif on_stack[w] and order[w] < low[v]:
                        low[v] = order[w]
                    continue
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] != order[v]:
                    continue
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in succ[v]:
                    for w in component:
                        cyclic[w] = True
        self._cyclic = cyclic
        return cyclic

    def _totality(self) -> Set[int]:
        """The accepting-independent half of the green computation:
        the greatest fixpoint of totality (every (symbol, gap-class)
        has a successor that itself stays total), computed once and
        shared by every :meth:`green_for` projection.

        Only called for deterministic stepping, where each cell has at
        most one successor: a configuration is total iff none of its
        cells is empty and all its successors are total, so the
        complement is the backward closure of the configurations with
        an empty cell, and the total set is closed under successors.
        """
        if self._total is None:
            stuck = [
                i
                for i, per_symbol in enumerate(self.rows)
                if any(not cell for row in set(per_symbol) for cell in row)
            ]
            partial = self._backward(stuck, self._reverse)
            self._total = set(range(len(self.configs))) - partial
        return self._total

    def green_for(self, accepting: FrozenSet[Config]) -> FrozenSet[Config]:
        """Configurations whose *every* continuation accepts w.r.t. an
        alternative accepting set (empty unless stepping is
        deterministic — the guarantee reading needs a unique run)."""
        if not self.deterministic:
            return frozenset()
        total = self._totality()
        if not total:
            return frozenset()
        succ, reverse = self._succ, self._reverse
        # Configurations with an infinite F-avoiding path: trim the
        # non-accepting induced subgraph down to nodes that still have a
        # non-accepting successor (leaves only paths into cycles).
        acc = {self.index[c] for c in accepting}
        bad = total - acc
        count = {i: sum(j in bad for j in succ[i]) for i in bad}
        queue = [i for i, k in count.items() if not k]
        bad.difference_update(queue)
        while queue:
            for p in reverse[queue.pop()]:
                if p in bad:
                    count[p] -= 1
                    if not count[p]:
                        bad.discard(p)
                        queue.append(p)
        # Anything that can reach such a path — through F or not — has a
        # rejecting continuation.  (Predecessors of a non-total
        # configuration are never total, so the unrestricted backward
        # closure leaves the total set only where it never re-enters.)
        unsafe = self._backward(bad, reverse)
        return self._decode(total - unsafe)


def analysis_for(tba: TimedBuchiAutomaton) -> TBAAnalysis:
    """The cached :class:`TBAAnalysis` for one automaton (engine LRU)."""
    return cached_acceptor(
        ("stream-analysis", id(tba)), lambda: TBAAnalysis(tba), tba
    )


class TBAMonitor(_BaseMonitor):
    """Direct configuration-set monitor for a timed Büchi automaton.

    O(state) per event, on one of two verdict-identical paths chosen at
    construction:

    * **compiled** (default when available) — the
      :class:`~repro.stream.compiled.CompiledTBA` artifact shared
      through the analysis: an event is a dense-table lookup
      (deterministic stepping) or a bitset OR (nondeterministic), plus
      two flag reads for the judgement.  :meth:`ingest_many`
      additionally scans whole event slices in one tight loop when no
      reorder buffering is in play.
    * **interpreted** — ``_step_configs`` over the frozen configuration
      set, the fallback when numpy is absent, the automaton exceeds the
      table bounds, ``REPRO_STREAM_COMPILED=0``, or ``compiled=False``.

    Either way the whole mutable state is (configuration set, previous
    timestamp, reorder buffer, counters) — which is what makes
    :mod:`repro.stream.checkpoint` a constant-size snapshot;
    ``configs`` stays the canonical view (a property on the compiled
    path, decoded on demand).

    Verdict semantics: REJECTED exactly when no reachable configuration
    is ``live`` (no accepting continuation — exact even for
    nondeterministic TBAs); ACCEPTING when the configuration set is
    ``green`` (deterministic guarantee, absorbing) or an accepting
    configuration was visited within ``f_window`` of the current event
    (obligations met); INCONCLUSIVE otherwise.
    """

    #: Per-state accepting channels (query plans only; see :func:`scan`).
    _chan: Any = None

    def __init__(
        self,
        tba: TimedBuchiAutomaton,
        *,
        analysis: Optional[TBAAnalysis] = None,
        lateness: int = 0,
        late_policy: str = "raise",
        f_window: Optional[int] = None,
        compiled: Optional[bool] = None,
    ):
        super().__init__(lateness=lateness, late_policy=late_policy)
        self.tba = tba
        self.analysis = analysis if analysis is not None else analysis_for(tba)
        self.f_window = f_window
        if compiled is False:
            self._compiled = None
        else:
            self._compiled = compiled_for(self.analysis)
            if compiled is True and self._compiled is None:
                raise ValueError(
                    "compiled stepping unavailable (numpy absent, "
                    "REPRO_STREAM_COMPILED=0, or automaton exceeds the "
                    "table bounds)"
                )
        comp = self._compiled
        self._configs: Optional[FrozenSet[Config]] = None
        self._ci: Optional[int] = None  # compiled deterministic state index
        self._cmask: Optional[int] = None  # compiled nondeterministic bitset
        if comp is None:
            self._configs = frozenset({tba._initial_config()})
        elif comp.deterministic:
            self._ci = comp.initial_index
        else:
            self._cmask = 1 << comp.initial_index
        self.prev_t = 0
        self.accept_visits = 0
        self._last_accept_time: Optional[int] = None
        self._green_locked = False
        self._judge(0)

    @property
    def compiled(self) -> bool:
        """Whether this monitor steps the compiled artifact."""
        return self._compiled is not None

    @property
    def configs(self) -> FrozenSet[Config]:
        """The reachable configuration set (decoded from the compiled
        state representation when on the compiled path)."""
        comp = self._compiled
        if comp is None:
            return self._configs  # type: ignore[return-value]
        if comp.deterministic:
            if self._ci == comp.trap:
                return frozenset()
            return frozenset({comp.configs[self._ci]})
        return comp.decode_set(self._cmask)

    @configs.setter
    def configs(self, value) -> None:
        value = frozenset(value)
        comp = self._compiled
        if comp is not None:
            try:
                mask = comp.encode_set(value)
            except KeyError:
                # Configurations outside this automaton's reachable
                # universe (foreign snapshot): drop to the interpreter.
                comp = self._compiled = None
            else:
                if not comp.deterministic:
                    self._cmask = mask
                    return
                if mask == 0:
                    self._ci = comp.trap
                    return
                if mask & (mask - 1) == 0:
                    self._ci = mask.bit_length() - 1
                    return
                # >1 configurations under deterministic stepping can
                # only come from a foreign snapshot; fall back too.
                comp = self._compiled = None
        self._configs = value

    @property
    def absorbed(self) -> bool:
        return self.verdict is StreamVerdict.REJECTED or self._green_locked

    def _advance(self, symbol: Any, t: int) -> None:
        if self.verdict is StreamVerdict.REJECTED:
            return
        gap = t - self.prev_t
        self.prev_t = t
        comp = self._compiled
        if comp is None:
            self._configs = frozenset(
                self.tba._step_configs(set(self._configs), symbol, gap)
            )
            accepting = any(c[0] in self.tba.accepting for c in self._configs)
        elif comp.deterministic:
            ci = comp.step_index(self._ci, symbol, gap)
            self._ci = ci
            accepting = comp.accepting_list[ci]
        else:
            mask = comp.step_mask(self._cmask, symbol, gap)
            self._cmask = mask
            accepting = bool(mask & comp.accepting_mask)
        if accepting:
            self.accept_visits += 1
            self._last_accept_time = t
        self._judge(t)

    def ingest_many(self, events) -> StreamVerdict:
        """Batched ingest: one :func:`scan` over the compiled table.

        Verdict- and counter-identical to looping :meth:`ingest` (the
        differential suite pins it), with two scope limits — the fast
        scan only engages on the compiled deterministic path with
        ``lateness == 0`` and an empty reorder buffer (otherwise it
        delegates to the generic loop), and per-event
        ``stream.watermark_lag`` observations are skipped (the lag is
        identically zero here); ingested/released counts are recorded
        in bulk.  Late or negative-timestamp events hand the remainder
        of the slice back to :meth:`ingest` for identical policy
        handling.
        """
        comp = self._compiled
        if (
            comp is None
            or not comp.deterministic
            or self.lateness != 0
            or self._heap
        ):
            return super().ingest_many(events)
        if not isinstance(events, (list, tuple)):
            events = list(events)
        v = self._pack()
        applied = scan(comp, v, events, self.f_window, self._chan)
        self._unpack(v)
        h = _obs.HOOKS
        if h is not None and applied:
            h.count("stream.events_ingested", applied, outcome="ok")
            h.count("stream.events_released", applied)
            h.count("stream.compiled_steps", applied, path="bulk")
        # A late/invalid event stopped the scan: it and everything after
        # it re-enter the scalar path, which owns policy.
        for symbol, t in events[applied:]:
            self.ingest(symbol, t)
        return self.verdict

    def _pack(self) -> List[Any]:
        """The compiled deterministic run as a packed row (``ST``…)."""
        ms, lat = self.max_seen, self._last_accept_time
        return [
            self._ci, self.prev_t, -1 if ms is None else ms,
            -1 if lat is None else lat, self.accept_visits,
            self._green_locked, _CODE[self.verdict], self.verdict_flips,
            self.events_ingested, self.late_events,
        ]

    def _unpack(self, v: List[Any]) -> None:
        ci, pt, ms, lat, visits, locked, code, flips, n, _late = v[:NF]
        delta = n - self.events_ingested
        self._ci, self.prev_t, self.accept_visits = ci, pt, visits
        self.max_seen = None if ms < 0 else ms
        self._last_accept_time = None if lat < 0 else lat
        self._green_locked = bool(locked)
        self.verdict, self.verdict_flips = VERDICTS[code], flips
        self.events_ingested = n
        self.events_released += delta
        self._seq += delta

    def _judge(self, t: int) -> None:
        comp = self._compiled
        if comp is None:
            an = self.analysis
            alive = bool(self._configs & an.live)
            green = bool(an.green) and self._configs <= an.green
        elif comp.deterministic:
            ci = self._ci
            alive = comp.live_list[ci]
            green = comp.green_list[ci]
        else:
            mask = self._cmask
            alive = bool(mask & comp.live_mask)
            green = (
                bool(comp.green_mask)
                and mask != 0
                and mask & ~comp.green_mask == 0
            )
        lat = self._last_accept_time
        code, self._green_locked = judge(
            alive, green, self._green_locked,
            -1 if lat is None else lat, t, self.f_window,
        )
        self._set_verdict(VERDICTS[code])
