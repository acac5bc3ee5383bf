"""Multiplexing many live streams over shared compiled acceptors.

A service front-end does not monitor one stream; it monitors thousands
of named sessions against a handful of *languages*.  The
:class:`SessionMux` owns that fan-in: sessions are created on first
event, and the expensive per-language artifacts are shared — one
:class:`~repro.stream.monitor.TBAAnalysis` **and one**
:class:`~repro.stream.compiled.CompiledTBA` per automaton (via the
engine's acceptor LRU and the analysis-attached compile cache — built
once per language, never per session), and one acceptor object per
machine-protocol language (each session's
:class:`~repro.stream.monitor.Monitor` builds only a private simulator
around the shared program).

Sessions live in one of two places, verdict-identical by construction
and pinned so by ``tests/test_stream_compiled.py``:

* **the session table** — on the compiled deterministic path (a TBA,
  query or plan mux with ``lateness=0`` and a compiled table) every
  session is one int64 row of a struct-of-arrays table (the packed-row
  layout of :mod:`repro.stream.monitor`: state index, previous
  timestamp, watermark, last-accept time, accept visits, green lock,
  verdict code, flips, event counters, plus per-channel last-accept
  times and accept visits under a plan).  :meth:`SessionMux.monitor`
  hands out a thin row view with the ``TBAMonitor`` /
  ``PlanMonitor`` read API.
* **objects** — machine-backed monitors, reorder-buffering muxes
  (``lateness > 0``), session-private ``open(name, query=...)``
  sessions, nondeterministic or interpreter-fallback automata, and
  numpy-less interpreters keep one monitor object per session.

Ingestion has two paths:

* :meth:`SessionMux.ingest` — one event into one session, the scalar
  path every policy decision (late events, backpressure, drops) runs
  through.
* :meth:`SessionMux.ingest_batch` — many ``(name, symbol, t)`` events
  at once, handed to the *wave kernel* one chunk at a time: names map
  to rows once, a stable sort groups the events per row, and wave
  ``k`` (the ``k``-th event of every session in the chunk) is one
  table gather plus the LTL₃ rule as array ops
  (:func:`~repro.stream.monitor.judge_many`).  When a chunk is a few
  deep sessions, each row runs the scalar
  :func:`~repro.stream.monitor.scan` instead.  Late or out-of-order
  slices and object-backed sessions fall back to the scalar path,
  event order preserved per session.

Boundedness is explicit, not accidental:

* ``buffer_limit`` caps each session's reorder buffer; an event that
  would overflow it triggers the ``drop_policy`` — ``"drop-new"``
  (discard the incoming event), ``"drop-old"`` (force-apply the oldest
  buffered event to make room; order-safe), or ``"reject"`` (raise
  :class:`BackpressureError` so the caller can shed load).
* ``max_sessions`` bounds the session table; opening past it raises
  :class:`BackpressureError`.
* ``evict_idle`` retires sessions whose newest event is older than
  ``idle_ttl`` (event time, so replay and live traffic age alike).
* ``max_eviction_reports`` caps the eviction-summary backlog when the
  caller never drains it (drop-oldest; the
  ``stream.eviction_reports_dropped`` counter says how many summaries
  were lost).

The front-end accepts :mod:`repro.query` directly: ``query=`` monitors
every session against one declarative query (text or a ``Q`` builder
query), ``plan=`` shares one fused :class:`~repro.query.plan.QueryPlan`
product across all sessions (per-query verdicts in each
:class:`SessionReport`), and ``open(name, query=...)`` pins a
session-private query.

Observability: ``stream.sessions`` (``op=opened|closed|evicted``), the
``stream.sessions_active`` gauge, and ``stream.drops`` (``policy=…``);
per-event metrics (``stream.events_ingested``, ``events_released``,
``compiled_steps{path}``, ``verdict_flips{to}``) total the same on
every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..automata.timed import TimedBuchiAutomaton
from ..engine.verdict import DecisionReport, Verdict
from ..obs import hooks as _obs
from . import compiled as _compiled
from .compiled import compiled_for
from .monitor import FL, GL, INC, LAT, LATE, MS, NEV, NF, PT, REJ, ST, VC, VERDICTS, VIS
from .monitor import LateEventError, Monitor, StreamVerdict, TBAMonitor, analysis_for
from .monitor import judge, judge_many, scan

__all__ = ["BackpressureError", "SessionReport", "SessionMux"]

DROP_POLICIES = ("drop-new", "drop-old", "reject")


class BackpressureError(RuntimeError):
    """The mux refused work under its explicit bounding policy."""


@dataclass
class SessionReport:
    """Lifecycle summary handed back when a session closes."""

    name: str
    verdict: StreamVerdict
    events_ingested: int
    events_released: int
    late_events: int
    drops: int
    verdict_flips: int
    decision: Optional[DecisionReport] = None
    #: Per-query verdicts when the session ran a fused
    #: :class:`~repro.query.plan.PlanMonitor` (None otherwise).
    query_verdicts: Optional[Dict[str, StreamVerdict]] = None


class _Session:
    """An object-backed session (not a session-table row)."""

    __slots__ = ("name", "monitor", "last_event_time", "drops")
    _r = None

    def __init__(self, name: str, monitor: Any):
        self.name = name
        self.monitor = monitor
        self.last_event_time: Optional[int] = None
        self.drops = 0


def _column(c: int, conv: Optional[Callable[[int], Any]] = None) -> Any:
    def get(self: "_RowView") -> Any:
        v = self._vals
        x = v[c] if v is not None else int(self._tab.T[self._r, c])
        return x if conv is None else conv(x)

    return property(get)


def _opt(x: int) -> Optional[int]:
    return None if x < 0 else x


class _RowView:
    """Mixin: a monitor whose state is one row of a :class:`_Table`.

    Combined with :class:`TBAMonitor` or
    :class:`~repro.query.plan.PlanMonitor` (:func:`_row_view`), it
    serves their read API from the row, the shared language artifacts
    and knobs from the table — and is also the mux's session record.  A
    session that leaves the mux keeps the row's last values.  Rows never
    buffer, so the reorder machinery reads empty.  Views are read-only:
    events go through the mux.
    """

    lateness = 0
    drops = 0
    _heap: Tuple[Any, ...] = ()
    _configs = _cmask = _ch_sets = None

    def __init__(self, table: "_Table", r: int):  # state lives in the table
        self._tab = table
        self._r = r
        self._vals: Optional[List[int]] = None

    _ci = _column(ST)
    prev_t = _column(PT)
    max_seen = last_event_time = _column(MS, _opt)
    _last_accept_time = _column(LAT, _opt)
    accept_visits = _column(VIS)
    _green_locked = _column(GL, bool)
    verdict = _column(VC, VERDICTS.__getitem__)
    verdict_flips = _column(FL)
    events_ingested = events_released = _seq = _column(NEV)
    late_events = _column(LATE)
    _ch_lat = property(lambda self: self._pack()[NF : NF + self._tab.n_ch])
    _ch_visits = property(lambda self: self._pack()[NF + self._tab.n_ch :])
    monitor = property(lambda self: self)
    tba = property(lambda self: self._tab.tba)
    analysis = property(lambda self: self._tab.comp.analysis)
    _compiled = property(lambda self: self._tab.comp)
    f_window = property(lambda self: self._tab.fw)
    late_policy = property(lambda self: self._tab.late_policy)
    plan = property(lambda self: self._tab.plan)
    _ch_names = property(lambda self: self._tab.plan and self._tab.plan.names)
    _ch_flags = property(lambda self: self._tab.flags)

    def _pack(self) -> List[int]:
        v = self._vals
        return list(v) if v is not None else self._tab.T[self._r].tolist()


@lru_cache(maxsize=None)
def _row_view(base: type) -> type:
    """The row-view class over a monitor class, made once."""
    return type(base.__name__, (_RowView, base), {})


def _shifted(x: Any, starts: Any, head: Any) -> Any:
    """Row-grouped events: each event's predecessor in its row, ``head``
    (one per row) for the first."""
    out = x.copy()
    out[1:] = x[:-1]
    out[starts] = head
    return out


class _Table:
    """The wave kernel's struct-of-arrays session table.

    One int64 row per session in the packed-row layout of
    :mod:`repro.stream.monitor`, over one deterministic
    :class:`~repro.stream.compiled.CompiledTBA`; rows of departed
    sessions are reused.  Under a plan each row carries the per-channel
    last-accept times and accept visits: time never decreases within a
    session, so a channel's latest visit to any of its accepting states
    is all a channel verdict needs (no sessions × configs array).
    """

    def __init__(
        self, comp: Any, tba: Any, plan: Any, f_window: Optional[int], late_policy: str
    ):
        if late_policy not in ("raise", "drop"):
            raise ValueError(
                f"late_policy must be 'raise' or 'drop', got {late_policy!r}"
            )
        self.np = _compiled.NUMPY
        self.comp, self.tba, self.plan = comp, tba, plan
        self.fw, self.late_policy = f_window, late_policy
        self.n_ch = len(plan.names) if plan is not None else 0
        self.used = 0
        self.free: List[int] = []
        self.view: Any = None  # bound at the first open, like a first monitor

    def _bind(self) -> None:
        """The row-view class and the initial row; under a plan, also the
        channel views (the plan caches them — one build per plan)."""
        comp, plan, k = self.comp, self.plan, self.n_ch
        self._grow(self.np.zeros((64, NF + 2 * k), dtype=self.np.int64))
        self.view = _row_view(TBAMonitor)
        self.flags = self.chan = None
        if plan is not None:
            from ..query.plan import PlanMonitor

            self.view = _row_view(PlanMonitor)
            self.flags, self.chan = plan.channel_views(comp)
            #: (state, channel) accepting flags for the channel books.
            self.ch_acc = self.np.array([a for a, _lv, _gr in self.flags]).T.copy()
        i = comp.initial_index
        live, green = comp.live_list[i], comp.green_list[i]
        code, locked = judge(live, green, False, -1, 0, self.fw)
        flips = int(code != INC)
        self.init = [i, 0, -1, -1, 0, locked, code, flips, 0, 0] + [-1] * k + [0] * k

    def open(self, count: int) -> List[Any]:
        """Fresh rows (free ones first), as monitor views; counted like
        monitor constructors' initial judgements."""
        if self.view is None:
            self._bind()
        free = self.free
        rs = [free.pop() for _ in range(min(count, len(free)))]
        lo = self.used
        self.used += count - len(rs)
        rs.extend(range(lo, self.used))
        while self.used > len(self.T):
            self._grow(self.np.concatenate([self.T, self.np.zeros_like(self.T)]))
        self.T[rs] = self.init
        code = self.init[VC]
        h = _obs.HOOKS
        if h is not None and code != INC and count:
            h.count("stream.verdict_flips", count, to=VERDICTS[code].value)
        return [self.view(self, r) for r in rs]

    def _grow(self, T: Any) -> None:
        self.T = T
        self.V = T.view(self.np.dtype((self.np.void, T.shape[1] * 8))).ravel()

    def release(self, view: Any) -> None:
        """Free a row; the view keeps the row's last values."""
        view._vals = self.T[view._r].tolist()
        self.free.append(view._r)

    def ingest(self, r: int, symbol: Any, t: int) -> StreamVerdict:
        """One event into one row: ``_BaseMonitor.ingest`` at lateness 0."""
        if t < 0:
            raise ValueError(f"negative timestamp {t}")
        h = _obs.HOOKS
        v = self.T[r].tolist()
        if t < v[MS]:
            self.T[r, LATE] += 1
            if h is not None:
                h.count("stream.events_ingested", outcome="late")
            if self.late_policy == "raise":
                msg = f"event at t={t} is older than the watermark {v[MS]} (lateness=0)"
                raise LateEventError(msg)
            return VERDICTS[v[VC]]
        scan(self.comp, v, ((symbol, t),), self.fw, self.chan)
        self.T[r] = v
        if h is not None:
            h.count("stream.events_ingested", outcome="ok")
            h.observe("stream.watermark_lag", 0)
            h.count("stream.events_released")
        return VERDICTS[v[VC]]

    def step(
        self, rows: Any, symbols: Tuple[Any, ...], times: Tuple[int, ...]
    ) -> Tuple[int, List[int]]:
        """The wave kernel: advance one chunk of events.

        ``rows[i]`` (an int64 array) is event ``i``'s row (-1: an
        object-backed session).
        Returns how many events were advanced here and the positions of
        the rest — every event of a slice with a late, out-of-order or
        negative timestamp, and of object-backed sessions — which the
        scalar path owns.
        """
        np = self.np
        o = rows.argsort(kind="stable")
        R = rows[o]
        t = np.fromiter(times, np.int64, len(times))[o]
        first, starts = self._groups(R)
        blk = self.T.take(R[starts], 0)
        bad = (t < _shifted(t, starts, blk[:, MS])) | (t < 0) | (R < 0)
        handoff: List[int] = []
        if np.count_nonzero(bad):
            keep = ~np.maximum.reduceat(bad, starts)[np.add.accumulate(first) - 1]
            handoff = np.sort(o[~keep]).tolist()
            o, R, t = o[keep], R[keep], t[keep]
            first, starts = self._groups(R)
            blk = self.T.take(R[starts], 0)
        n = len(R)
        if not n:
            return 0, handoff
        h = _obs.HOOKS
        if n >= 8 * len(starts):
            # A few deep sessions: per-row scans beat thin waves.
            ol = o.tolist()
            bounds = starts.tolist() + [n]
            T = self.T
            for r, a, b in zip(R[starts].tolist(), bounds, bounds[1:]):
                v = T[r].tolist()
                events = [(symbols[i], times[i]) for i in ol[a:b]]
                scan(self.comp, v, events, self.fw, self.chan)
                T[r] = v
            path, stepped = "bulk", n
        else:
            column = self.comp.sym_index.__getitem__
            S = np.fromiter(map(column, symbols), np.int64, len(symbols))
            stepped, flips = self._waves(R[starts], blk, first, starts, S[o], t)
            path = "wave"
            if h is not None:
                for code, m in enumerate(np.bincount(flips, minlength=3).tolist()):
                    if m:
                        h.count("stream.verdict_flips", m, to=VERDICTS[code].value)
        if h is not None:
            h.count("stream.events_ingested", n, outcome="ok")
            h.count("stream.events_released", n)
            if stepped:
                h.count("stream.compiled_steps", stepped, path=path)
        return n, handoff

    def _groups(self, R: Any) -> Tuple[Any, Any]:
        """Row-sorted events: which begin their row's group, and where."""
        first = self.np.empty(len(R), dtype=bool)
        first[:1] = True
        self.np.not_equal(R[1:], R[:-1], out=first[1:])
        return first, first.nonzero()[0]

    def _waves(
        self, rows: Any, blk: Any, first: Any, starts: Any, S: Any, t: Any
    ) -> Tuple[int, Any]:
        """Step on-time events grouped by row: ``rows[j]``'s events, in
        order, start at ``starts[j]`` (``first`` marks them); ``blk``
        holds those rows.

        Wave ``k`` — the ``k``-th event of every row — is one table
        gather; only the state is sequential.  Everything else is one
        pass of segmented array ops over the chunk: the rule
        (:func:`~repro.stream.monitor.judge_many`) per event, then per
        row the counters, the channel books and the write-back.
        Rejection absorbs as on the scalar path: events after it still
        count, the state and previous timestamp freeze.  Returns the
        number of events stepped and the codes of the verdict flips.
        """
        np = self.np
        comp = self.comp
        n = len(t)
        idx = np.arange(n)
        at = idx + 1  # positions from 1, so 0 can mean "none"
        g = np.add.accumulate(first, dtype=np.intp) - 1  # each event's row
        start = starts[g]
        E = blk.take(g, 0)  # each event's row as the chunk found it
        gap = np.minimum(t - _shifted(t, starts, blk[:, PT]), comp.gap_cap)
        ns = comp.table[E[:, ST], S, gap]  # wave 0: each row's first event
        waves = []  # later waves: each event's position (its row's previous is p - 1)
        if len(starts) < n:
            rank = idx - start
            w = rank.argsort(kind="stable")
            a = len(starts)
            for c in np.bincount(rank).tolist()[1:]:
                p = w[a : a + c]
                ns[p] = comp.table[ns[p - 1], S[p], gap[p]]
                waves.append(p)
                a += c
        # Dead states only step to dead states, so an event applies iff
        # the row was alive before it (REJECTED rows hold a dead state).
        alive = comp.live_flags[ns]
        was = _shifted(alive, starts, blk[:, VC] != REJ)
        green = comp.green_flags[ns]
        hit = comp.accepting_flags[ns] & was
        # Latest accept / green so far in the row (-1: none this chunk).
        last = np.maximum.accumulate(at * hit) - 1
        lat = np.where(last >= start, t[last], E[:, LAT])
        locked = np.maximum.accumulate(at * green) > start
        locked |= E[:, GL] != 0
        code, locked = judge_many(np, alive, green, locked, lat, t, self.fw)
        flip = code != _shifted(code, starts, blk[:, VC])
        # Per-row sums — applied events, accept visits, flips, channel
        # visits — and latest channel accepts (+1; 0: none), folded in
        # wave by wave.
        k = self.n_ch
        X = np.empty((n, 3 + k), dtype=np.int64)
        X[:, 0], X[:, 1], X[:, 2] = was, hit, flip
        if k:
            X[:, 3:] = self.ch_acc.take(ns, 0) & was[:, None]
            seen = (t[:, None] + 1) * X[:, 3:]
            latest = seen[starts]
        sums = X[starts]
        for p in waves:
            r = g[p]
            sums[r] += X[p]
            if k:
                latest[r] = np.maximum(latest[r], seen[p])
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:] - 1
        ends[-1] = n - 1
        # Applied events are a prefix of each row's: state and previous
        # timestamp freeze at the last of them.
        done = starts + sums[:, 0] - 1
        moved = sums[:, 0] > 0
        blk[:, ST] = np.where(moved, ns[done], blk[:, ST])
        blk[:, PT] = np.where(moved, t[done], blk[:, PT])
        blk[:, MS], blk[:, LAT] = t[ends], lat[ends]
        blk[:, GL], blk[:, VC] = locked[ends], code[ends]
        blk[:, VIS] += sums[:, 1]
        blk[:, FL] += sums[:, 2]
        blk[:, NEV] += ends - starts + 1
        if k:
            np.maximum(blk[:, NF : NF + k], latest - 1, out=blk[:, NF : NF + k])
            blk[:, NF + k :] += sums[:, 3:]
        # One record per row: a void view scatters rows whole, several
        # times cheaper than 2-D fancy assignment.
        self.V[rows] = blk.view(self.V.dtype).ravel()
        return np.count_nonzero(was), code[flip]


class SessionMux:
    """Route named event streams into per-session online monitors.

    ``acceptor`` is the shared language artifact: a
    :class:`~repro.automata.timed.TimedBuchiAutomaton` (sessions get
    :class:`TBAMonitor`\\ s over one cached analysis) or any
    machine-protocol acceptor (sessions get :class:`Monitor`\\ s around
    the shared program).  ``monitor_factory`` overrides the choice —
    any zero-argument callable returning a monitor.  ``query`` (text or
    a ``Q`` builder query; ``alphabet`` optionally widens its symbol
    set) compiles to a TBA and proceeds like an automaton acceptor;
    ``plan`` shares one :class:`~repro.query.plan.QueryPlan` product —
    every session is judged like a :class:`~repro.query.plan.PlanMonitor`
    over the plan's single analysis/compiled artifacts, and session
    reports carry per-query verdicts.  On the compiled deterministic
    path with ``lateness=0`` sessions are rows of one session table
    (see the module docstring); otherwise each gets its own monitor.
    """

    def __init__(
        self,
        acceptor: Any = None,
        *,
        monitor_factory: Optional[Callable[[], Any]] = None,
        query: Any = None,
        plan: Any = None,
        alphabet: Optional[Any] = None,
        lateness: int = 0,
        late_policy: str = "drop",
        f_window: Optional[int] = None,
        buffer_limit: int = 64,
        drop_policy: str = "drop-new",
        max_sessions: Optional[int] = None,
        idle_ttl: Optional[int] = None,
        max_eviction_reports: Optional[int] = None,
        compiled: Optional[bool] = None,
    ):
        given = sum(
            x is not None for x in (acceptor, monitor_factory, query, plan)
        )
        if given != 1:
            raise ValueError(
                "pass exactly one of acceptor / monitor_factory / query / plan"
            )
        if query is not None:
            # Queries are pure front-end: lower to a TBA here and share
            # its artifacts exactly like an automaton acceptor.
            from ..query import as_query

            acceptor = as_query(query).tba(alphabet)
        elif alphabet is not None:
            raise ValueError("alphabet= only applies to query= muxes")
        if max_eviction_reports is not None and max_eviction_reports < 1:
            raise ValueError(
                f"max_eviction_reports must be >= 1, got {max_eviction_reports}"
            )
        if buffer_limit < 1:
            raise ValueError(f"buffer_limit must be >= 1, got {buffer_limit}")
        if drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"drop_policy must be one of {DROP_POLICIES}, got {drop_policy!r}"
            )
        self.acceptor = acceptor
        self.plan = plan
        self.buffer_limit = buffer_limit
        self.drop_policy = drop_policy
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.max_eviction_reports = max_eviction_reports
        self.drops = 0
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_evicted = 0
        self.eviction_reports_dropped = 0
        #: Per-victim summaries from :meth:`evict_idle` (an evicted
        #: in-flight session must surface as UNDECIDED with evidence,
        #: never vanish silently); drain with :meth:`drain_evictions`.
        #: Bounded by ``max_eviction_reports`` (drop-oldest).
        self.eviction_reports: List[SessionReport] = []
        #: Every session by name: a :class:`_Session`, or a session-table
        #: row view (which is its own record and monitor).
        self._sessions: Dict[str, Any] = {}
        #: Row index of every session-table session.
        self._rowof: Dict[str, int] = {}
        #: Monitor knobs shared with per-session query overrides
        #: (``open(name, query=...)``).
        self._monitor_kw = dict(
            lateness=lateness,
            late_policy=late_policy,
            f_window=f_window,
            compiled=compiled,
        )
        #: The shared compiled artifact for batch stepping (None when
        #: the language is not a TBA, compilation is off, or the
        #: automaton fell back to the interpreter).
        self._tba_compiled = None
        if monitor_factory is not None:
            self._factory = monitor_factory
        elif plan is not None:
            # One fused product per plan: the plan already owns the
            # shared analysis and compiled table; every session's
            # PlanMonitor wraps those same objects.
            if compiled is not False:
                self._tba_compiled = plan.compiled
            self._factory = lambda: plan.monitor(
                lateness=lateness,
                late_policy=late_policy,
                f_window=f_window,
                compiled=compiled,
            )
        elif isinstance(acceptor, TimedBuchiAutomaton):
            # Both per-language artifacts are built exactly once here
            # and shared by every session (and by checkpoint restores).
            analysis = analysis_for(acceptor)
            if compiled is not False:
                self._tba_compiled = compiled_for(analysis)
            self._factory = lambda: TBAMonitor(
                acceptor,
                analysis=analysis,
                lateness=lateness,
                late_policy=late_policy,
                f_window=f_window,
                compiled=compiled,
            )
        else:
            self._factory = lambda: Monitor(
                acceptor,
                lateness=lateness,
                late_policy=late_policy,
                f_window=f_window,
            )
        comp = self._tba_compiled
        self._rows: Optional[_Table] = None
        if comp is not None and comp.deterministic and lateness == 0:
            self._rows = _Table(
                comp, plan.tba if plan is not None else acceptor, plan,
                f_window, late_policy,
            )

    # -- session table -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    @property
    def active(self) -> List[str]:
        return list(self._sessions)

    def monitor(self, name: str) -> Any:
        """The named session's monitor (KeyError if unknown)."""
        return self._sessions[name].monitor

    def open(self, name: str, query: Any = None) -> Any:
        """Create a session explicitly; returns its monitor.

        ``query`` (text or a ``Q`` builder query) pins a session-private
        query monitor — the session inherits the mux's lateness /
        ``f_window`` / compiled knobs but watches its own language.  Its
        compiled artifact differs from the shared one, so batch
        ingestion automatically routes its events down the scalar path.
        """
        if name in self._sessions:
            raise ValueError(f"session {name!r} already open")
        self._open([name], query)
        return self._sessions[name].monitor

    def _open(self, names: List[str], query: Any = None) -> None:
        """Open new sessions in order, up to ``max_sessions``."""
        cap = self.max_sessions
        room = len(names) if cap is None else max(cap - len(self._sessions), 0)
        opening = names[:room]
        if query is None and self._rows is not None:
            sessions = self._rows.open(len(opening))
        elif query is None:
            sessions = [_Session(name, self._factory()) for name in opening]
        else:
            from ..query import query_monitor

            sessions = [
                _Session(name, query_monitor(query, **self._monitor_kw))
                for name in opening
            ]
        for name, session in zip(opening, sessions):
            self._add(name, session)
        self.sessions_opened += len(opening)
        h = _obs.HOOKS
        if h is not None and opening:
            h.count("stream.sessions", len(opening), op="opened")
            h.gauge("stream.sessions_active", len(self._sessions))
        if len(opening) < len(names):
            raise BackpressureError(
                f"session table full ({cap}); close or evict first"
            )

    def _add(self, name: str, session: Any) -> None:
        self._sessions[name] = session
        if session._r is not None:
            self._rowof[name] = session._r

    def _drop(self, name: str) -> Any:
        """Remove a session (KeyError if unknown); returns its record."""
        session = self._sessions.pop(name)
        if session._r is not None:
            del self._rowof[name]
            self._rows.release(session)  # type: ignore[union-attr]
        return session

    # -- ingestion ---------------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event into the named session (opened on demand)."""
        session = self._sessions.get(name)
        if session is None:
            self.open(name)
            session = self._sessions[name]
        if session._r is not None:
            return self._rows.ingest(session._r, symbol, t)  # type: ignore[union-attr]
        monitor = session.monitor
        if monitor.pending >= self.buffer_limit:
            if self.drop_policy == "reject":
                raise BackpressureError(
                    f"session {name!r} buffer full ({self.buffer_limit})"
                )
            h = _obs.HOOKS
            if h is not None:
                h.count("stream.drops", policy=self.drop_policy)
            self.drops += 1
            session.drops += 1
            if self.drop_policy == "drop-new":
                return monitor.verdict
            monitor.release_oldest()
        verdict = monitor.ingest(symbol, t)  # may reject t: stamp after
        if session.last_event_time is None or t > session.last_event_time:
            session.last_event_time = t
        return verdict

    def ingest_batch(self, events) -> int:
        """Feed many ``(name, symbol, t)`` events; session-table rows
        advance through the wave kernel (:meth:`_Table.step`).

        Sessions are independent, so only each session's own event
        order carries meaning and is preserved.  New sessions open in
        order of first appearance.  Events the kernel cannot take — a
        session's whole slice when one of its timestamps is late,
        out of order or negative, and every event of an object-backed
        session — replay through :meth:`ingest`, session by session in
        order of first appearance, so every policy decision stays on
        the scalar path.  Verdicts and counters are identical either
        way (pinned by ``tests/test_stream_compiled.py``).

        Returns the number of events advanced through the kernel (the
        rest went through :meth:`ingest`).
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if not events:
            return 0
        names, symbols, times = zip(*events)
        advanced, scalar = 0, range(len(events))
        tab = self._rows
        if tab is not None:
            rowof, np = self._rowof, tab.np
            rows = np.fromiter(map(rowof.get, names, repeat(-1)), np.int64, len(names))
            miss = (rows < 0).nonzero()[0].tolist()
            if miss:
                new = dict.fromkeys([names[i] for i in miss])
                self._open([n for n in new if n not in self._sessions])
                rows[miss] = [rowof.get(names[i], -1) for i in miss]
            advanced, scalar = tab.step(rows, symbols, times)
        groups: Dict[str, List[int]] = {}
        for i in scalar:
            groups.setdefault(names[i], []).append(i)
        for name, idx in groups.items():
            for i in idx:
                self.ingest(name, symbols[i], times[i])
        return advanced

    def verdicts(self) -> Dict[str, StreamVerdict]:
        """Current verdict-so-far of every open session."""
        rowof = self._rowof
        if rowof and len(rowof) == len(self._sessions):
            codes = self._rows.T[list(rowof.values()), VC].tolist()
            return dict(zip(rowof, map(VERDICTS.__getitem__, codes)))
        return {name: s.monitor.verdict for name, s in self._sessions.items()}

    # -- lifecycle ---------------------------------------------------------
    def close(self, name: str, horizon: Optional[int] = None) -> SessionReport:
        """Flush and retire a session, returning its summary.

        With ``horizon`` given and a machine-backed monitor, the
        session is finished through :meth:`Monitor.finish` and the
        batch-equivalent :class:`~repro.engine.verdict.DecisionReport`
        rides along in ``decision``.
        """
        session = self._drop(name)
        monitor = session.monitor
        decision: Optional[DecisionReport] = None
        if horizon is not None and hasattr(monitor, "finish"):
            decision = monitor.finish(horizon)
        else:
            monitor.flush()
        self.sessions_closed += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.sessions", op="closed")
            h.gauge("stream.sessions_active", len(self._sessions))
        return self._report(name, session, decision)

    def _report(
        self, name: str, session: Any, decision: Optional[DecisionReport]
    ) -> SessionReport:
        """A departed session's summary (a row's from its last values)."""
        m = session.monitor
        if session._r is None:
            verdict, ingested, late = m.verdict, m.events_ingested, m.late_events
            released, flips = m.events_released, m.verdict_flips
        else:
            v = session._vals
            verdict, ingested, late = VERDICTS[v[VC]], v[NEV], v[LATE]
            released, flips = v[NEV], v[FL]
        return SessionReport(
            name, verdict, ingested, released, late, session.drops, flips,
            decision=decision,
            query_verdicts=m.query_verdicts() if hasattr(m, "query_verdicts") else None,
        )

    def evict_idle(
        self, now: Optional[int] = None, idle_ttl: Optional[int] = None
    ) -> List[str]:
        """Retire sessions idle for more than ``idle_ttl`` event-time
        chronons; returns the evicted names.

        Eviction is not a verdict: a session cut off mid-stream has
        seen only a prefix of its word, so unless its monitor had
        already absorbed (REJECTED, or green-locked ACCEPTING — states
        no further event can change), the summary filed in
        :attr:`eviction_reports` carries ``Verdict.UNDECIDED`` with the
        eviction circumstances in ``decision.evidence`` (reason, the
        monitor's verdict-so-far, buffered-event count, last event
        time).  Buffered out-of-order events are *not* flushed first —
        flushing would fabricate observations the watermark never
        released.
        """
        ttl = idle_ttl if idle_ttl is not None else self.idle_ttl
        if ttl is None:
            raise ValueError("no idle_ttl configured or passed")
        if now is None:
            stamps = [
                s.last_event_time
                for s in self._sessions.values()
                if s.last_event_time is not None
            ]
            if not stamps:
                return []
            now = max(stamps)
        victims = [
            name
            for name, s in self._sessions.items()
            if s.last_event_time is None or now - s.last_event_time > ttl
        ]
        h = _obs.HOOKS
        for name in victims:
            session = self._drop(name)
            monitor = session.monitor
            so_far = monitor.verdict
            final = (
                so_far.as_verdict()
                if getattr(monitor, "absorbed", False)
                else Verdict.UNDECIDED
            )
            decision = DecisionReport(
                verdict=final,
                f_count=getattr(monitor, "accept_visits", 0),
                decided_at=session.last_event_time,
                evidence={
                    "evicted": "idle",
                    "stream_verdict": so_far.value,
                    "pending": monitor.pending,
                    "last_event_time": session.last_event_time,
                    "now": now,
                },
                strategy="evicted",
            )
            self.eviction_reports.append(self._report(name, session, decision))
            cap = self.max_eviction_reports
            if cap is not None and len(self.eviction_reports) > cap:
                # Drop-oldest: the backlog is a courtesy to callers who
                # drain it; an undrained mux must not grow without
                # bound (the same discipline as every other buffer
                # here).
                excess = len(self.eviction_reports) - cap
                del self.eviction_reports[:excess]
                self.eviction_reports_dropped += excess
                if h is not None:
                    h.count("stream.eviction_reports_dropped", excess)
            self.sessions_evicted += 1
            if h is not None:
                h.count("stream.sessions", op="evicted")
        if victims and h is not None:
            h.gauge("stream.sessions_active", len(self._sessions))
        return victims

    def drain_evictions(self) -> List[SessionReport]:
        """Hand over (and clear) the accumulated eviction summaries."""
        out = self.eviction_reports
        self.eviction_reports = []
        return out

    def stats(self) -> Dict[str, int]:
        """Aggregate counters (the bounded-memory demo's assertions)."""
        return {
            "active": len(self._sessions),
            "opened": self.sessions_opened,
            "closed": self.sessions_closed,
            "evicted": self.sessions_evicted,
            "eviction_reports_dropped": self.eviction_reports_dropped,
            "drops": self.drops,
            "pending_total": sum(
                s.monitor.pending for s in self._sessions.values()
            ),
        }
