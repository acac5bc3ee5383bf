"""Checkpoint/restore: sessions that survive a process restart.

A long-lived monitoring service must be able to drain, snapshot, and
resume without re-reading its streams from the beginning.  Monitor
state is tiny by construction, and this module turns it into plain
JSON-able dictionaries:

* :class:`~repro.stream.monitor.TBAMonitor` — a *direct* snapshot: the
  capped configuration set, previous timestamp, reorder buffer, and
  counters.  O(state), independent of how many events were ingested.
* :class:`~repro.stream.monitor.Monitor` — generator state is not
  serializable, so machine-backed monitors checkpoint by *replay*: the
  monitor must be built with ``keep_history=True``, the snapshot
  carries the released-event log, and restore re-applies it to a fresh
  machine.  O(events) but exact (the machine re-dispatches the same
  event sequence).
* :class:`~repro.query.plan.PlanMonitor` — the TBA snapshot plus each
  query channel's last-accept time and accept visits (kind ``"plan"``).
* :class:`~repro.stream.session.SessionMux` — per-session snapshots
  plus the mux counters.  Session-table rows snapshot through their
  row views; on restore each session is rebuilt as a monitor (over the
  receiving mux's own plan, or its own language when none is passed) and
  packed into a row of that mux's table when a row can hold it — a
  reorder buffer, other knobs or another stepping path keep it an
  object.

Symbols, TBA states, and clock values cross the serialization boundary
as ``repr`` strings inverted by :func:`ast.literal_eval`, so streams
must use literal-evaluable symbols (strings, numbers, tuples — every
encoding in this repo qualifies).

Observability: ``stream.checkpoints`` counted with ``op=save|restore``.
"""

from __future__ import annotations

import ast
import json
from typing import Any, Callable, Dict, List, Optional

from ..automata.timed import TimedBuchiAutomaton
from ..obs import hooks as _obs
from .monitor import Monitor, StreamVerdict, TBAAnalysis, TBAMonitor, analysis_for
from .session import SessionMux, _Session

__all__ = [
    "checkpoint",
    "restore",
    "checkpoint_mux",
    "restore_mux",
    "extract_sessions",
    "restore_sessions",
    "save_json",
    "load_json",
]

FORMAT_VERSION = 1


def _enc(value: Any) -> str:
    text = repr(value)
    try:
        roundtrip = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise ValueError(
            f"symbol {value!r} is not literal-evaluable; checkpointing "
            "requires plain-data stream symbols"
        ) from None
    if roundtrip != value:
        raise ValueError(f"symbol {value!r} does not survive repr round-trip")
    return text


def _dec(text: str) -> Any:
    return ast.literal_eval(text)


def _base_state(monitor: Any) -> Dict[str, Any]:
    return {
        "verdict": monitor.verdict.value,
        "max_seen": monitor.max_seen,
        "lateness": monitor.lateness,
        "late_policy": monitor.late_policy,
        "events_ingested": monitor.events_ingested,
        "events_released": monitor.events_released,
        "late_events": monitor.late_events,
        "verdict_flips": monitor.verdict_flips,
        "seq": monitor._seq,
        "buffer": [[t, seq, _enc(sym)] for t, seq, sym in sorted(monitor._heap)],
    }


def _restore_base(monitor: Any, state: Dict[str, Any]) -> None:
    monitor.verdict = StreamVerdict(state["verdict"])
    monitor.max_seen = state["max_seen"]
    monitor.events_ingested = state["events_ingested"]
    monitor.events_released = state["events_released"]
    monitor.late_events = state["late_events"]
    monitor.verdict_flips = state["verdict_flips"]
    monitor._seq = state["seq"]
    monitor._heap = [(t, seq, _dec(sym)) for t, seq, sym in state["buffer"]]


def checkpoint(monitor: Any) -> Dict[str, Any]:
    """Snapshot one monitor into a JSON-able dictionary."""
    h = _obs.HOOKS
    if h is not None:
        h.count("stream.checkpoints", op="save")
    if isinstance(monitor, TBAMonitor):
        state = dict(
            _base_state(monitor),
            configs=[
                [_enc(state), list(vals)]
                for state, vals in sorted(monitor.configs, key=repr)
            ],
            prev_t=monitor.prev_t,
            f_window=monitor.f_window,
            accept_visits=monitor.accept_visits,
            last_accept_time=monitor._last_accept_time,
            green_locked=monitor._green_locked,
        )
        names = getattr(monitor, "_ch_names", None)
        if names is not None:
            state["channels"] = {
                name: [None if lat < 0 else lat, visits]
                for name, lat, visits in zip(
                    names, monitor._ch_lat, monitor._ch_visits
                )
            }
        kind = "tba" if names is None else "plan"
        return {"version": FORMAT_VERSION, "kind": kind, "state": state}
    if isinstance(monitor, Monitor):
        if not monitor.keep_history:
            raise ValueError(
                "machine-backed monitors checkpoint by replay; build the "
                "Monitor with keep_history=True"
            )
        return {
            "version": FORMAT_VERSION,
            "kind": "machine",
            "state": dict(
                _base_state(monitor),
                history=[[_enc(sym), t] for sym, t in monitor.history],
                f_window=monitor.f_window,
            ),
        }
    raise TypeError(f"cannot checkpoint {type(monitor).__name__}")


def restore(
    snapshot: Dict[str, Any],
    *,
    tba: Optional[TimedBuchiAutomaton] = None,
    acceptor: Any = None,
    analysis: Optional[TBAAnalysis] = None,
    compiled: Optional[bool] = None,
) -> Any:
    """Rebuild a monitor from a :func:`checkpoint` snapshot.

    The language artifact is *not* serialized (it is code): pass the
    same ``tba`` for a ``"tba"`` snapshot, the same ``acceptor`` for a
    ``"machine"`` one, or the same :class:`~repro.query.plan.QueryPlan`
    as ``acceptor`` for a ``"plan"`` one.  ``compiled`` picks the
    stepping path of the rebuilt :class:`TBAMonitor` exactly like the
    constructor argument — snapshots are path-neutral, so a monitor
    checkpointed on the interpreted path may be restored onto the
    compiled one and vice versa (the spec conformance harness
    cross-checks this).
    """
    if snapshot.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {snapshot.get('version')!r}")
    h = _obs.HOOKS
    if h is not None:
        h.count("stream.checkpoints", op="restore")
    state = snapshot["state"]
    kind = snapshot["kind"]
    if kind in ("tba", "plan"):
        knobs = {k: state[k] for k in ("lateness", "late_policy", "f_window")}
        if kind == "plan":
            if acceptor is None:
                raise ValueError(
                    "restoring a 'plan' snapshot needs acceptor=<QueryPlan>"
                )
            monitor = acceptor.monitor(compiled=compiled, **knobs)
        elif tba is None:
            raise ValueError("restoring a 'tba' snapshot needs tba=...")
        else:
            monitor = TBAMonitor(tba, analysis=analysis, compiled=compiled, **knobs)
        monitor.configs = frozenset(
            (_dec(s), tuple(vals)) for s, vals in state["configs"]
        )
        monitor.prev_t = state["prev_t"]
        monitor.accept_visits = state["accept_visits"]
        monitor._last_accept_time = state["last_accept_time"]
        monitor._green_locked = state["green_locked"]
        if kind == "plan":
            books = [state["channels"][name] for name in monitor._ch_names]
            monitor._ch_lat = [-1 if lat is None else lat for lat, _n in books]
            monitor._ch_visits = [n for _lat, n in books]
        _restore_base(monitor, state)
        return monitor
    if kind == "machine":
        if acceptor is None:
            raise ValueError("restoring a 'machine' snapshot needs acceptor=...")
        monitor = Monitor(
            acceptor,
            lateness=state["lateness"],
            late_policy=state["late_policy"],
            f_window=state["f_window"],
            keep_history=True,
        )
        # Replay the released-event log through the machine, then pin
        # the ingestion counters back to the snapshot's values (replay
        # re-counts releases and flips).
        for sym, t in state["history"]:
            monitor._advance(_dec(sym), t)
        _restore_base(monitor, state)
        return monitor
    raise ValueError(f"unknown checkpoint kind {kind!r}")


def checkpoint_mux(mux: SessionMux) -> Dict[str, Any]:
    """Snapshot a whole mux (every session plus the mux counters)."""
    return {
        "version": FORMAT_VERSION,
        "kind": "mux",
        "counters": {
            "drops": mux.drops,
            "sessions_opened": mux.sessions_opened,
            "sessions_closed": mux.sessions_closed,
            "sessions_evicted": mux.sessions_evicted,
        },
        "sessions": {name: _entry(s) for name, s in mux._sessions.items()},
    }


def _entry(session: Any) -> Dict[str, Any]:
    return {
        "snapshot": checkpoint(session.monitor),
        "last_event_time": session.last_event_time,
        "drops": session.drops,
    }


def _attach(mux: SessionMux, name: str, entry: Dict[str, Any], **lang: Any) -> None:
    """Add one snapshotted session to ``mux``: restored, then packed into
    a table row when one can hold it (same compiled language and knobs,
    nothing buffered), else kept as the monitor object."""
    if name in mux:
        raise ValueError(f"session {name!r} already live on this mux")
    tab, own = mux._rows, mux.acceptor
    if mux.plan is not None:
        lang["acceptor"] = mux.plan
    elif lang["tba"] is None and lang["acceptor"] is None:
        lang["tba" if isinstance(own, TimedBuchiAutomaton) else "acceptor"] = own
    monitor = restore(entry["snapshot"], **lang)
    if (
        tab is not None
        and getattr(monitor, "_compiled", None) is tab.comp
        and (monitor.lateness, monitor.late_policy, monitor.f_window)
        == (0, tab.late_policy, tab.fw)
        and not monitor._heap
        and monitor.events_released == monitor._seq == monitor.events_ingested
        and (entry["drops"], entry["last_event_time"]) == (0, monitor.max_seen)
    ):
        (session,) = tab.open(1)
        tab.T[session._r] = monitor._pack()
    else:
        session = _Session(name, monitor)
        session.last_event_time = entry["last_event_time"]
        session.drops = entry["drops"]
    mux._add(name, session)


def restore_mux(
    snapshot: Dict[str, Any],
    mux: SessionMux,
    *,
    tba: Optional[TimedBuchiAutomaton] = None,
    acceptor: Any = None,
    compiled: Optional[bool] = None,
) -> SessionMux:
    """Repopulate a freshly-constructed mux from :func:`checkpoint_mux`.

    ``mux`` must be empty and configured like the one snapshotted (the
    configuration, like the acceptor, is code and is not serialized).
    With neither ``tba`` nor ``acceptor`` given, the mux's own language
    is bound (a TBA as ``tba``, anything else as ``acceptor``); a
    planned mux always rebinds its own plan.  Only a
    ``monitor_factory`` mux, which cannot name its language, needs one
    passed.
    """
    if len(mux):
        raise ValueError("restore_mux needs an empty mux")
    if snapshot.get("kind") != "mux":
        raise ValueError(f"not a mux snapshot: kind={snapshot.get('kind')!r}")
    counters = snapshot["counters"]
    mux.drops = counters["drops"]
    mux.sessions_opened = counters["sessions_opened"]
    mux.sessions_closed = counters["sessions_closed"]
    mux.sessions_evicted = counters["sessions_evicted"]
    restore_sessions(
        mux, snapshot["sessions"], tba=tba, acceptor=acceptor, compiled=compiled
    )
    return mux


def extract_sessions(mux: SessionMux, names) -> Dict[str, Dict[str, Any]]:
    """Snapshot-and-remove named sessions from a live mux (migration).

    Returns per-session entries shaped exactly like the values of
    ``checkpoint_mux(mux)["sessions"]``, so they can be re-homed into
    another mux with :func:`restore_sessions`.  Unknown names are
    skipped (a stale placement map must not wedge a rebalance).  The
    mux's lifetime counters are untouched: migration is *placement*
    churn, not session churn — the shard runtime counts it separately
    (``shard.placement_moves``).
    """
    entries: Dict[str, Dict[str, Any]] = {}
    for name in names:
        if name in mux:
            entries[name] = _entry(mux._sessions[name])
            mux._drop(name)
    h = _obs.HOOKS
    if entries and h is not None:
        h.gauge("stream.sessions_active", len(mux._sessions))
    return entries


def restore_sessions(
    mux: SessionMux,
    entries: Dict[str, Dict[str, Any]],
    *,
    tba: Optional[TimedBuchiAutomaton] = None,
    acceptor: Any = None,
    compiled: Optional[bool] = None,
) -> List[str]:
    """Re-home :func:`extract_sessions` entries into a live mux.

    The receiving mux may already hold sessions (unlike
    :func:`restore_mux`); a name collision raises rather than silently
    clobbering a live monitor.  Returns the restored names.
    """
    # One analysis per language, shared by every restored session —
    # without this, each restore() re-derives it from scratch (the
    # one-build-per-language invariant is pinned by
    # tests/test_stream_compiled.py).
    analysis = analysis_for(tba) if tba is not None else None
    for name, entry in entries.items():
        _attach(
            mux, name, entry, tba=tba, acceptor=acceptor,
            analysis=analysis, compiled=compiled,
        )
    h = _obs.HOOKS
    if entries and h is not None:
        h.gauge("stream.sessions_active", len(mux._sessions))
    return list(entries)


def save_json(path: str, snapshot: Dict[str, Any]) -> None:
    """Write a snapshot to disk as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)


def load_json(path: str) -> Dict[str, Any]:
    """Read a snapshot back from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
