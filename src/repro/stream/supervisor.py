"""Crash recovery for session muxes: one ledger, two hosts.

PR 3's checkpoints made mux state *serializable*; this module makes it
*survivable*.  A :class:`RecoveryLedger` holds, at all times, enough
durable state to rebuild a mux that was lost, and the rules for that
state:

* a **snapshot** — :func:`~repro.stream.checkpoint.checkpoint_mux`,
  taken every ``checkpoint_every`` events (``None``: on demand only).
  It carries each session's reorder buffer, so every event the mux
  has *accepted* — watermarked-and-applied or still buffered — is
  inside it;
* a **journal** — the ordered tail of events handed to the mux since
  that snapshot.  Replaying it through a restored mux is deterministic
  (same order ⇒ same drops, same late-event outcomes, same verdicts),
  which closes the gap between the snapshot and the crash;
* the **retirement books** — sessions closed or evicted since the
  snapshot.  Their journaled events and snapshot copies are dead:
  :meth:`~RecoveryLedger.live_journal` and
  :meth:`~RecoveryLedger.restorable` leave them out and credit the
  churn counters they carried, so recovery never brings a retired
  session back.  Dead events are dropped from the journal, in place,
  once it has doubled since the last drop (amortized O(1)).

The ledger moves no state itself; each host moves it its own way:

* :class:`MuxSupervisor` fronts a live mux in this process.
  ``crash()`` injects the failure (the live mux is gone — a dead host);
  ``recover()`` restores the snapshot into a fresh ``mux_factory`` mux
  and ingests the live journal event by event;
* the :class:`~repro.shard.router.ShardRouter` keeps one ledger per
  worker and ships the same state over the pipe, as ``OP_RESTORE`` and
  ``OP_EVENTS`` frames to a respawned worker.

The guarantee the fault suite pins: recovery loses **zero verdicts for
events the host accepted** — the recovered mux agrees with an
uninterrupted run, verdict for verdict and counter for counter.  With
the supervisor's journal disabled (``journal=False``) the guarantee
weakens to the checkpoint boundary: nothing already checkpointed (in
particular every watermarked event) is lost, and nothing wrong is ever
re-emitted, because replay starts from a consistent snapshot rather
than from guesswork.

Recovery itself is timed (the commit-protocol literature's point:
recovery must meet its own bounds): ``recover()`` runs under a
``stream.failover`` span and the wall-clock latency is returned, which
is what ``benchmarks/bench_resilience.py`` measures.

Observability: ``stream.failovers``, ``stream.supervisor_checkpoints``,
``stream.journal_depth`` (gauge), and the ``stream.failover`` span.
``snapshot_path`` additionally persists each checkpoint as JSON via
:func:`~repro.stream.checkpoint.save_json` for process-restart
durability.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import hooks as _obs
from .checkpoint import FORMAT_VERSION, checkpoint_mux, restore_mux, save_json
from .monitor import LateEventError, StreamVerdict
from .session import BackpressureError, SessionMux, SessionReport

__all__ = ["MuxSupervisor", "CrashedError", "RecoveryLedger"]

#: Journal length below which retired sessions' events are not dropped.
COMPACT_MIN = 4096

_CHURN = ("sessions_opened", "sessions_closed", "sessions_evicted")


class CrashedError(RuntimeError):
    """The supervised mux is down and auto-recovery is disabled."""


class RecoveryLedger:
    """Snapshot, journal since, and retired sessions of one mux.

    A host appends each event it hands the mux to :attr:`journal`
    itself (one ``list.append``, no call), adds to
    :attr:`events_since_checkpoint`, and checkpoints when :meth:`due`.
    The journal list is only ever changed in place, so a host may keep
    a reference to it.
    """

    def __init__(self, checkpoint_every: Optional[int]):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = checkpoint_every
        self.journal: List[Tuple[str, Any, int]] = []
        self.checkpointed(None)

    def checkpointed(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Start over from ``snapshot``: empty journal, empty books."""
        self.snapshot = snapshot
        self.journal.clear()
        self.events_since_checkpoint = 0
        #: Sessions closed or evicted since the snapshot, by the journal
        #: length then: their earlier events are dead.
        self.retired: Dict[str, int] = {}
        #: Of those, the ones whose snapshot copy is dead too.
        self.gone: set = set()
        #: Mux counters the dead events and snapshot copies carried.
        self.tally = dict.fromkeys(_CHURN, 0)
        self.compact_at = COMPACT_MIN

    def due(self) -> bool:
        """True when the cadence calls for a checkpoint."""
        every = self.checkpoint_every
        return every is not None and self.events_since_checkpoint >= every

    def retire(self, names: List[str], counter: str) -> None:
        """Book closed (``counter="sessions_closed"``) or evicted
        sessions; drop dead events once the journal has doubled since
        the last drop."""
        sessions = self.snapshot["sessions"] if self.snapshot else {}
        for name in names:
            self.retired[name] = len(self.journal)
            if name in sessions and name not in self.gone:
                self.gone.add(name)
            else:  # an incarnation opened since the snapshot
                self.tally["sessions_opened"] += 1
            self.tally[counter] += 1
        if len(self.journal) >= self.compact_at:
            self.journal[:] = self.live_journal()
            self.retired = {}
            self.compact_at = max(2 * len(self.journal), COMPACT_MIN)

    def live_journal(self) -> List[Tuple[str, Any, int]]:
        """The journal without the events of retired sessions."""
        dead = self.retired
        return [e for i, e in enumerate(self.journal) if dead.get(e[0], -1) <= i]

    def restorable(self) -> Optional[Dict[str, Any]]:
        """The snapshot to restore: without retired sessions' copies,
        counters as the uninterrupted mux has them (None: nothing to
        restore)."""
        snap, tally = self.snapshot, self.tally
        if snap is None and not any(tally.values()):
            return None
        if snap is None:
            counters = dict.fromkeys(("drops", *_CHURN), 0)
            snap = {"version": FORMAT_VERSION, "kind": "mux", "counters": counters}
            snap["sessions"] = {}
        counters = {k: v + tally.get(k, 0) for k, v in snap["counters"].items()}
        sessions = {n: e for n, e in snap["sessions"].items() if n not in self.gone}
        return dict(snap, counters=counters, sessions=sessions)


class MuxSupervisor(RecoveryLedger):
    """Checkpoint, crash, and restore a session mux with zero verdict loss.

    ``mux_factory`` builds an *empty* mux configured like the one being
    supervised (the acceptor and all policies are code, not data, so
    the factory — not the snapshot — carries them).  A restore rebinds
    the mux's own language; pass ``acceptor`` only for a
    ``monitor_factory`` mux, which cannot name its language
    (machine-backed monitors must be built with ``keep_history=True``
    to be checkpointable at all).  Close and evict sessions through
    :meth:`close_session` / :meth:`evict_idle`, so they stay retired
    through recovery.
    """

    def __init__(
        self,
        mux_factory: Callable[[], SessionMux],
        *,
        checkpoint_every: int = 64,
        journal: bool = True,
        auto_recover: bool = True,
        acceptor: Any = None,
        snapshot_path: Optional[str] = None,
    ):
        super().__init__(checkpoint_every)
        self._factory = mux_factory
        self.journal_enabled = journal
        self.auto_recover = auto_recover
        self.acceptor = acceptor
        self.snapshot_path = snapshot_path
        self.mux: Optional[SessionMux] = mux_factory()
        self.checkpoints_taken = 0
        self.failovers = 0
        self.last_recovery_s: Optional[float] = None

    # -- state ------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """True while the live mux is down (between crash and recover)."""
        return self.mux is None

    def _live(self) -> SessionMux:
        if self.mux is None:
            if not self.auto_recover:
                raise CrashedError(
                    "supervised mux is down; call recover() (or enable "
                    "auto_recover)"
                )
            self.recover()
        assert self.mux is not None
        return self.mux

    # -- ingestion --------------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event through the supervisor (journaled, then muxed).

        The event is journaled *before* it touches the mux, so a crash
        at any point loses nothing the caller handed over; replay
        re-applies the same outcome (including deterministic drops and
        late-event handling) on the recovered mux.
        """
        mux = self._live()
        if self.journal_enabled:
            self.journal.append((name, symbol, t))
        try:
            verdict = mux.ingest(name, symbol, t)
        finally:
            self.events_since_checkpoint += 1
            if self.due():
                self.checkpoint()
        return verdict

    # -- lifecycle --------------------------------------------------------
    def close_session(self, name: str, horizon: Optional[int] = None) -> SessionReport:
        """Close one session (see :meth:`SessionMux.close`); it stays
        closed through recovery."""
        report = self._live().close(name, horizon)
        self.retire([name], "sessions_closed")
        return report

    def evict_idle(
        self, now: Optional[int] = None, idle_ttl: Optional[int] = None
    ) -> List[str]:
        """Evict idle sessions (see :meth:`SessionMux.evict_idle`); they
        stay evicted through recovery."""
        victims = self._live().evict_idle(now, idle_ttl)
        self.retire(victims, "sessions_evicted")
        return victims

    # -- checkpointing ----------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the live mux now; truncates the journal."""
        self.checkpointed(checkpoint_mux(self._live()))
        self.checkpoints_taken += 1
        if self.snapshot_path is not None:
            save_json(self.snapshot_path, self.snapshot)
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.supervisor_checkpoints")
            h.gauge("stream.journal_depth", 0)
        return self.snapshot

    # -- failure and recovery ---------------------------------------------
    def crash(self) -> None:
        """Inject the fault: the live mux (its host) is gone."""
        self.mux = None

    def recover(self) -> float:
        """Rebuild the mux from the latest checkpoint (+ journal replay).

        Returns the wall-clock recovery latency in seconds.  Safe to
        call on a healthy supervisor (it re-materializes the durable
        state — useful for drills).
        """
        start = time.perf_counter()
        snapshot, events = self.restorable(), self.live_journal()

        def rebuild() -> None:
            fresh = self._factory()
            if snapshot is not None:
                restore_mux(snapshot, fresh, acceptor=self.acceptor)
            for name, symbol, t in events:
                try:
                    fresh.ingest(name, symbol, t)
                except (LateEventError, BackpressureError):
                    # the original ingest raised identically; the
                    # mutation (late/drop accounting) already happened
                    pass
            self.mux = fresh

        h = _obs.HOOKS
        if h is None:
            rebuild()
        else:
            with h.span(
                "stream.failover",
                sessions=len(snapshot["sessions"]) if snapshot else 0,
                journal=len(events),
            ):
                rebuild()
            h.count("stream.failovers")
            h.gauge("stream.journal_depth", len(self.journal))
        self.failovers += 1
        self.last_recovery_s = time.perf_counter() - start
        return self.last_recovery_s

    # -- passthrough ------------------------------------------------------
    def verdicts(self) -> Dict[str, StreamVerdict]:
        """Current verdict-so-far of every session on the live mux."""
        return self._live().verdicts()

    def stats(self) -> Dict[str, int]:
        """Mux counters plus the supervision ledger."""
        stats = dict(self._live().stats())
        stats.update(
            checkpoints=self.checkpoints_taken,
            failovers=self.failovers,
            journal_depth=len(self.journal),
            events_since_checkpoint=self.events_since_checkpoint,
        )
        return stats
