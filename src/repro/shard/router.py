"""The shard router: consistent-hash placement over persistent workers.

A :class:`ShardRouter` looks like a :class:`~repro.stream.session.SessionMux`
from the outside — ``ingest`` / ``ingest_batch`` / ``verdicts`` /
``close_session`` / ``evict_idle`` / ``stats`` — but fans the work out
over ``n_shards`` long-lived forked workers, each hosting its own warm
mux (see :mod:`repro.shard.worker`).  The pieces:

* **Placement** — session names map to shards through a
  :class:`~repro.shard.placement.HashRing`; the router keeps a
  ``{name: shard}`` table so a session never migrates implicitly.
* **Batched routing** — events buffer per shard and ship as framed
  chunks (:mod:`repro.shard.wire`) when ``batch_events`` accumulate or
  on :meth:`flush`; the worker ACKs each frame and the router caps
  un-ACKed frames at ``max_inflight`` (backpressure: a slow shard
  stalls its *own* senders instead of growing an unbounded pipe).
* **Durability** — each shard handle is a
  :class:`~repro.stream.supervisor.RecoveryLedger`, the same snapshot,
  journal and retirement books a
  :class:`~repro.stream.supervisor.MuxSupervisor` keeps, with the pipe
  as its transport: every event is journaled *at send*, a per-shard
  :meth:`checkpoint` (on demand, or every ``checkpoint_every`` flushed
  events) snapshots the worker's mux and truncates that journal, and
  sessions closed or evicted since stay retired.  A SIGKILLed shard
  (:meth:`crash`, or any detected death) comes back via :meth:`recover`
  — respawn, ``OP_RESTORE`` the ledger's restorable snapshot, then
  replay its live journal as ``OP_EVENTS`` frames through the normal
  flush path — or via :meth:`fail_over`, which re-places the dead
  shard's sessions on the survivors instead.
* **Elasticity** — :meth:`rebalance` grows or shrinks the pool,
  migrating exactly the sessions whose ring placement changed
  (consistent hashing moves ~K/N of them) through the live-session
  extract/adopt path of :mod:`repro.stream.checkpoint`.
* **Metrics** — :meth:`sync_metrics` pulls each worker's registry
  delta and merges it into the parent registry, so child-side
  ``stream.*`` / ``kernel.*`` counts survive the process boundary;
  the router's own ``shard.*`` series (placement churn, queue depth,
  batch sizes, recovery latency) is documented in
  ``docs/observability.md``.

Error surfacing: ingest errors raised *inside* a worker (e.g. the
``reject`` drop policy) come back on the ACK and are raised as
:class:`ShardError` at the next synchronization point (:meth:`sync`,
:meth:`verdicts`, :meth:`checkpoint`, ...), not at the ``ingest`` call
that buffered the event.  Deterministic recovery is guaranteed for
non-raising policies (the default ``drop-new``/``drop-old``), exactly
like the single-process supervisor.
"""

from __future__ import annotations

import os
import signal
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing as mp

from ..engine.batch import CACHE_SIZE
from ..obs import hooks as _obs
from ..stream.supervisor import RecoveryLedger
from .placement import DEFAULT_REPLICAS, HashRing
from .wire import (
    DEFAULT_CHUNK_EVENTS,
    OP_ACK,
    OP_ADOPT,
    OP_CHECKPOINT,
    OP_CLOSE,
    OP_ERR,
    OP_EVENTS,
    OP_EVICT,
    OP_EXTRACT,
    OP_INSTALL_LANG,
    OP_METRICS,
    OP_REPLY,
    OP_RESTORE,
    OP_SHUTDOWN,
    OP_STATS,
    OP_VERDICTS,
    iter_chunks,
    recv_frame,
    send_frame,
)
from .worker import worker_main

__all__ = ["ShardError", "ShardRouter"]


class ShardError(RuntimeError):
    """A shard died, rejected work, or answered out of protocol."""


class _Shard(RecoveryLedger):
    """Parent-side handle for one worker process, and its recovery
    ledger (which outlives the process: :meth:`ShardRouter.recover`
    binds a respawned worker to the same handle)."""

    def __init__(self, shard_id: str, checkpoint_every: Optional[int]):
        super().__init__(checkpoint_every)
        self.id = shard_id

    def attach(self, proc: Any, conn: Any) -> None:
        """Bind a freshly forked worker: its transport starts empty."""
        self.proc = proc
        self.conn = conn
        self.seq = 0
        self.inflight = 0            # un-ACKed OP_EVENTS frames
        self.buffer: List[Tuple[str, Any, int]] = []
        # language key -> acceptor installed in the worker, LRU order
        self.langs: "OrderedDict[int, Any]" = OrderedDict()
        self.alive = True
        self.errors: List[str] = []


class ShardRouter:
    """Mux-shaped front over a pool of persistent shard workers.

    Pass ``acceptor`` (plus optional ``mux_kwargs`` forwarded to each
    worker's :class:`~repro.stream.session.SessionMux`) for the stream
    path, or neither for a decide-only pool (the engine backends).
    """

    def __init__(
        self,
        acceptor: Any = None,
        *,
        mux_factory: Optional[Callable[[], Any]] = None,
        n_shards: int = 2,
        mux_kwargs: Optional[Dict[str, Any]] = None,
        replicas: int = DEFAULT_REPLICAS,
        batch_events: int = 256,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        max_inflight: int = 8,
        checkpoint_every: Optional[int] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if acceptor is not None and mux_factory is not None:
            raise ValueError("pass at most one of acceptor / mux_factory")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if mux_factory is None and acceptor is not None:
            from ..stream.session import SessionMux

            kwargs = dict(mux_kwargs or {})
            mux_factory = lambda: SessionMux(acceptor, **kwargs)  # noqa: E731
        elif mux_kwargs:
            raise ValueError("mux_kwargs needs acceptor=...")
        self._mux_factory = mux_factory
        self.batch_events = batch_events
        self.chunk_events = chunk_events
        self.max_inflight = max_inflight
        # checked by each shard's RecoveryLedger (None: on demand only)
        self.checkpoint_every = checkpoint_every
        # fork: workers inherit the acceptor/factory closures directly —
        # no pickling of language artifacts, ever.
        self._ctx = mp.get_context("fork")
        self._next_id = 0
        self._shards: Dict[str, _Shard] = {}
        self._ring = HashRing([], replicas=replicas)
        self._placement: Dict[str, str] = {}
        self._max_time: Optional[int] = None
        self._closed = False
        for _ in range(n_shards):
            self._add_shard()

    # -- lifecycle plumbing ------------------------------------------------
    def _add_shard(self) -> _Shard:
        shard_id = f"s{self._next_id}"
        self._next_id += 1
        shard = self._spawn(shard_id)
        self._ring.add(shard_id)
        return shard

    def _spawn(self, shard_id: str) -> _Shard:
        shard = _Shard(shard_id, self.checkpoint_every)
        self._start(shard)
        self._shards[shard_id] = shard
        return shard

    def _start(self, shard: _Shard) -> None:
        """Fork a worker for ``shard``."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, shard.id, self._mux_factory),
            daemon=True,
            name=f"repro-shard-{shard.id}",
        )
        proc.start()
        child_conn.close()
        shard.attach(proc, parent_conn)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shards)

    @property
    def session_count(self) -> int:
        """Sessions the router has placed (parent-side view)."""
        return len(self._placement)

    def place_of(self, name: str) -> str:
        """The shard that owns (or would own) ``name``."""
        return self._placement.get(name) or self._ring.place(name)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    # -- low-level frame traffic ------------------------------------------
    def _count(self, name: str, n: float = 1, **labels: Any) -> None:
        h = _obs.HOOKS
        if h is not None:
            h.count(name, n, **labels)

    def _dead(self, shard: _Shard, why: str) -> ShardError:
        shard.alive = False
        return ShardError(
            f"shard {shard.id!r} died ({why}); recover() or fail_over() it"
        )

    def _recv(self, shard: _Shard) -> Any:
        try:
            return recv_frame(shard.conn)
        except (EOFError, OSError) as exc:
            raise self._dead(shard, repr(exc)) from exc

    def _recv_ack(self, shard: _Shard) -> None:
        frame = self._recv(shard)
        if frame.op != OP_ACK:
            raise ShardError(
                f"shard {shard.id!r}: expected ACK, got opcode {frame.op}"
            )
        shard.inflight -= 1
        status, detail = frame.payload
        if status == "err":
            shard.errors.append(detail)

    def _drain_acks(self, shard: _Shard, down_to: int = 0) -> None:
        while shard.inflight > down_to:
            self._recv_ack(shard)

    def _request(self, shard: _Shard, op: int, payload: Any) -> Any:
        """Send one synchronous request and wait for its reply.

        ACKs for earlier event frames are absorbed along the way (the
        worker answers strictly in order, so the matching reply is the
        first non-ACK frame).
        """
        if not shard.alive:
            raise self._dead(shard, "marked dead")
        shard.seq += 1
        seq = shard.seq
        try:
            send_frame(shard.conn, op, seq, payload)
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(shard, repr(exc)) from exc
        while True:
            frame = self._recv(shard)
            if frame.op == OP_ACK:
                shard.inflight -= 1
                status, detail = frame.payload
                if status == "err":
                    shard.errors.append(detail)
                continue
            if frame.seq != seq:
                raise ShardError(
                    f"shard {shard.id!r}: reply seq {frame.seq} != {seq}"
                )
            if frame.op == OP_REPLY:
                return frame.payload
            if frame.op == OP_ERR:
                raise ShardError(f"shard {shard.id!r}: {frame.payload}")
            raise ShardError(f"shard {shard.id!r}: unexpected opcode {frame.op}")

    def _flush_shard(self, shard: _Shard) -> None:
        if not shard.buffer:
            return
        if not shard.alive:
            # Keep the events buffered: they are already journaled, and
            # recover()/fail_over() will replay them on a live worker.
            return
        events, shard.buffer = shard.buffer, []
        h = _obs.HOOKS
        for chunk in iter_chunks(events, self.chunk_events):
            self._drain_acks(shard, down_to=self.max_inflight - 1)
            shard.seq += 1
            try:
                send_frame(shard.conn, OP_EVENTS, shard.seq, chunk)
            except (BrokenPipeError, OSError) as exc:
                # Undelivered chunks stay recoverable via the journal.
                raise self._dead(shard, repr(exc)) from exc
            shard.inflight += 1
            if h is not None:
                h.observe("shard.batch_size", len(chunk))
        if h is not None:
            h.gauge("shard.queue_depth", shard.inflight, shard=shard.id)
        shard.events_since_checkpoint += len(events)
        if shard.due():
            self._checkpoint_shard(shard)

    def _raise_errors(self) -> None:
        errors: List[str] = []
        for shard in self._shards.values():
            if shard.errors:
                errors.extend(f"{shard.id}: {e}" for e in shard.errors)
                shard.errors = []
        if errors:
            raise ShardError("; ".join(errors))

    # -- ingestion ---------------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> None:
        """Route one event to its session's shard (buffered)."""
        shard_id = self._placement.get(name)
        if shard_id is None:
            shard_id = self._ring.place(name)
            self._placement[name] = shard_id
        shard = self._shards[shard_id]
        if self._max_time is None or t > self._max_time:
            self._max_time = t
        event = (name, symbol, t)
        shard.journal.append(event)
        shard.buffer.append(event)
        if len(shard.buffer) >= self.batch_events:
            self._flush_shard(shard)

    def ingest_batch(self, events) -> None:
        """Route many ``(name, symbol, t)`` events (order kept per name)."""
        for name, symbol, t in events:
            self.ingest(name, symbol, t)

    def flush(self) -> None:
        """Ship every buffered event (without waiting for ACKs)."""
        for shard in self._shards.values():
            self._flush_shard(shard)

    def sync(self) -> None:
        """Flush, wait until every live shard has ACKed everything, and
        raise any worker-side ingest errors collected since last sync."""
        for shard in self._shards.values():
            self._flush_shard(shard)
            if shard.alive:
                self._drain_acks(shard)
        self._raise_errors()

    # -- mux-shaped queries ------------------------------------------------
    def verdicts(self) -> Dict[str, Any]:
        """Current verdict-so-far of every session, across all shards."""
        self.sync()
        out: Dict[str, Any] = {}
        for shard in self._shards.values():
            out.update(self._request(shard, OP_VERDICTS, None))
        return out

    def stats(self) -> Dict[str, int]:
        """Aggregated mux counters across shards."""
        self.sync()
        total: Dict[str, int] = {}
        for shard in self._shards.values():
            for key, value in self._request(shard, OP_STATS, None).items():
                total[key] = total.get(key, 0) + value
        return total

    def close_session(self, name: str, horizon: Optional[int] = None) -> Any:
        """Close one session on its shard; returns its SessionReport."""
        shard_id = self._placement.get(name) or self._ring.place(name)
        shard = self._shards[shard_id]
        self._flush_shard(shard)
        self._drain_acks(shard)
        report = self._request(shard, OP_CLOSE, (name, horizon))
        shard.retire([name], "sessions_closed")
        self._placement.pop(name, None)
        return report

    def evict_idle(
        self, now: Optional[int] = None, idle_ttl: Optional[int] = None
    ) -> List[str]:
        """Run idle eviction on every shard; returns all evicted names.

        With ``now=None`` the *global* max routed timestamp is used, so
        a shard holding only stale sessions still evicts them (each
        worker alone would think its own newest event is "now").
        """
        self.sync()
        if now is None:
            now = self._max_time
        victims: List[str] = []
        for shard in self._shards.values():
            evicted = self._request(shard, OP_EVICT, (now, idle_ttl))
            shard.retire(evicted, "sessions_evicted")
            victims.extend(evicted)
        for name in victims:
            self._placement.pop(name, None)
        return victims

    # -- durability --------------------------------------------------------
    def _checkpoint_shard(self, shard: _Shard) -> None:
        self._drain_acks(shard)
        shard.checkpointed(self._request(shard, OP_CHECKPOINT, None))
        self._count("shard.checkpoints", shard=shard.id)

    def checkpoint(self, shard_id: Optional[str] = None) -> None:
        """Snapshot shard muxes and truncate their journals."""
        targets = (
            [self._shards[shard_id]]
            if shard_id is not None
            else list(self._shards.values())
        )
        for shard in targets:
            self._flush_shard(shard)
            self._checkpoint_shard(shard)

    def crash(self, shard_id: str) -> None:
        """SIGKILL one worker (fault injection; no goodbye, no flush)."""
        shard = self._shards[shard_id]
        if shard.proc.is_alive():
            os.kill(shard.proc.pid, signal.SIGKILL)
        shard.proc.join()
        shard.alive = False

    def _reap(self, shard: _Shard) -> None:
        if shard.proc.is_alive():
            shard.proc.terminate()
        shard.proc.join()
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover
            pass

    def recover(self, shard_id: str) -> float:
        """Respawn a dead shard and rebuild its state.

        Restore the last checkpoint into a fresh worker, then flush the
        journal (every event routed since that checkpoint) to it in
        original order, leaving out the sessions closed or evicted since
        — deterministic for non-raising drop policies, so the recovered
        shard's verdicts and mux counters match an uninterrupted run.
        Returns the recovery latency in seconds (also observed as
        ``shard.recovery_latency``).
        """
        shard = self._shards[shard_id]
        t0 = time.perf_counter()
        self._reap(shard)
        self._start(shard)
        snapshot = shard.restorable()
        if snapshot is not None:
            self._request(shard, OP_RESTORE, snapshot)
        shard.buffer = shard.live_journal()
        shard.events_since_checkpoint = 0
        self._flush_shard(shard)
        self._drain_acks(shard)
        latency = time.perf_counter() - t0
        h = _obs.HOOKS
        if h is not None:
            h.count("shard.recoveries", mode="respawn")
            h.observe("shard.recovery_latency", latency)
        return latency

    def fail_over(self, shard_id: str) -> List[str]:
        """Retire a dead shard by re-placing its sessions on survivors.

        The dead shard's checkpointed sessions are adopted by the shards
        the shrunken ring now maps them to, and its journal is replayed
        through normal routing (re-creating any session born after the
        checkpoint).  Returns the names that moved.
        """
        if len(self._shards) < 2:
            raise ShardError("cannot fail over the only shard")
        dead = self._shards.pop(shard_id)
        t0 = time.perf_counter()
        self._reap(dead)
        self._ring.remove(shard_id)
        # Re-place everything the parent believed lived on the dead shard.
        for name, sid in list(self._placement.items()):
            if sid == shard_id:
                self._placement[name] = self._ring.place(name)
        groups: Dict[str, Dict[str, Any]] = {}
        snapshot = dead.restorable()
        if snapshot is not None:
            for name, entry in snapshot["sessions"].items():
                groups.setdefault(self._ring.place(name), {})[name] = entry
        moved: List[str] = []
        for target_id, entries in sorted(groups.items()):
            target = self._shards[target_id]
            self._flush_shard(target)
            self._drain_acks(target)
            self._request(target, OP_ADOPT, entries)
            moved.extend(entries)
        # The journal re-routes through the new ring (and re-journals
        # on the adopting shards, keeping *their* recovery story whole).
        self.ingest_batch(dead.live_journal())
        self.sync()
        latency = time.perf_counter() - t0
        h = _obs.HOOKS
        if h is not None:
            h.count("shard.recoveries", mode="failover")
            h.observe("shard.recovery_latency", latency)
            h.count("shard.placement_moves", len(moved), cause="failover")
        return moved

    # -- elasticity --------------------------------------------------------
    def rebalance(self, n_shards: int) -> Dict[str, Any]:
        """Grow or shrink the pool to ``n_shards``, migrating only the
        sessions whose ring placement changed (~K/N of them).

        Live sessions move through the checkpoint extract/adopt path —
        monitor state intact, verdict history intact — and the affected
        shards are checkpointed afterwards so every journal matches its
        shard's new session set.  Returns a summary with the moved
        session names.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.sync()
        retiring: List[_Shard] = []
        while len(self._shards) < n_shards:
            self._add_shard()
        if len(self._shards) > n_shards:
            for shard_id in self.shard_ids[n_shards:]:
                shard = self._shards[shard_id]
                retiring.append(shard)
                self._ring.remove(shard_id)
        # Where does everything live now?
        moves: Dict[str, Dict[str, List[str]]] = {}
        for name, old_id in self._placement.items():
            new_id = self._ring.place(name)
            if new_id != old_id:
                moves.setdefault(old_id, {}).setdefault(new_id, []).append(name)
        moved: List[str] = []
        touched: set = set()
        for old_id, by_target in sorted(moves.items()):
            source = self._shards[old_id]
            for new_id, names in sorted(by_target.items()):
                entries = self._request(source, OP_EXTRACT, names)
                if entries:
                    target = self._shards[new_id]
                    self._request(target, OP_ADOPT, entries)
                    touched.add(new_id)
                for name in names:
                    self._placement[name] = new_id
                moved.extend(entries)
            touched.add(old_id)
        for shard in retiring:
            del self._shards[shard.id]
            touched.discard(shard.id)
            try:
                delta = self._request(shard, OP_SHUTDOWN, None)
            except ShardError:
                pass
            else:
                self._merge_delta_result(delta)
            self._reap(shard)
        # Re-checkpoint every shard that gained or lost sessions so its
        # journal/snapshot pair describes the new layout.
        for shard_id in sorted(touched):
            if shard_id in self._shards:
                self.checkpoint(shard_id)
        self._count("shard.placement_moves", len(moved), cause="rebalance")
        return {"n_shards": len(self._shards), "moved": moved}

    # -- decide-path support (used by repro.shard.pool) --------------------
    def install_language(self, shard: _Shard, key: int, kind: str, payload: Any) -> None:
        """Make ``key`` resident in the worker, at most ``CACHE_SIZE`` keys.

        The least recently used keys are evicted here and dropped by the
        worker in the same install frame, so the parent's table and the
        worker's always hold the same keys.  Holding the acceptor keeps
        its ``id`` key from being recycled while the worker serves it.
        """
        langs = shard.langs
        if key in langs:
            langs.move_to_end(key)
            return
        drop = []
        while len(langs) >= CACHE_SIZE:
            drop.append(langs.popitem(last=False)[0])
        self._request(shard, OP_INSTALL_LANG, (key, kind, payload, drop))
        langs[key] = payload

    def respawn(self, shard_id: str) -> _Shard:
        """Kill-and-replace a worker with no state carryover (decide pool)."""
        old = self._shards[shard_id]
        if old.proc.is_alive():
            os.kill(old.proc.pid, signal.SIGKILL)
        self._reap(old)
        self._count("shard.recoveries", mode="respawn")
        return self._spawn(shard_id)

    # -- metrics -----------------------------------------------------------
    def _merge_delta_result(self, delta: Any) -> None:
        h = _obs.HOOKS
        if h is not None and delta:
            h.registry.merge(delta)

    def sync_metrics(self) -> int:
        """Pull every worker's metric delta into the parent registry.

        Returns the number of metric entries merged.  Safe to call
        repeatedly: workers dump deltas, so nothing double-counts.
        """
        self.sync()
        merged = 0
        for shard in self._shards.values():
            delta = self._request(shard, OP_METRICS, None)
            self._merge_delta_result(delta)
            merged += len(delta)
        return merged

    def shutdown(self) -> None:
        """Flush, collect final metrics, and stop every worker."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards.values():
            if shard.alive:
                try:
                    self._flush_shard(shard)
                    self._drain_acks(shard)
                    delta = self._request(shard, OP_SHUTDOWN, None)
                    self._merge_delta_result(delta)
                except ShardError:
                    pass
            self._reap(shard)
        self._shards.clear()
        self._placement.clear()
