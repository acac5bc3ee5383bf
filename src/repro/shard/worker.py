"""The long-lived shard worker: one process, one warm mux, warm caches.

A worker is forked once by the :class:`~repro.shard.router.ShardRouter`
and then serves frames until told to shut down (or killed — that case
is the router's per-shard recovery path).  Everything expensive lives
*here*, warm, for the worker's whole life:

* the :class:`~repro.stream.session.SessionMux` with its shared
  :class:`~repro.stream.monitor.TBAAnalysis` and
  :class:`~repro.stream.compiled.CompiledTBA` (built once at worker
  start, reused by every session and every recovery restore);
* the engine's :class:`~repro.engine.batch.AcceptorCache` — a language
  installed via ``OP_INSTALL_LANG`` is compiled once and then serves
  every subsequent ``OP_DECIDE`` chunk without recompilation or
  re-pickling (the fork backend starts a fresh child per chunk on
  *every call*);
* the worker's own :class:`~repro.obs.Instrumentation` — metrics
  recorded here (``stream.*``, ``kernel.*``, ``engine.*``) are shipped
  to the parent as :class:`~repro.obs.DeltaDumper` deltas riding on
  ``OP_METRICS`` / ``OP_DECIDE`` / ``OP_SHUTDOWN`` replies, so
  child-side counts surface in the parent registry instead of dying
  with the process.

The loop is single-threaded and processes frames strictly in order —
which is what makes the router's journal replay deterministic: same
frame order in, same mux state out.  Any handler exception is caught
and reported (``OP_ERR`` for requests, an error ACK for event frames);
the worker itself keeps serving.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional

from ..automata.timed import TimedBuchiAutomaton
from ..engine.batch import _decide_one, compiled_tba
from ..engine.strategies import get_strategy
from ..obs import DeltaDumper, Instrumentation
from ..obs import hooks as _obs_hooks
from .wire import (
    OP_ACK,
    OP_ADOPT,
    OP_CHECKPOINT,
    OP_CLOSE,
    OP_DECIDE,
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
    recv_frame,
    send_frame,
)

__all__ = ["worker_main"]


class _Worker:
    def __init__(self, conn: Any, shard_id: str, mux_factory: Optional[Callable]):
        self.conn = conn
        self.shard_id = shard_id
        self._factory = mux_factory
        # The mux (and its per-language analysis/compiled artifacts) is
        # built once, here, at worker start — the warm state the whole
        # design exists to keep resident.
        self.mux = mux_factory() if mux_factory is not None else None
        self.langs: Dict[int, Any] = {}
        # The worker runs instrumented (a decide chunk excepted, when the
        # parent has no hooks): its metrics only reach a user if the
        # parent pulls and merges them, and an idle registry costs nil.
        self.inst = _obs_hooks.install(Instrumentation())
        self.delta = DeltaDumper(self.inst.registry)
        # Labeled by shard so merged parent registries keep the shards
        # apart (unlabeled gauges from two workers would clobber).
        self._frames = self.inst.registry.counter(
            "shard.worker_frames", "frames served by a shard worker"
        ).labels(shard=shard_id)

    # -- language rebinding for checkpoint restore ------------------------
    def _lang_kwargs(self) -> Dict[str, Any]:
        """How :mod:`repro.stream.checkpoint` re-binds this mux's language."""
        if self.mux is None or self.mux.acceptor is None:
            raise RuntimeError(
                "this shard hosts no checkpointable mux (decide-only pool "
                "or monitor_factory-backed sessions)"
            )
        lang = self.mux.acceptor
        if isinstance(lang, TimedBuchiAutomaton):
            return {"tba": lang}
        return {"acceptor": lang}

    def _live_mux(self):
        if self.mux is None:
            raise RuntimeError(
                f"shard {self.shard_id!r} is decide-only (no mux configured)"
            )
        return self.mux

    # -- handlers ----------------------------------------------------------
    def on_events(self, events) -> Any:
        mux = self._live_mux()
        mux.ingest_batch(events)
        return len(events)

    def on_verdicts(self, _payload) -> Dict[str, Any]:
        return self._live_mux().verdicts()

    def on_stats(self, _payload) -> Dict[str, int]:
        return self._live_mux().stats()

    def on_checkpoint(self, _payload) -> Dict[str, Any]:
        from ..stream.checkpoint import checkpoint_mux

        return checkpoint_mux(self._live_mux())

    def on_restore(self, snapshot) -> int:
        from ..stream.checkpoint import restore_mux

        if self._factory is None:
            raise RuntimeError("decide-only shard cannot restore a mux")
        fresh = self._factory()
        restore_mux(snapshot, fresh, **self._lang_kwargs())
        self.mux = fresh
        return len(fresh)

    def on_extract(self, names) -> Dict[str, Any]:
        from ..stream.checkpoint import extract_sessions

        return extract_sessions(self._live_mux(), names)

    def on_adopt(self, entries) -> int:
        from ..stream.checkpoint import restore_sessions

        restored = restore_sessions(
            self._live_mux(), entries, **self._lang_kwargs()
        )
        return len(restored)

    def on_close(self, payload) -> Any:
        name, horizon = payload
        return self._live_mux().close(name, horizon)

    def on_evict(self, payload) -> Any:
        now, idle_ttl = payload
        return self._live_mux().evict_idle(now, idle_ttl)

    def on_install_lang(self, payload) -> bool:
        key, kind, obj, drop = payload
        # the router evicts in its own table and names the keys here
        for old in drop:
            self.langs.pop(old, None)
        if kind == "tba":
            # compiled once into the worker's warm engine LRU;
            # every future OP_DECIDE for this key reuses it
            self.langs[key] = compiled_tba(obj)
        elif kind == "obj":
            self.langs[key] = obj
        else:
            raise ValueError(f"unknown language kind {kind!r}")
        self.inst.registry.gauge(
            "shard.worker_langs", "languages installed in a decide worker"
        ).labels(shard=self.shard_id).set(len(self.langs))
        return True

    def on_decide(self, payload) -> Any:
        lang_key, lo, words, horizon, strategy_spec, seed, metered = payload
        acceptor = self.langs[lang_key]
        strat = get_strategy(strategy_spec)
        if not metered:
            # The parent has no hooks to merge this chunk's metrics
            # into, so judge bare (counting costs ~20% per word) and
            # leave the worker's other counts for the next pull.
            _obs_hooks.uninstall()
        try:
            reports = [
                _decide_one(acceptor, word, horizon, strat, seed, lo + i)
                for i, word in enumerate(words)
            ]
        finally:
            _obs_hooks.install(self.inst)
        return reports, self.delta.delta() if metered else None

    def on_metrics(self, _payload) -> Any:
        if self.mux is not None:
            # sample the worker-side session level on the way out
            self.inst.registry.gauge(
                "shard.worker_sessions", "sessions resident on this shard"
            ).labels(shard=self.shard_id).set(len(self.mux))
        return self.delta.delta()

    # -- the loop ----------------------------------------------------------
    HANDLERS = {
        OP_EVENTS: on_events,
        OP_VERDICTS: on_verdicts,
        OP_STATS: on_stats,
        OP_CHECKPOINT: on_checkpoint,
        OP_RESTORE: on_restore,
        OP_EXTRACT: on_extract,
        OP_ADOPT: on_adopt,
        OP_CLOSE: on_close,
        OP_EVICT: on_evict,
        OP_INSTALL_LANG: on_install_lang,
        OP_DECIDE: on_decide,
        OP_METRICS: on_metrics,
    }

    def serve(self) -> None:
        while True:
            try:
                frame = recv_frame(self.conn)
            except (EOFError, OSError):
                return  # parent is gone; nothing left to serve
            self._frames.inc()
            op, seq, payload = frame
            if op == OP_SHUTDOWN:
                send_frame(self.conn, OP_REPLY, seq, self.on_metrics(None))
                return
            handler = self.HANDLERS.get(op)
            try:
                if handler is None:
                    raise ValueError(f"unknown opcode {op}")
                result = handler(self, payload)
            except Exception as exc:  # noqa: BLE001 — report, keep serving
                if op == OP_EVENTS:
                    send_frame(self.conn, OP_ACK, seq, ("err", repr(exc)))
                else:
                    send_frame(self.conn, OP_ERR, seq, repr(exc))
                continue
            if op == OP_EVENTS:
                send_frame(self.conn, OP_ACK, seq, ("ok", result))
            else:
                send_frame(self.conn, OP_REPLY, seq, result)


def worker_main(
    conn: Any, shard_id: str, mux_factory: Optional[Callable] = None
) -> None:
    """Entry point of a forked shard worker (runs until shutdown/EOF)."""
    worker = _Worker(conn, shard_id, mux_factory)
    try:
        worker.serve()
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        # daemonized children must not run the parent's atexit hooks
        os._exit(0)
