"""The shared decide-only shard pool behind ``backend="shards"``.

The fork backend (:func:`repro.engine.batch.decide_many` with
``backend="fork"``) forks a fresh child per chunk on *every call*, so
its forks are paid per batch.  This module keeps one process-wide
:class:`~repro.shard.router.ShardRouter` (decide-only: no muxes) alive
across calls, so repeat batches hit workers whose language artifacts
are already compiled and warm.

The hand-off differs from the fork backend's, whose children inherit
the job by memory copy: a persistent worker is forked *before* the
batch exists, so nothing can be inherited — the acceptor and the words
must actually cross the pipe.  That is a
real restriction: machine-protocol acceptors close over generator
programs and do not pickle.  :func:`language_spec` preflights this and
raises :class:`LanguageUnshippable` so the engine backends can fall
back (and count why) instead of dying mid-batch.  TBAs, timed words,
strategies, and :class:`~repro.engine.verdict.DecisionReport` lists are
all plain data and travel fine.

:class:`ShardLauncher` is this pool's side of the engine's one chunk
scheduler (:mod:`repro.engine.resilience`): it starts a chunk as an
``OP_DECIDE`` frame on an idle worker and reads back the reports (with
the worker's metric delta, merged into the parent registry) or the
failure.  A worker that dies is respawned, so the pool stays at
strength, and its chunk is reported failed; retries, deadlines and the
parent rescue belong to the scheduler.

Each worker keeps the languages it was sent in a table of at most
:data:`~repro.engine.batch.CACHE_SIZE` entries.  The router evicts the
least recently used one when a new language arrives and tells the
worker in the same install frame, so the two tables never disagree
(:meth:`~repro.shard.router.ShardRouter.install_language`).
"""

from __future__ import annotations

import os
import pickle
import threading
from multiprocessing import connection as mp_connection
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..automata.timed import TimedBuchiAutomaton
from ..obs import hooks as _obs
from .router import ShardError, ShardRouter
from .wire import OP_DECIDE, OP_ERR, OP_REPLY, recv_frame, send_frame

__all__ = [
    "LanguageUnshippable",
    "language_spec",
    "strategy_spec",
    "shared_pool",
    "shutdown_pool",
    "ShardLauncher",
]


class LanguageUnshippable(RuntimeError):
    """The acceptor/strategy cannot cross a pipe to a persistent worker.

    ``reason`` is the short token the engine records in
    ``engine.backend_fallbacks{reason=...}``.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


_POOL: Optional[ShardRouter] = None
_POOL_LOCK = threading.Lock()


def default_pool_size() -> int:
    return max(2, min(4, os.cpu_count() or 2))


def pool_is_warm() -> bool:
    """True when a shared pool is already running (auto-backend signal)."""
    return _POOL is not None and not _POOL._closed


def shared_pool(n_shards: Optional[int] = None) -> ShardRouter:
    """The process-wide decide pool, grown (never shrunk) on demand."""
    global _POOL
    want = max(1, n_shards if n_shards is not None else default_pool_size())
    want = min(want, max(2, os.cpu_count() or 2))
    with _POOL_LOCK:
        if _POOL is None or _POOL._closed:
            _POOL = ShardRouter(n_shards=want)
        elif _POOL.n_shards < want:
            _POOL.rebalance(want)
        return _POOL


def shutdown_pool() -> None:
    """Stop the shared pool (tests, or an explicit service drain)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


def language_spec(acceptor: Any) -> Tuple[int, str, Any]:
    """``(key, kind, payload)`` for shipping ``acceptor`` to workers.

    TBAs ship as themselves and are compiled *in the worker* (into its
    warm cache); any other picklable acceptor ships directly.  Raises
    :class:`LanguageUnshippable` for closure-laden acceptors.
    """
    kind = "tba" if isinstance(acceptor, TimedBuchiAutomaton) else "obj"
    try:
        pickle.dumps(acceptor, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise LanguageUnshippable("unshippable-acceptor", repr(exc)) from exc
    return id(acceptor), kind, acceptor


def strategy_spec(strategy: Union[str, Any]) -> Any:
    """A pipe-safe strategy spec.

    Name strings pass through; a registry instance collapses back to
    its name (the worker resolves the same object); anything customized
    must pickle or the call falls back.
    """
    if isinstance(strategy, str):
        return strategy
    from ..engine.strategies import STRATEGIES

    name = getattr(strategy, "name", None)
    if name is not None and STRATEGIES.get(name) is strategy:
        return name
    try:
        pickle.dumps(strategy, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise LanguageUnshippable("unshippable-strategy", repr(exc)) from exc
    return strategy


class ShardLauncher:
    """Start decide chunks on the shared pool; read back their results.

    One outstanding chunk per shard.  :meth:`collect` yields
    ``(chunk, (kind, payload))`` with ``kind`` one of ``ok`` (payload:
    the reports), ``exception`` or ``worker-death`` (payload: a detail
    string).
    """

    def __init__(
        self,
        ship: Tuple[Tuple[int, str, Any], Any],
        words: Sequence[Any],
        horizon: int,
        seed: int,
        workers: int,
    ):
        (self.key, self.kind, self.payload), self.strat = ship
        self.words, self.horizon, self.seed = words, horizon, seed
        self.router = router = shared_pool(workers)
        use = router.shard_ids[: max(1, min(workers, router.n_shards))]
        self.idle = [router._shards[sid] for sid in use]
        self.capacity = len(self.idle)
        self.live: dict = {}  # conn -> (shard, chunk)
        self.done: List[Tuple[Any, Tuple[str, Any]]] = []

    def start(self, chunk: Tuple[int, int, int]) -> None:
        lo, hi = chunk[0], chunk[1]
        if not self.idle:  # a respawn failed: no worker left to use
            self.done.append((chunk, ("worker-death", "no live shard")))
            return
        shard = self.idle.pop()
        try:
            self.router.install_language(shard, self.key, self.kind, self.payload)
            shard.seq += 1
            send_frame(
                shard.conn,
                OP_DECIDE,
                shard.seq,
                (
                    self.key, lo, self.words[lo:hi], self.horizon, self.strat,
                    self.seed, _obs.HOOKS is not None,
                ),
            )
        except (ShardError, OSError) as exc:
            self.done.append((chunk, self._respawn(shard, repr(exc))))
            return
        except Exception as exc:  # e.g. an unpicklable word mid-batch
            self.idle.append(shard)
            self.done.append((chunk, ("exception", repr(exc))))
            return
        self.live[shard.conn] = (shard, chunk)

    def collect(self, timeout: Optional[float]) -> List[Tuple[Any, Tuple[str, Any]]]:
        done, self.done = self.done, []
        if not self.live:
            return done
        for conn in mp_connection.wait(list(self.live), timeout=0 if done else timeout):
            shard, chunk = self.live.pop(conn)
            try:
                frame = recv_frame(conn)
            except (EOFError, OSError) as exc:
                done.append((chunk, self._respawn(shard, repr(exc))))
                continue
            if frame.seq != shard.seq:  # never expected: resync by respawn
                detail = f"reply seq {frame.seq} != {shard.seq}"
                done.append((chunk, self._respawn(shard, detail)))
                continue
            self.idle.append(shard)
            if frame.op == OP_REPLY:
                reports, delta = frame.payload
                h = _obs.HOOKS
                if h is not None and delta:
                    h.registry.merge(delta)
                done.append((chunk, ("ok", reports)))
            elif frame.op == OP_ERR:
                done.append((chunk, ("exception", frame.payload)))
            else:
                done.append((chunk, ("exception", f"opcode {frame.op}")))
        return done

    def kill_all(self) -> None:
        """Abandon the running chunks, respawning their workers.

        A respawned worker owes no reply, so an abandoned chunk's answer
        can never be read as a later chunk's.
        """
        for shard, _chunk in self.live.values():
            self._respawn(shard, "abandoned")
        self.live.clear()

    def _respawn(self, shard: Any, detail: str) -> Tuple[str, str]:
        shard.alive = False
        try:
            self.idle.append(self.router.respawn(shard.id))
        except Exception as exc:  # noqa: BLE001 — the chunk fails either way
            detail = f"{detail}; respawn failed: {exc!r}"
        return "worker-death", detail
