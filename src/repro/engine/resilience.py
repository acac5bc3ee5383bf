"""Decision fan-out: one chunk scheduler and one recovery ladder.

Both batch entry points run on the scheduler in this module.
:func:`decide_many_resilient` judges a batch under an explicit failure
model; :func:`repro.engine.batch.decide_many` is the same scheduler
with no retries and no deadline.  Real-time parallel computation
treats failure as first-class: processors die, and recovery itself has
a timing budget.

A batch is cut into chunks of contiguous word indices.  A *launcher*
does two things only: start a chunk, and read back its reports or its
failure.  There are three:

* **in-process** (``serial``) — the parent judges one word per chunk;
* **fork** — one forked child per chunk, reporting over its own pipe.
  The child inherits the acceptor and the words by memory copy, so
  unpicklable closure acceptors (a
  :class:`~repro.machine.rtalgorithm.RealTimeAlgorithm`) fan out too,
  and a SIGKILLed child shows up as EOF on its pipe;
* **shards** — an ``OP_DECIDE`` frame to a persistent worker of
  :mod:`repro.shard.pool`; a dead worker is respawned and its chunk
  reported failed.

Everything else belongs to the scheduler and is the same for all three:

* **worker death** (SIGKILL, OOM, segfault) and **worker exception** —
  the chunk is retried with capped exponential backoff, split in half
  first so a single poison word is isolated in O(log chunk) retries;
* **deadline budget** — ``deadline_s`` bounds the whole batch in
  wall-clock seconds.  On expiry, running chunks are killed and every
  still-missing word gets an explicit
  :data:`~repro.engine.verdict.Verdict.UNDECIDED` report (the engine's
  inconclusive verdict) marked ``evidence["degraded"] = "deadline"`` —
  partial results, never a hang;
* **graceful degradation** — a chunk that exhausts its retries is
  judged again in the parent under the same strategy (reports stay
  bit-identical to the serial path and carry *no* marker), then
  optionally under a cheaper strategy (``fallback_strategy``, typically
  ``"long-prefix-empirical"``), whose reports are marked
  ``evidence["degraded"] = "strategy-fallback:<name>"``.

``decide_many`` takes the parent rescue straight away (no retries) and
re-raises an exception that nothing rescues; it never marks a report.
Whenever the scheduler stops with chunks still running (a deadline, or
that exception), it kills them first: no forked child outlives the
call, and no shard worker still owes a reply to the next batch.

The invariant the fault suite pins: **every unmarked report is
bit-identical to what the serial path would have produced** — retries
and the parent rescue re-run the pure per-word function, so fault
recovery is invisible in the verdict stream; only *marked* reports may
differ, and the marker says why.

Observability: ``engine.retries{reason}``, ``engine.degraded{mode}``,
``engine.deadline_misses``, ``engine.backend_fallbacks{reason}``, and
the ``engine.decide_many`` / ``engine.decide_many_resilient`` spans.
Fault wrappers for tests/benchmarks live in :mod:`repro.engine.faults`.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..obs import hooks as _obs
from .batch import _decide_one, compiled_tba
from .strategies import DEFAULT_HORIZON, DecisionStrategy, get_strategy
from .verdict import DecisionReport, Verdict

__all__ = [
    "RetryPolicy",
    "DegradePolicy",
    "BatchOutcome",
    "decide_many_resilient",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How failed chunks are retried.

    ``backoff_base * 2**attempt`` seconds between attempts, capped at
    ``backoff_cap``; ``split_chunks`` halves a failed multi-word chunk
    before requeueing so a poison word is cornered in O(log n) retries.
    """

    max_retries: int = 2
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    split_chunks: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


@dataclass(frozen=True)
class DegradePolicy:
    """What happens after retries are exhausted.

    ``serial_fallback`` re-judges the chunk in the parent under the
    *same* strategy (bit-identical, unmarked); ``fallback_strategy``
    names a cheaper strategy tried next (marked in evidence).  With
    both disabled, abandoned words get UNDECIDED reports marked
    ``degraded="abandoned"``.
    """

    serial_fallback: bool = True
    fallback_strategy: Optional[str] = None


@dataclass
class BatchOutcome:
    """One resilient batch: the reports plus the recovery ledger."""

    reports: List[DecisionReport]
    mode: str = "serial"
    retries: int = 0
    worker_deaths: int = 0
    serial_fallbacks: int = 0
    degraded_indices: List[int] = field(default_factory=list)
    deadline_missed: bool = False
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        """True iff every report is the undegraded serial-identical one."""
        return not self.degraded_indices and not self.deadline_missed


#: Auto-backend heuristic floor: below ``max(this, 8 * workers)`` words
#: a pool's startup cost dominates the work, so ``decide_many``'s
#: ``backend="auto"`` routes ``workers > 1`` calls to the serial path
#: (recorded in ``engine.backend_fallbacks{reason="small-batch"}``).
MIN_POOL_WORDS = 64

BACKENDS = ("auto", "serial", "fork", "shards")

#: ``decide_many``'s retry policy: a failed chunk goes straight to the
#: parent rescue.
_NO_RETRY = RetryPolicy(max_retries=0)

#: A chunk in flight: ``(lo, hi, attempt)`` over the word indices.
_Chunk = Tuple[int, int, int]


def _select_backend(
    backend: str, workers: int, n: int, acceptor: Any, strat: DecisionStrategy
) -> Tuple[str, Any]:
    """``(mode, ship)`` for one batch — the one place a backend is chosen.

    ``"auto"`` picks serial for batches too small to repay a pool, the
    shard pool when it is already warm, and fork otherwise.  Every
    routing away from a pool is counted in
    ``engine.backend_fallbacks{reason}``.  ``ship`` is the pipe-safe
    ``(language, strategy)`` pair the shard launcher sends, else None.
    """
    h = _obs.HOOKS

    def fallback(reason: str, mode: str) -> Tuple[str, Any]:
        if h is not None:
            h.count("engine.backend_fallbacks", reason=reason)
        return mode, None

    if backend == "serial" or workers <= 1 or n <= 1:
        return "serial", None
    if "fork" not in multiprocessing.get_all_start_methods():
        return fallback("fork-unavailable", "serial")
    if backend == "auto":
        if n < max(MIN_POOL_WORDS, 8 * workers):
            return fallback("small-batch", "serial")
        from ..shard.pool import pool_is_warm

        backend = "shards" if pool_is_warm() else "fork"
    if backend == "shards":
        # Preflight the pipe: a closure-laden acceptor or a customized
        # strategy cannot reach a persistent worker.
        from ..shard import pool as shard_pool

        try:
            return "shards", (
                shard_pool.language_spec(acceptor),
                shard_pool.strategy_spec(strat),
            )
        except shard_pool.LanguageUnshippable as exc:
            return fallback(exc.reason, "fork")
    return "fork", None


def _judge_range(job: Tuple[Any, ...], lo: int, hi: int) -> List[DecisionReport]:
    acceptor, words, horizon, strat, seed = job
    return [
        _decide_one(acceptor, words[i], horizon, strat, seed, i)
        for i in range(lo, hi)
    ]


class _InProcess:
    """The serial launcher: the parent judges a chunk when it starts."""

    def __init__(self, job: Tuple[Any, ...]):
        self.job = job
        self.done: List[Tuple[_Chunk, Tuple[str, Any]]] = []

    def start(self, chunk: _Chunk) -> None:
        try:
            result = ("ok", _judge_range(self.job, chunk[0], chunk[1]))
        except Exception as exc:  # noqa: BLE001 — the ladder decides
            result = ("exception", exc)
        self.done.append((chunk, result))

    def collect(self, _timeout: Optional[float]) -> List[Tuple[_Chunk, Tuple[str, Any]]]:
        done, self.done = self.done, []
        return done

    def kill_all(self) -> None:
        self.done.clear()


def _chunk_child(conn: Any, job: Tuple[Any, ...], lo: int, hi: int) -> None:
    """Forked child: judge one chunk, send back the reports or the error.

    When the parent had hooks installed at fork time, the chunk runs
    under fresh child instrumentation and the registry dump rides back
    with the reports — metrics recorded in the child would otherwise
    die with it.
    """
    try:
        if _obs.HOOKS is None:
            conn.send(("ok", _judge_range(job, lo, hi), None))
        else:
            with _obs.instrumented() as inst:
                reports = _judge_range(job, lo, hi)
            conn.send(("ok", reports, inst.registry.dump()))
    except Exception as exc:  # noqa: BLE001 — report it, then exit
        conn.send(("exception", repr(exc), None))
    finally:
        conn.close()


class _ForkLauncher:
    """One forked child and one result pipe per chunk."""

    def __init__(self, job: Tuple[Any, ...]):
        self.job = job
        self.ctx = multiprocessing.get_context("fork")
        self.live: dict = {}  # parent_conn -> (process, chunk)

    def start(self, chunk: _Chunk) -> None:
        parent_conn, child_conn = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_chunk_child,
            args=(child_conn, self.job, chunk[0], chunk[1]),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.live[parent_conn] = (proc, chunk)

    def collect(self, timeout: Optional[float]) -> List[Tuple[_Chunk, Tuple[str, Any]]]:
        done = []
        for conn in mp_connection.wait(list(self.live), timeout=timeout):
            proc, chunk = self.live.pop(conn)
            try:
                kind, payload, delta = conn.recv()
            except (EOFError, OSError):
                kind, payload, delta = "worker-death", None, None
            conn.close()
            proc.join()
            h = _obs.HOOKS
            if h is not None and delta:
                h.registry.merge(delta)
            if kind == "worker-death":
                payload = f"exitcode={proc.exitcode}"
            done.append((chunk, (kind, payload)))
        return done

    def kill_all(self) -> None:
        for conn, (proc, _chunk) in self.live.items():
            proc.kill()
            proc.join()
            conn.close()
        self.live.clear()


def _inconclusive(
    index: int, seed: int, strat_name: str, reason: str, detail: Any = None
) -> DecisionReport:
    """The explicit INCONCLUSIVE remainder report (UNDECIDED + marker)."""
    evidence = {"seed": seed + index, "index": index, "degraded": reason}
    if detail is not None:
        evidence["error"] = detail if isinstance(detail, str) else repr(detail)
    return DecisionReport(
        verdict=Verdict.UNDECIDED, horizon=0, evidence=evidence, strategy=strat_name
    )


def _judge_batch(
    acceptor: Any,
    words: Sequence[Any],
    *,
    horizon: int,
    strategy: Union[str, DecisionStrategy],
    workers: int,
    chunk_size: Optional[int],
    seed: int,
    backend: str,
    retry: RetryPolicy,
    degrade: Optional[DegradePolicy],
    deadline_s: Optional[float],
) -> BatchOutcome:
    """The chunk scheduler behind both entry points.

    ``degrade=None`` is ``decide_many``'s contract: a chunk whose
    retries are spent is judged again in the parent under the same
    strategy, and an exception that nothing rescues is re-raised.
    """
    if workers < 1:
        raise ValueError(
            f"workers must be >= 1, got {workers} (use workers=1 for the "
            "serial path)"
        )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(
            f"chunk_size must be >= 1 or None for automatic sizing, got "
            f"{chunk_size}"
        )
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    words = list(words)
    strat = get_strategy(strategy)
    n = len(words)
    mode, ship = _select_backend(backend, workers, n, acceptor, strat)
    # A raw TBA ships to shard workers as-is (they compile it into their
    # own warm cache); the parent judges through the cached compilation.
    from ..automata.timed import TimedBuchiAutomaton

    if isinstance(acceptor, TimedBuchiAutomaton):
        acceptor = compiled_tba(acceptor)
    job = (acceptor, words, horizon, strat, seed)
    h = _obs.HOOKS
    outcome = BatchOutcome(reports=[], mode="pool" if mode == "fork" else mode)
    if h is not None:
        h.count("engine.batches", mode=outcome.mode)
        h.count("engine.batch_words", n)
    start = time.perf_counter()
    deadline_at = None if deadline_s is None else start + deadline_s
    slots: List[Optional[DecisionReport]] = [None] * n
    waiting: List[Tuple[float, int, int, int]] = []  # retry heap by not_before

    def rescue(lo: int, hi: int, detail: Any) -> None:
        """The degrade ladder for a chunk whose retries are spent."""
        for i in range(lo, hi):
            if deadline_at is not None and time.perf_counter() >= deadline_at:
                outcome.deadline_missed = True
                return  # the rest become deadline markers
            # the in-process launcher already was the parent's judgement
            if mode != "serial" and (degrade is None or degrade.serial_fallback):
                try:
                    slots[i] = _decide_one(acceptor, words[i], horizon, strat, seed, i)
                except Exception as exc:
                    if degrade is None:
                        raise
                    detail = exc
                else:
                    outcome.serial_fallbacks += 1
                    if h is not None:
                        h.count("engine.degraded", mode="serial-fallback")
                    continue
            if degrade is None:
                raise detail
            if degrade.fallback_strategy is not None:
                cheap = get_strategy(degrade.fallback_strategy)
                try:
                    report = _decide_one(acceptor, words[i], horizon, cheap, seed, i)
                except Exception as exc:
                    detail = exc
                else:
                    report.evidence["degraded"] = f"strategy-fallback:{cheap.name}"
                    slots[i] = report
                    outcome.degraded_indices.append(i)
                    if h is not None:
                        h.count("engine.degraded", mode="strategy-fallback")
                    continue
            slots[i] = _inconclusive(i, seed, strat.name, "abandoned", detail)
            outcome.degraded_indices.append(i)
            if h is not None:
                h.count("engine.degraded", mode="abandoned")

    def settle(chunk: _Chunk, result: Tuple[str, Any]) -> None:
        lo, hi, attempt = chunk
        kind, payload = result
        if kind == "ok":
            slots[lo:hi] = payload
            return
        if kind == "worker-death":
            outcome.worker_deaths += 1
        attempt += 1
        if attempt > retry.max_retries:
            rescue(lo, hi, payload)
            return
        outcome.retries += 1
        if h is not None:
            h.count("engine.retries", reason=kind)
        not_before = time.perf_counter() + retry.delay(attempt)
        mid = (lo + hi) // 2 if retry.split_chunks and hi - lo > 1 else lo
        for part_lo, part_hi in ((lo, mid), (mid, hi)):
            if part_lo < part_hi:
                heapq.heappush(waiting, (not_before, part_lo, part_hi, attempt))

    def run() -> None:
        if mode == "serial":
            launcher: Any = _InProcess(job)
            capacity, size = 1, 1
        else:
            if mode == "fork":
                launcher, capacity = _ForkLauncher(job), workers
            else:
                from ..shard.pool import ShardLauncher

                launcher = ShardLauncher(ship, words, horizon, seed, workers)
                capacity = launcher.capacity
            size = chunk_size or max(1, math.ceil(n / (capacity * 4)))
        fresh = deque((lo, min(lo + size, n), 0) for lo in range(0, n, size))
        inflight = 0
        try:
            while fresh or waiting or inflight:
                now = time.perf_counter()
                if deadline_at is not None and now >= deadline_at:
                    outcome.deadline_missed = True
                    break
                while inflight < capacity and waiting and waiting[0][0] <= now:
                    _not_before, lo, hi, attempt = heapq.heappop(waiting)
                    launcher.start((lo, hi, attempt))
                    inflight += 1
                while inflight < capacity and fresh:
                    launcher.start(fresh.popleft())
                    inflight += 1
                wake = [] if deadline_at is None else [deadline_at]
                if waiting:
                    wake.append(waiting[0][0])
                if inflight:
                    timeout = max(0.0, min(wake) - now) if wake else None
                    for chunk, result in launcher.collect(timeout):
                        inflight -= 1
                        settle(chunk, result)
                elif waiting:
                    time.sleep(max(0.0, min(wake) - time.perf_counter()))
        finally:
            # A deadline, or an exception the ladder re-raises, can leave
            # chunks running: kill them, so no child outlives the call
            # and no worker still owes a reply to the next batch.
            if inflight:
                launcher.kill_all()
        for i in range(n):
            if slots[i] is None:
                slots[i] = _inconclusive(i, seed, strat.name, "deadline")
                outcome.degraded_indices.append(i)
        outcome.degraded_indices.sort()
        outcome.reports = slots  # type: ignore[assignment]
        if outcome.deadline_missed and h is not None:
            h.count("engine.deadline_misses")

    if h is None:
        run()
    else:
        with h.span(
            "engine.decide_many" if degrade is None else "engine.decide_many_resilient",
            words=n,
            workers=1 if mode == "serial" else workers,
            strategy=strat.name,
            horizon=horizon,
            deadline_s=deadline_s if deadline_s is not None else 0,
            backend=mode,
        ):
            run()
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


def decide_many_resilient(
    acceptor: Any,
    words: Sequence[Any],
    *,
    horizon: int = DEFAULT_HORIZON,
    strategy: Union[str, DecisionStrategy] = "lasso-exact",
    workers: int = 1,
    chunk_size: Optional[int] = None,
    seed: int = 0,
    retry: Optional[RetryPolicy] = None,
    degrade: Optional[DegradePolicy] = None,
    deadline_s: Optional[float] = None,
    backend: str = "auto",
) -> BatchOutcome:
    """Judge every word, surviving worker faults within a time budget.

    Same contract as :func:`~repro.engine.batch.decide_many` — one
    report per word, in word order, unmarked reports bit-identical to
    the serial path — plus the failure model described in the module
    docstring.  Returns a :class:`BatchOutcome` carrying the reports
    and the recovery ledger.

    ``backend`` picks the fan-out like ``decide_many``'s: ``"fork"``
    (one forked process per chunk; also what ``"auto"`` chooses for
    ``workers > 1``) or ``"shards"`` (the persistent pool of
    :mod:`repro.shard` — worker deaths are healed by respawn and the
    same retry/degrade ladder applies; needs a picklable acceptor and
    falls back to fork with the reason recorded otherwise).
    """
    return _judge_batch(
        acceptor,
        words,
        horizon=horizon,
        strategy=strategy,
        workers=workers,
        chunk_size=chunk_size,
        seed=seed,
        # the ladder's per-chunk process isolation is the default here
        backend="fork" if backend == "auto" else backend,
        retry=retry if retry is not None else RetryPolicy(),
        degrade=degrade if degrade is not None else DegradePolicy(),
        deadline_s=deadline_s,
    )
