"""Batched, parallel decision fan-out and the compiled-acceptor cache.

``decide_many`` is the production entry point the ROADMAP's batching
direction calls for: judge a whole sweep of words against one acceptor,
optionally across worker processes, with three guarantees:

* **Deterministic order** — reports come back in word order regardless
  of worker count or chunking;
* **Bit-identical to serial** — every run builds a fresh
  :class:`~repro.kernel.simulator.Simulator`, so a word's report is a
  pure function of (acceptor, word, horizon, strategy, seed) and the
  pooled paths return exactly what the serial path would;
* **Seeded** — each word's report carries ``evidence["seed"] =
  seed + index``, so sampled strategies stay reproducible under any
  fan-out.

The fan-out itself is the chunk scheduler of
:mod:`repro.engine.resilience`, run with no retries and no deadline: a
chunk that fails in a worker — an exception, or a worker killed
mid-chunk — is judged again in the parent under the same strategy, and
an exception that nothing rescues reaches the caller.
``decide_many_resilient`` runs the same scheduler with its retry,
deadline and degrade policies.

The second half of the module is the compiled-acceptor LRU: building an
acceptor is often far more expensive than one decision (notably the
TBA→machine compilation of :mod:`repro.machine.from_tba`, which used to
be recompiled on every call).  :func:`cached_acceptor` memoizes any
identity-keyed construction, anchoring the keyed objects so ``id``
reuse cannot alias entries; :func:`compiled_tba` is the TBA
specialization.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..obs import hooks as _obs
from .strategies import DEFAULT_HORIZON, DecisionStrategy
from .verdict import DecisionReport

__all__ = [
    "decide_many",
    "AcceptorCache",
    "cached_acceptor",
    "compiled_tba",
    "clear_caches",
]

#: Entries a warm language table keeps: the default size of an
#: :class:`AcceptorCache`, and the bound on each shard decide worker's
#: installed languages (:mod:`repro.shard.pool`).
CACHE_SIZE = 128


def _decide_one(
    acceptor: Any,
    word: Any,
    horizon: int,
    strategy: DecisionStrategy,
    seed: int,
    index: int,
) -> DecisionReport:
    """One seeded, index-stamped decision (shared by every backend)."""
    h = _obs.HOOKS
    if h is not None:
        h.count("engine.words_judged", strategy=strategy.name)
    report = strategy.run(acceptor, word, horizon)
    report.evidence["seed"] = seed + index
    report.evidence["index"] = index
    return report


def decide_many(
    acceptor: Any,
    words: Sequence[Any],
    *,
    horizon: int = DEFAULT_HORIZON,
    strategy: Union[str, DecisionStrategy] = "lasso-exact",
    workers: int = 1,
    chunk_size: Optional[int] = None,
    seed: int = 0,
    backend: str = "auto",
) -> List[DecisionReport]:
    """Judge every word in ``words``, optionally across worker processes.

    Returns one report per word, in word order, bit-identical across
    backends.  ``backend`` selects the fan-out:

    * ``"serial"`` — the in-process loop;
    * ``"fork"`` — one forked child per chunk (job inherited by memory
      copy, so unpicklable acceptors work);
    * ``"shards"`` — the persistent shard pool of :mod:`repro.shard`
      (warm compiled acceptors across calls; requires a picklable
      acceptor, and falls back to fork with a recorded reason
      otherwise);
    * ``"auto"`` (default) — serial for small batches where a pool
      would lose, otherwise shards when the shared pool is already
      warm, else fork.

    Every routing-away-from-a-pool decision is counted in
    ``engine.backend_fallbacks{reason=...}``; a chunk rescued in the
    parent is counted in ``engine.degraded{mode="serial-fallback"}``.
    """
    from .resilience import _NO_RETRY, _judge_batch

    return _judge_batch(
        acceptor,
        words,
        horizon=horizon,
        strategy=strategy,
        workers=workers,
        chunk_size=chunk_size,
        seed=seed,
        backend=backend,
        retry=_NO_RETRY,
        degrade=None,
        deadline_s=None,
    ).reports


# ----------------------------------------------------------------------
# compiled-acceptor cache
# ----------------------------------------------------------------------

class AcceptorCache:
    """A small LRU of compiled acceptors.

    Keys are arbitrary hashables — typically ``(tag, id(obj), …)``.
    Because ``id`` keys are only valid while the keyed object lives,
    every entry also *anchors* the objects it was keyed on, so a cached
    entry can never be served for a recycled id.

    ``maxsize=0`` means *no caching*: every lookup bypasses the table
    and rebuilds (counted as ``outcome="bypass"`` in the obs counter),
    rather than the old insert-then-immediately-evict churn that
    reported a hit-capable cache while never serving one.
    """

    def __init__(self, maxsize: int = CACHE_SIZE):
        if maxsize < 0:
            raise ValueError(
                f"maxsize must be >= 0 (0 disables caching), got {maxsize}"
            )
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Tuple[Tuple[Any, ...], Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key: Any, factory: Callable[[], Any], *anchors: Any) -> Any:
        h = _obs.HOOKS
        if self.maxsize == 0:
            self.misses += 1
            if h is not None:
                h.count("engine.acceptor_cache", outcome="bypass")
                h.gauge("engine.acceptor_cache_size", 0)
            return factory()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if h is not None:
                h.count("engine.acceptor_cache", outcome="hit")
            return entry[1]
        self.misses += 1
        if h is not None:
            h.count("engine.acceptor_cache", outcome="miss")
        acceptor = factory()
        self._entries[key] = (anchors, acceptor)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            if h is not None:
                h.count("engine.acceptor_cache", outcome="eviction")
        if h is not None:
            h.gauge("engine.acceptor_cache_size", len(self._entries))
        return acceptor

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache every domain's decide helper shares.
_CACHE = AcceptorCache()


def cached_acceptor(key: Any, factory: Callable[[], Any], *anchors: Any) -> Any:
    """Memoized acceptor construction through the shared engine cache."""
    return _CACHE.get_or_build(key, factory, *anchors)


def compiled_tba(tba: Any, allow_nondeterministic: bool = False) -> Any:
    """The cached TBA→machine compilation (Section 3.1.1, executable).

    Same contract as :func:`repro.machine.from_tba.tba_to_algorithm`,
    but repeated calls on the same automaton reuse the compiled
    :class:`~repro.machine.rtalgorithm.RealTimeAlgorithm`.
    """
    from ..machine.from_tba import tba_to_algorithm

    return cached_acceptor(
        ("tba", id(tba), allow_nondeterministic),
        lambda: tba_to_algorithm(tba, allow_nondeterministic=allow_nondeterministic),
        tba,
    )


def clear_caches() -> None:
    """Drop every cached acceptor (tests and long-lived services)."""
    _CACHE.clear()
