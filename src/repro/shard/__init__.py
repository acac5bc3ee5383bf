"""repro.shard — persistent worker shards for engine and stream scale-out.

The paper's Section 6 parallel model distributes a real-time
computation across processors whose communication itself costs time;
this package is that model made operational for the reproduction's two
production surfaces:

* **Stream scale-out** — a :class:`ShardRouter` fans the
  :class:`~repro.stream.session.SessionMux` session table out over
  long-lived forked workers, each hosting its own warm mux (shared
  :class:`~repro.stream.monitor.TBAAnalysis` /
  :class:`~repro.stream.compiled.CompiledTBA`).  Sessions are placed by
  consistent hashing (:class:`HashRing` — deterministic, ~K/N movement
  on membership change), events travel as batched binary frames with
  ACK-window backpressure (:mod:`repro.shard.wire`), and the
  journal+checkpoint recovery discipline of
  :class:`~repro.stream.supervisor.MuxSupervisor` is enforced *per
  shard*: a SIGKILLed worker is respawned and replayed
  (:meth:`ShardRouter.recover`) or its sessions re-placed on the
  survivors (:meth:`ShardRouter.fail_over`), verdict-for-verdict.
* **Batch decide scale-out** — ``decide_many(backend="shards")`` and
  ``decide_many_resilient(backend="shards")`` submit decision chunks to
  the same kind of pool (:mod:`repro.shard.pool`), kept warm across
  calls so the per-call forks the ``fork`` backend pays disappear;
  reports stay bit-identical to the serial path.

Metrics recorded inside workers are merged back into the parent
registry (``MetricRegistry.merge`` over pipe-shipped deltas), and the
router's own ``shard.*`` series is documented in
``docs/observability.md``.  Benchmarks: ``benchmarks/bench_shards.py``.
"""

from .placement import HashRing  # noqa: F401
from .pool import (  # noqa: F401
    LanguageUnshippable,
    shared_pool,
    shutdown_pool,
)
from .router import ShardError, ShardRouter  # noqa: F401
from .wire import Frame, WireError  # noqa: F401

__all__ = [
    "HashRing",
    "ShardRouter",
    "ShardError",
    "Frame",
    "WireError",
    "LanguageUnshippable",
    "shared_pool",
    "shutdown_pool",
]
