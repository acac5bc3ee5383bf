"""repro.engine — the unified decision layer.

Every application of the paper's model ultimately asks the same
question: *given an acceptor and a timed ω-word, what is the verdict?*
Before this package, each domain answered it with a private loop —
fresh :class:`~repro.kernel.simulator.Simulator`, private horizon
convention, private report shape.  The engine separates *acceptor
compilation* from *evaluation* (the split complex-event-recognition
systems argue for) and gives every domain one substrate:

``engine.verdict``
    The shared vocabulary: :class:`Verdict` and the evidence-carrying
    :class:`DecisionReport`.
``engine.strategies``
    Pluggable decision procedures — the E14 ablation pair
    (``lasso-exact`` absorbing-verdict vs ``long-prefix-empirical``
    f-counting) plus ``f-rate`` — and the single-word :func:`decide`.
``engine.batch``
    :func:`decide_many` (chunked, seeded, deterministically-ordered
    fan-out with no retries and no deadline) and the compiled-acceptor
    LRU (:func:`cached_acceptor`, :func:`compiled_tba`).
``engine.resilience``
    The one chunk scheduler behind both batch calls, and the
    fault-tolerant entry point on it: :func:`decide_many_resilient`
    survives killed workers (chunk retries with capped backoff and
    splitting), enforces a per-batch wall-clock deadline budget, and
    degrades gracefully (serial fallback, cheaper-strategy fallback)
    with explicit evidence markers — see ``docs/architecture.md``'s
    "Failure model & recovery".
``engine.faults``
    Reproducible fault injection (process-killing, exception-raising,
    and delaying acceptor wrappers over a fork-safe
    :class:`FileFuse`) for the resilience tests and benchmarks.

The machine, deadlines, dataacc, rtdb, and adhoc decide helpers all
route through here; see ``docs/architecture.md``.
"""

from .batch import (
    AcceptorCache,
    cached_acceptor,
    clear_caches,
    compiled_tba,
    decide_many,
)
from .faults import (
    CrashingAcceptor,
    DelayingAcceptor,
    FailingAcceptor,
    FaultSchedule,
    FileFuse,
    InjectedFault,
    MessageFaults,
)
from .resilience import (
    BatchOutcome,
    DegradePolicy,
    RetryPolicy,
    decide_many_resilient,
)
from .strategies import (
    STRATEGIES,
    DecisionStrategy,
    FRate,
    FunctionAcceptor,
    LassoExact,
    LongPrefixEmpirical,
    decide,
    get_strategy,
)
from .verdict import DecisionReport, Verdict

__all__ = [
    "Verdict",
    "DecisionReport",
    "DecisionStrategy",
    "LassoExact",
    "LongPrefixEmpirical",
    "FRate",
    "FunctionAcceptor",
    "STRATEGIES",
    "get_strategy",
    "decide",
    "decide_many",
    "AcceptorCache",
    "cached_acceptor",
    "compiled_tba",
    "clear_caches",
    "decide_many_resilient",
    "RetryPolicy",
    "DegradePolicy",
    "BatchOutcome",
    "FileFuse",
    "CrashingAcceptor",
    "FailingAcceptor",
    "DelayingAcceptor",
    "InjectedFault",
    "FaultSchedule",
    "MessageFaults",
]
