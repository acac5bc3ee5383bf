"""The ``decide_many`` contract every backend shares.

``decide_many`` is the fan-out with no retries and no deadline: a chunk
that fails in a worker is judged again in the parent under the same
strategy, and an exception that nothing rescues reaches the caller.
These tests pin that contract on each backend, and pin that a worker
killed mid-chunk can neither hang the call nor change a report.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.engine import DecisionReport, Verdict, decide_many
from repro.obs import instrumented
from repro.shard import shutdown_pool
from repro.words import TimedWord

SRC = str(Path(__file__).resolve().parent.parent / "src")


class Boom(RuntimeError):
    """The only exception :class:`AlwaysRaises` ever raises."""


class AlwaysRaises:
    """A picklable acceptor that fails every judgement, in any process."""

    def decide(self, word, horizon=0):
        raise Boom("decide")

    def count_f(self, word, horizon):
        raise Boom("count_f")


def make_words(n):
    return [TimedWord.lasso([], [("a", 1)], shift=1) for _ in range(n)]


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.mark.parametrize("backend", ["serial", "fork", "shards"])
def test_unrescued_exception_reaches_the_caller(backend):
    with instrumented() as inst:
        with pytest.raises(Boom):
            decide_many(AlwaysRaises(), make_words(6), workers=2, backend=backend)
    batches = inst.registry.counter("engine.batches")
    if backend == "shards":
        # the shard path ran, or the fallback away from it was recorded
        fallbacks = inst.registry.counter("engine.backend_fallbacks")
        assert batches.labels(mode="shards").value == 1 or any(
            c.value for c in fallbacks.children()
        )
    else:
        assert batches.labels(mode="pool" if backend == "fork" else "serial").value == 1


POISON = TimedWord.lasso([("a", 2)], [("a", 3)], shift=1)
SLOW = TimedWord.lasso([("a", 1)], [("a", 3)], shift=1)


class PoisonAndSlow:
    """A picklable judge that raises on POISON and dawdles on SLOW.

    Every other word is judged by the parity of its rendering, so
    reports differ from word to word as well as by index.
    """

    def decide(self, word, horizon=0):
        if word == POISON:
            raise Boom("poison")
        if word == SLOW:
            time.sleep(0.5)
        verdict = Verdict.ACCEPT if len(repr(word)) % 2 else Verdict.REJECT
        return DecisionReport(verdict=verdict, horizon=horizon)


@pytest.mark.parametrize("backend", ["fork", "shards"])
def test_a_raising_batch_leaves_no_chunk_running(backend):
    # The poison chunk fails in its worker and again in the parent
    # rescue, so decide_many raises while a SLOW chunk is still running.
    judge = PoisonAndSlow()
    with pytest.raises(Boom):
        decide_many(judge, [POISON] + [SLOW] * 5, workers=2, backend=backend)
    chunk_children = [
        p for p in multiprocessing.active_children()
        if not p.name.startswith("repro-shard-")
    ]
    assert chunk_children == []
    # On shards, a reply still owed by a worker must not be read as the
    # next batch's result.
    words = [
        TimedWord.lasso([("a", i)], [("a", i + 1)], shift=1) for i in range(4, 28)
    ]
    with instrumented() as inst:
        fanned = decide_many(judge, words, workers=2, backend=backend, seed=3)
    assert fanned == decide_many(judge, words, backend="serial", seed=3)
    assert inst.registry.counter("engine.batches").labels(
        mode="pool" if backend == "fork" else backend
    ).value == 1


HANG_SCRIPT = textwrap.dedent(
    """
    import os, sys, tempfile
    from repro.automata import TimedBuchiAutomaton, TimedTransition
    from repro.engine import CrashingAcceptor, FileFuse, compiled_tba, decide_many
    from repro.kernel import Le
    from repro.words import TimedWord

    tba = TimedBuchiAutomaton(
        "a", ["s"], "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", 2))],
        ["x"], ["s"],
    )
    words = [
        TimedWord.lasso([], [("a", 1)], shift=1) if i % 2 == 0
        else TimedWord.lasso([("a", 1), ("a", 6)], [("a", 7)], shift=1)
        for i in range(24)
    ]
    fuse = FileFuse(shots=1, path=os.path.join(tempfile.mkdtemp(), "fuse"))
    crashy = CrashingAcceptor(compiled_tba(tba), fuse)
    kw = dict(horizon=200, strategy="f-rate", seed=5)
    serial = decide_many(crashy, words, backend="serial", **kw)
    forked = decide_many(crashy, words, backend="fork", workers=2, **kw)
    assert fuse.spent == 1, fuse.spent
    assert forked == serial
    print("identical")
    """
)


def test_fork_backend_survives_a_killed_worker():
    # Run in a child interpreter: a regression would hang, and the
    # timeout turns that hang into a failure instead of a stuck suite.
    proc = subprocess.run(
        [sys.executable, "-c", HANG_SCRIPT],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "identical"
