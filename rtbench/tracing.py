"""Benchmark-side spans: recorded around calls into the program's layers.

A traced run wraps each public call the benchmark makes (and, where a
library call hides the layer it drives, the layer's public method
itself) in a span: name, start, end, parent span and the tick, pass or
transaction it serves.  Spans stay in memory and are written as a
Chrome trace (``ph: "X"`` complete events) when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so a ``txn.online`` span that spends
most of its time inside ``stream.ingest`` children is charged only for
what is left.

Untraced runs use :data:`NULL`, whose ``span`` is a shared no-op
context manager: the measured code is identical in both runs.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: One recorded span: (id, name, start_s, end_s, parent_id, key).
#: ``parent_id`` is -1 for a root; ``key`` is the tick, pass or
#: transaction id the span serves (or None).
Span = Tuple[int, str, float, float, int, Any]


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced run: every span is the same no-op context."""

    enabled = False

    def span(self, name: str, key: Any = None) -> _NullSpan:
        return _NULL_SPAN

    @contextmanager
    def patched(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        yield


NULL = NullTracer()


class Tracer:
    """Records nested spans in memory (single-threaded)."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, key: Any = None) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if key is None and parent >= 0:
            key = self.spans[parent][5]
        # Reserve the slot so ids follow start order.
        self.spans.append((sid, name, 0.0, 0.0, parent, key))
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, key)

    @contextmanager
    def patched(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Wrap ``owner.attr`` in a span named ``name`` while the block
        runs, so calls the program makes internally are traced too."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def self_times_by_key(self) -> Dict[Any, Dict[str, float]]:
        """Self time per span name, per tick/pass/transaction key: each
        span's duration minus the part of its interval its children
        cover."""
        out: Dict[Any, Dict[str, float]] = {}
        for sid, t in enumerate(_self_time_list(self.spans)):
            _sid, name, _s, _e, _p, key = self.spans[sid]
            row = out.setdefault(key, {})
            row[name] = row.get(name, 0.0) + t
        return out

    def layer_figures(
        self,
        pass_layers: Sequence[str] = (),
        tick_layers: Sequence[str] = (),
        setup_layers: Sequence[str] = (),
        warmup: int = 0,
    ) -> Dict[str, float]:
        """Per-layer seconds (metric name: span name + ``_s``).

        ``pass_layers``: median self time per closed-loop pass (spans
        keyed ``("pass", i)``); ``tick_layers``: mean self time per
        recorded open-loop tick (keyed ``("tick", k)``, ``k >= warmup``);
        ``setup_layers``: total self time in the set-up (keyed
        ``"setup"``).
        """
        by_key = self.self_times_by_key()
        passes = [r for k, r in by_key.items() if isinstance(k, tuple) and k[0] == "pass"]
        ticks = [
            r
            for k, r in by_key.items()
            if isinstance(k, tuple) and k[0] == "tick" and k[1] >= warmup
        ]
        setup = by_key.get("setup", {})
        out: Dict[str, float] = {}
        for name in pass_layers:
            xs = sorted(r.get(name, 0.0) for r in passes)
            n = len(xs)
            out[name + "_s"] = (xs[(n - 1) // 2] + xs[n // 2]) / 2 if n else 0.0
        for name in tick_layers:
            out[name + "_s"] = sum(r.get(name, 0.0) for r in ticks) / max(1, len(ticks))
        for name in setup_layers:
            out[name + "_s"] = setup.get(name, 0.0)
        return out

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(chrome_trace(self.spans), fh)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    )
    total = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def _self_time_list(spans: List[Span]) -> List[float]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _key in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent, _key in spans
    ]


def chrome_trace(spans: List[Span]) -> Dict[str, Any]:
    """The spans as a Chrome ``traceEvents`` document (microseconds)."""
    t0 = min((s[2] for s in spans), default=0.0)
    events = []
    for sid, name, start, end, parent, key in spans:
        args: Dict[str, Any] = {"id": sid, "parent": parent}
        if key is not None:
            args["key"] = str(key)
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
