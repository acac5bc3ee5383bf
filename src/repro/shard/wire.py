"""Binary frame protocol between the shard router and its workers.

Everything a shard says or hears travels as one *frame* over a duplex
:class:`multiprocessing.connection.Connection` (socketpair under
``fork``).  A frame is::

    header  = !4s B Q I   (magic "RSH1", opcode, sequence, payload length)
    payload = pickle(obj)

The explicit header buys three things over bare ``Connection.send``:

* **Self-describing streams** — the receiver dispatches on the opcode
  before unpickling, and a corrupted or foreign frame fails loudly on
  the magic check instead of unpickling garbage;
* **Sequencing** — event frames carry a monotone per-shard sequence the
  worker echoes in its ACK, which is what the router's backpressure
  window counts;
* **Chunking** — one logical event batch is split into frames of at
  most ``chunk_events`` events (:func:`iter_chunks`), bounding both the
  pickle size and the latency before the worker starts applying.

The payloads themselves are plain data by construction: events are
``(name, symbol, t)`` tuples, checkpoints are the JSON-able dicts of
:mod:`repro.stream.checkpoint`, decisions are
:class:`~repro.engine.verdict.DecisionReport` lists, metrics are
:meth:`~repro.obs.registry.MetricRegistry.dump` entries.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Iterator, List, Sequence, Tuple

__all__ = [
    "Frame",
    "send_frame",
    "recv_frame",
    "iter_chunks",
    "WireError",
]

MAGIC = b"RSH1"
_HEADER = struct.Struct("!4sBQI")

# Opcodes: requests (router → worker) ...
OP_EVENTS = 1        # [(name, symbol, t), ...] → ingest into the mux
OP_VERDICTS = 2      # () → {name: verdict value}
OP_STATS = 3         # () → mux.stats() + session count
OP_CHECKPOINT = 4    # () → checkpoint_mux dict
OP_RESTORE = 5       # mux snapshot → rebuild the mux from it
OP_EXTRACT = 6       # [names] → {name: session entry} (removed from mux)
OP_ADOPT = 7         # {name: session entry} → restored into the mux
OP_CLOSE = 8         # (name, horizon|None) → SessionReport
OP_INSTALL_LANG = 9  # (key, kind, payload, drop_keys) → warm a language artifact
OP_DECIDE = 10       # (lang_key, lo, words, horizon, strategy, seed, metered) → reports
OP_METRICS = 11      # () → registry delta dump
OP_SHUTDOWN = 12     # () → final metrics delta, then the worker exits
OP_EVICT = 13        # (now|None, idle_ttl|None) → evicted names

# ... and replies (worker → router).
OP_ACK = 64          # echoes an OP_EVENTS sequence (payload: applied count)
OP_REPLY = 65        # the answer to any synchronous request
OP_ERR = 66          # repr of the exception the request raised

#: Default number of events per OP_EVENTS frame.
DEFAULT_CHUNK_EVENTS = 512


class WireError(RuntimeError):
    """A malformed frame (bad magic or truncated header)."""


class Frame(Tuple[int, int, Any]):
    """``(op, seq, payload)`` with named access."""

    __slots__ = ()

    def __new__(cls, op: int, seq: int, payload: Any) -> "Frame":
        return super().__new__(cls, (op, seq, payload))

    @property
    def op(self) -> int:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def payload(self) -> Any:
        return self[2]


def pack_frame(op: int, seq: int, payload: Any) -> bytes:
    """Serialize one frame (raises pickle errors for foreign payloads)."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, op, seq, len(body)) + body


def unpack_frame(data: bytes) -> Frame:
    if len(data) < _HEADER.size:
        raise WireError(f"truncated frame: {len(data)} bytes")
    magic, op, seq, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    body = data[_HEADER.size:]
    if len(body) != length:
        raise WireError(f"frame length mismatch: header {length}, got {len(body)}")
    return Frame(op, seq, pickle.loads(body))


def send_frame(conn: Any, op: int, seq: int, payload: Any) -> None:
    conn.send_bytes(pack_frame(op, seq, payload))


def recv_frame(conn: Any) -> Frame:
    """Blocking receive of one frame (EOFError when the peer died)."""
    return unpack_frame(conn.recv_bytes())


def iter_chunks(
    events: Sequence[Any], chunk_events: int = DEFAULT_CHUNK_EVENTS
) -> Iterator[List[Any]]:
    """Split one logical batch into frame-sized chunks, order kept."""
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    for lo in range(0, len(events), chunk_events):
        yield list(events[lo:lo + chunk_events])
