"""What one workload run hands back to the command line."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Result:
    #: End-to-end figures measured by this run (gated when untraced).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Per-layer figures (traced runs; counts are filled either way).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Operations offered: events fed plus verdict readouts (fleets),
    #: or transactions verified (txn-verify).
    attempted: int = 0
    #: Wrong verdicts + raised errors + dropped or late-dropped events.
    failed: int = 0
    #: False when the open loop fell behind its schedule: its latency
    #: figures then describe a growing backlog, not the program.
    valid: bool = True
    #: Human-readable lines printed above the JSON result.
    notes: List[str] = field(default_factory=list)
