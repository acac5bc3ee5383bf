"""Compiled TBA stepping: dense transition tables over configurations.

The interpreted hot path (:meth:`TimedBuchiAutomaton._step_configs`)
rebuilds a clock-valuation dict and re-evaluates every guard AST per
event — Python-sized constants on an O(state) algorithm.  This module
compiles a :class:`~repro.stream.monitor.TBAAnalysis` once into dense
numpy artifacts so that stepping becomes array lookups:

* **Configuration index** — the analysis' finite capped-configuration
  universe, sorted for determinism, plus a *trap* index ``n`` standing
  for the empty configuration set (every run died).  The trap is
  absorbing by construction: its table row maps every (symbol, gap)
  back to the trap.
* **Transition table** — ``table[config, symbol, gap_class]`` →
  successor config index, shape ``(n+1, |Σ|+1, cmax+2)`` int32, built
  only when the stepping relation is deterministic (≤ 1 successor per
  cell).  Column ``|Σ|`` is the *unknown-symbol* column (a symbol
  outside the alphabet kills every run, exactly as the interpreter's
  empty transition list does) and gap classes are capped at ``cmax+1``
  (capped valuations make larger gaps indistinguishable — the discrete
  region argument of :mod:`repro.automata.timed`).
* **Successor bitsets** — for nondeterministic stepping,
  ``succ_int[config][symbol][gap_class]`` is the successor *set* as a
  Python-int bitset (arbitrary-precision ``int`` or-ing beats per-word
  numpy calls in the scalar loop); equal cells share one int.  The
  analysis' liveness backward-closure and green forward-closure land
  in matching flag arrays / masks, so the three-valued judgement is
  two boolean lookups.

Both are read off the analysis' gap-class rows
(:class:`~repro.stream.monitor.TBAAnalysis`), so compiling re-runs no
part of the successor relation.

:func:`compiled_for` is the gated entry point: it returns ``None`` —
and the monitors fall back to the interpreter, verdict-identically —
when numpy is absent, when ``REPRO_STREAM_COMPILED=0`` disables the
path, or when the automaton exceeds the table bounds.  Outcomes are
counted under ``stream.compile`` / ``stream.compile_fallbacks``
(see ``docs/observability.md``); the cost model and measured speedups
are documented in ``docs/performance.md``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from ..obs import hooks as _obs

try:  # pragma: no cover - exercised via the fallback tests' monkeypatch
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: The numpy module, or None.  Tests monkeypatch this to simulate a
#: numpy-absent interpreter and pin the fallback behaviour.
NUMPY = _numpy

__all__ = [
    "CompiledTBA",
    "compiled_for",
    "compilation_enabled",
    "MAX_CONFIGS",
    "MAX_TABLE_CELLS",
    "ENV_TOGGLE",
]

#: Compilation bounds: automata whose configuration universe (or dense
#: table) would exceed these fall back to the interpreter.
MAX_CONFIGS = 4096
MAX_TABLE_CELLS = 1 << 22

#: Environment toggle: set to ``0`` to force the interpreted path
#: (the CI stream-smoke job runs the suite both ways).
ENV_TOGGLE = "REPRO_STREAM_COMPILED"

_CACHE_ATTR = "_compiled_tba_cache"


def compilation_enabled() -> bool:
    """Numpy present and the env toggle not set to off."""
    return NUMPY is not None and os.environ.get(ENV_TOGGLE, "1").lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


class CompiledTBA:
    """Dense-table compilation of one :class:`TBAAnalysis`.

    Attributes (``n`` configurations, ``S`` symbols, ``G = cmax+2`` gap
    classes, ``trap = n``):

    ``table`` / ``table_list``
        int32 ``(n+1, S+1, G)`` deterministic successor table (numpy
        array and its nested-list mirror for the scalar hot loop);
        ``None`` when the stepping relation is nondeterministic.
    ``succ_int``
        Python-int successor bitsets ``[config][symbol][gap]`` for
        nondeterministic automata; ``None`` for deterministic ones.
    ``accepting_flags`` / ``live_flags`` / ``green_flags``
        bool ``(n+1,)`` flag arrays (trap row False) with nested-list
        mirrors ``*_list`` and packed-int masks ``*_mask``.
    """

    def __init__(self, analysis: Any):
        if NUMPY is None:
            raise RuntimeError("CompiledTBA requires numpy")
        np = NUMPY
        tba = analysis.tba
        self.analysis = analysis
        self.tba = tba
        self.configs: List[Tuple[Any, Tuple[int, ...]]] = sorted(
            analysis.universe, key=repr
        )
        self.index: Dict[Any, int] = {c: i for i, c in enumerate(self.configs)}
        self.symbols: List[Any] = analysis.symbols
        #: Symbol → table column; indexing with any other symbol yields
        #: the unknown-symbol column (``get`` still returns None).
        self.sym_index: Dict[Any, int] = _Columns(
            (s, i) for i, s in enumerate(self.symbols)
        )
        self.gap_cap = tba._cmax + 1
        n = len(self.configs)
        S = len(self.symbols)
        G = self.gap_cap + 1
        self.n_configs = n
        self.n_symbols = S
        self.n_gaps = G
        self.trap = n
        self.deterministic = analysis.deterministic
        # analysis (BFS) index -> repr-sorted index
        perm = [self.index[c] for c in analysis.configs]

        flags = np.zeros(n + 1, dtype=bool)
        for i, c in enumerate(self.configs):
            flags[i] = c[0] in tba.accepting
        self.accepting_flags = flags
        self.live_flags = np.zeros(n + 1, dtype=bool)
        for c in analysis.live:
            self.live_flags[self.index[c]] = True
        self.green_flags = np.zeros(n + 1, dtype=bool)
        for c in analysis.green:
            self.green_flags[self.index[c]] = True
        self.accepting_list = self.accepting_flags.tolist()
        self.live_list = self.live_flags.tolist()
        self.green_list = self.green_flags.tolist()
        self.accepting_mask = self._pack(self.accepting_flags[:n])
        self.live_mask = self._pack(self.live_flags[:n])
        self.green_mask = self._pack(self.green_flags[:n])

        trap = self.trap
        if self.deterministic:
            table_list: List[Any] = [None] * (n + 1)
            for i, per_symbol in enumerate(analysis.rows):
                table_list[perm[i]] = [
                    [perm[cell[0]] if cell else trap for cell in row]
                    for row in per_symbol
                ] + [[trap] * G]
            table_list[trap] = [[trap] * G for _ in range(S + 1)]
            self.table = np.array(table_list, dtype=np.int32)
            self.table_list = table_list
            self.succ_int = None
        else:
            masks = {
                cell: sum(1 << perm[j] for j in cell)
                for cell in {c for per in analysis.rows for row in per for c in row}
            }
            succ_int: List[Any] = [None] * n
            for i, per_symbol in enumerate(analysis.rows):
                succ_int[perm[i]] = [[masks[c] for c in row] for row in per_symbol]
            self.succ_int = succ_int
            self.table = None
            self.table_list = None

        self.initial_index = self.index[tba._initial_config()]

    def flag_view(
        self, accepting: Any, live: Any, green: Any
    ) -> Tuple[List[bool], List[bool], List[bool]]:
        """Flag lists for an alternative accepting projection over the
        *same* configuration universe (trap row False), memoized per
        projection.

        This is how one compiled table serves many queries at once: a
        :class:`~repro.query.plan.QueryPlan` registers one view per
        query channel (accepting/live/green sets from
        :meth:`TBAAnalysis.live_for` / ``green_for``), every view
        indexes the shared ``table``, and stepping stays one gather per
        event regardless of how many queries are being judged.
        """
        key = (frozenset(accepting), frozenset(live), frozenset(green))
        cache: Dict[Any, Any] = self.__dict__.setdefault("_flag_views", {})
        got = cache.get(key)
        if got is None:
            n = self.n_configs
            acc = [False] * (n + 1)
            lv = [False] * (n + 1)
            gr = [False] * (n + 1)
            for c in key[0]:
                acc[self.index[c]] = True
            for c in key[1]:
                lv[self.index[c]] = True
            for c in key[2]:
                gr[self.index[c]] = True
            got = cache[key] = (acc, lv, gr)
        return got

    def _pack(self, flags: Any) -> int:
        """A boolean flag vector as one Python-int bitset."""
        mask = 0
        for i, f in enumerate(flags.tolist()):
            if f:
                mask |= 1 << i
        return mask

    # -- encoding ----------------------------------------------------------
    def encode_set(self, configs: Any) -> int:
        """A configuration frozenset as a bitset (KeyError if unknown)."""
        mask = 0
        for c in configs:
            mask |= 1 << self.index[c]
        return mask

    def decode_set(self, mask: int) -> frozenset:
        """A bitset back into the configuration frozenset."""
        out = set()
        while mask:
            low = mask & -mask
            out.add(self.configs[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # -- stepping ----------------------------------------------------------
    def step_index(self, ci: int, symbol: Any, gap: int) -> int:
        """One deterministic step: config index → successor index."""
        si = self.sym_index[symbol]
        if gap > self.gap_cap:
            gap = self.gap_cap
        return self.table_list[ci][si][gap]

    def step_mask(self, mask: int, symbol: Any, gap: int) -> int:
        """One nondeterministic step on a configuration bitset."""
        si = self.sym_index.get(symbol)
        if si is None:
            return 0
        if gap > self.gap_cap:
            gap = self.gap_cap
        succ = self.succ_int
        out = 0
        while mask:
            low = mask & -mask
            out |= succ[low.bit_length() - 1][si][gap]
            mask ^= low
        return out

    # -- lasso acceptance --------------------------------------------------
    def accepts_lasso(self, word: Any) -> bool:
        """Büchi acceptance of a lasso timed word via the tables.

        Mirrors :meth:`TimedBuchiAutomaton.accepts_lasso` exactly (the
        differential suite pins the agreement): step the prefix plus
        one loop iteration, then search the (config × loop-position)
        product graph for an accepting cycle — a closed walk on the
        deterministic path, a bitset BFS on the nondeterministic one.
        """
        if word.fn is not None or word.is_finite:
            raise ValueError("accepts_lasso needs a lasso TimedWord")
        k = len(word.loop)
        p0 = len(word.prefix)
        gaps = []
        for j in range(k):
            idx = p0 + k + j
            gaps.append(word.time_at(idx) - word.time_at(idx - 1))
        loop_syms = [pair[0] for pair in word.loop]

        if self.deterministic:
            ci = self.initial_index
            prev_t = 0
            for i in range(p0 + k):
                s, t = word[i]
                ci = self.step_index(ci, s, t - prev_t)
                prev_t = t
                if ci == self.trap:
                    return False
            # Deterministic walk: the (config, position) trajectory
            # eventually cycles; accept iff the cycle visits F.
            seen: Dict[Tuple[int, int], int] = {}
            trail: List[Tuple[int, int]] = []
            pos = 0
            node = (ci, pos)
            while node not in seen:
                if node[0] == self.trap:
                    return False
                seen[node] = len(trail)
                trail.append(node)
                nxt = self.step_index(node[0], loop_syms[node[1]], gaps[node[1]])
                node = (nxt, (node[1] + 1) % k)
            start = seen[node]
            return any(self.accepting_list[c] for c, _p in trail[start:])

        start_mask = 1 << self.initial_index
        prev_t = 0
        for i in range(p0 + k):
            s, t = word[i]
            start_mask = self.step_mask(start_mask, s, t - prev_t)
            prev_t = t
            if not start_mask:
                return False
        # reach[pos] = bitset of configs reachable at that loop position
        reach: List[int] = [0] * k
        reach[0] = start_mask
        frontier = [(0, start_mask)]
        while frontier:
            pos, mask = frontier.pop()
            nxt = self.step_mask(mask, loop_syms[pos], gaps[pos])
            np_ = (pos + 1) % k
            new = nxt & ~reach[np_]
            if new:
                reach[np_] |= new
                frontier.append((np_, new))
        for pos in range(k):
            acc = reach[pos] & self.accepting_mask
            while acc:
                low = acc & -acc
                acc ^= low
                if self._on_product_cycle(low.bit_length() - 1, pos, loop_syms, gaps):
                    return True
        return False

    def _on_product_cycle(
        self, ci: int, pos: int, loop_syms: List[Any], gaps: List[int]
    ) -> bool:
        k = len(loop_syms)
        seen: List[int] = [0] * k
        frontier = [(pos, 1 << ci)]
        while frontier:
            p, mask = frontier.pop()
            nxt = self.step_mask(mask, loop_syms[p], gaps[p])
            np_ = (p + 1) % k
            if np_ == pos and nxt & (1 << ci):
                return True
            new = nxt & ~seen[np_]
            if new:
                seen[np_] |= new
                frontier.append((np_, new))
        return False


def compiled_for(analysis: Any) -> Optional[CompiledTBA]:
    """The cached :class:`CompiledTBA` for one analysis, or ``None``.

    Fallback (returns ``None``, counted under
    ``stream.compile_fallbacks``) when numpy is absent, when
    ``REPRO_STREAM_COMPILED=0``, or when the automaton exceeds
    :data:`MAX_CONFIGS` / :data:`MAX_TABLE_CELLS`.  The compiled artifact
    is memoized *on the analysis object*, so every session sharing the
    analysis shares one compilation (the one-build-per-language
    invariant of ``tests/test_stream_compiled.py``).
    """
    h = _obs.HOOKS
    if NUMPY is None:
        if h is not None:
            h.count("stream.compile", outcome="fallback")
            h.count("stream.compile_fallbacks", reason="numpy-absent")
        return None
    if not compilation_enabled():
        if h is not None:
            h.count("stream.compile", outcome="fallback")
            h.count("stream.compile_fallbacks", reason="disabled")
        return None
    cached = analysis.__dict__.get(_CACHE_ATTR, _MISSING)
    if cached is not _MISSING:
        if h is not None:
            h.count(
                "stream.compile",
                outcome="cached" if cached is not None else "fallback",
            )
            if cached is None:
                h.count("stream.compile_fallbacks", reason="bounds")
        return cached
    n = len(analysis.universe)
    tba = analysis.tba
    cells = (n + 1) * (len(tba.alphabet) + 1) * (tba._cmax + 2)
    if n > MAX_CONFIGS or cells > MAX_TABLE_CELLS:
        setattr(analysis, _CACHE_ATTR, None)
        if h is not None:
            h.count("stream.compile", outcome="fallback")
            h.count("stream.compile_fallbacks", reason="bounds")
        return None
    comp = CompiledTBA(analysis)
    setattr(analysis, _CACHE_ATTR, comp)
    if h is not None:
        h.count("stream.compile", outcome="built")
    return comp


class _Columns(dict):
    def __missing__(self, _symbol: Any) -> int:
        return len(self)


class _Missing:
    pass


_MISSING = _Missing()
