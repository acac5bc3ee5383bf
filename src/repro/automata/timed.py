"""Timed Büchi automata (TBA) — Section 2.1, after Alur & Dill [10].

A TBA is A = (Σ, S, s₀, δ, C, F) with δ ⊆ S × S × Σ × 2^C × Φ(C).  A
transition (s, s′, a, l, d) is enabled when the guard d holds of the
clock valuation *advanced to the current input's timestamp* (the paper:
"(ν_{i−1} + τ_i − τ_{i−1}) satisfies d_i"); the clocks in l are then
reset.  Acceptance is Büchi on the run's states.

Decidability note
-----------------
The paper (and this reproduction) uses **discrete** time.  With integer
clocks and guards comparing against integer constants, two valuations
agreeing on min(value, cmax+1) for every clock satisfy exactly the same
guards forever (cmax = largest constant in any guard) — the discrete
degenerate case of the Alur–Dill region construction.  Capping clock
values at cmax+1 therefore makes the configuration space finite, and
acceptance of lasso timed words is decided by cycle search on the
finite graph of (state, capped valuation, loop position) — the same
shape as :meth:`BuchiAutomaton.accepts_lasso`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..kernel.clock import And, ClockConstraint, Ge, Le, Not, TrueConstraint
from ..words.timedword import TimedWord

__all__ = ["TimedTransition", "TimedBuchiAutomaton", "max_constant", "gap_mask"]

State = Any
Symbol = Any
Config = Tuple[State, Tuple[int, ...]]

#: A lowered guard: capped valuation -> bitmask over the gap classes.
GapMask = Callable[[Tuple[int, ...]], int]


@dataclass(frozen=True)
class TimedTransition:
    """(s, s′, a, l, d): source, target, symbol, reset set, guard."""

    source: State
    target: State
    symbol: Symbol
    resets: FrozenSet[str]
    guard: ClockConstraint

    @staticmethod
    def make(
        source: State,
        target: State,
        symbol: Symbol,
        resets: Iterable[str] = (),
        guard: Optional[ClockConstraint] = None,
    ) -> "TimedTransition":
        return TimedTransition(
            source, target, symbol, frozenset(resets), guard or TrueConstraint()
        )


def max_constant(guard: ClockConstraint) -> int:
    """Largest constant compared against in a Φ(X) constraint."""
    if isinstance(guard, (Le, Ge)):
        return int(guard.bound)
    if isinstance(guard, Not):
        return max_constant(guard.inner)
    if isinstance(guard, And):
        return max(max_constant(guard.left), max_constant(guard.right))
    return 0


def gap_mask(
    guard: ClockConstraint,
    clocks: Tuple[str, ...],
    cap: int,
    memo: Optional[Dict[ClockConstraint, GapMask]] = None,
) -> GapMask:
    """Lower a Φ(X) guard to ν ↦ the gap classes ``g`` in ``0..cap``
    (bit ``g`` of the mask) under which it holds of ``min(ν + g, cap)``.

    Integer time makes each atom a threshold on ``g``: ``x ≤ b`` holds
    for ``g ≤ ⌊b⌋ − ν(x)`` and ``b ≤ x`` for ``g ≥ ⌈b⌉ − ν(x)``.  Both
    stay exact under the cap while ``⌊b⌋ < cap`` (resp. ``⌈b⌉ ≤ cap``),
    which ``cap = cmax + 1`` guarantees for integer constants; past it
    the atom is constant.  ``¬`` and ``∧`` are bit operations, so a
    guard costs one evaluation per valuation instead of one per gap.
    Equal sub-guards share one lowering through ``memo`` (product
    automata repeat them across thousands of transitions).
    """
    if memo is None:
        memo = {}
    got = memo.get(guard)
    if got is None:
        got = memo[guard] = _lower(guard, clocks, cap, memo)
    return got


def _lower(
    guard: ClockConstraint,
    clocks: Tuple[str, ...],
    cap: int,
    memo: Dict[ClockConstraint, GapMask],
) -> GapMask:
    full = (1 << (cap + 1)) - 1
    if isinstance(guard, TrueConstraint):
        return lambda vals: full
    if isinstance(guard, Le):
        i = clocks.index(guard.clock)
        b = math.floor(guard.bound)
        if b >= cap:
            return lambda vals: full
        return lambda vals: (1 << max(0, b - vals[i] + 1)) - 1
    if isinstance(guard, Ge):
        i = clocks.index(guard.clock)
        b = math.ceil(guard.bound)
        if b > cap:
            return lambda vals: 0

        def at_least(vals: Tuple[int, ...]) -> int:
            k = max(0, b - vals[i])
            return full >> k << k

        return at_least
    if isinstance(guard, Not):
        inner = gap_mask(guard.inner, clocks, cap, memo)
        return lambda vals: full ^ inner(vals)
    if isinstance(guard, And):
        left = gap_mask(guard.left, clocks, cap, memo)
        right = gap_mask(guard.right, clocks, cap, memo)
        return lambda vals: left(vals) & right(vals)
    raise TypeError(f"cannot lower guard {guard!r} to gap classes")


class TimedBuchiAutomaton:
    """A timed Büchi automaton over discrete time."""

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[State],
        initial: State,
        transitions: Iterable[TimedTransition],
        clocks: Iterable[str],
        accepting: Iterable[State],
    ):
        self.alphabet = frozenset(alphabet)
        self.states = frozenset(states)
        self.initial = initial
        self.clocks = tuple(sorted(set(clocks)))
        self.transitions: List[TimedTransition] = list(transitions)
        self.accepting = frozenset(accepting)
        for tr in self.transitions:
            if tr.source not in self.states or tr.target not in self.states:
                raise ValueError(f"transition {tr} uses unknown states")
            if tr.symbol not in self.alphabet:
                raise ValueError(f"transition {tr} uses unknown symbol {tr.symbol!r}")
            unknown = tr.resets - set(self.clocks)
            if unknown:
                raise ValueError(f"transition {tr} resets unknown clocks {unknown}")
            unknown = tr.guard.clocks() - set(self.clocks)
            if unknown:
                raise ValueError(f"guard of {tr} reads unknown clocks {unknown}")
        self._cmax = max(
            (max_constant(tr.guard) for tr in self.transitions), default=0
        )
        self._by_source: Dict[Tuple[State, Symbol], List[TimedTransition]] = {}
        for tr in self.transitions:
            self._by_source.setdefault((tr.source, tr.symbol), []).append(tr)

    # -- run machinery ----------------------------------------------------
    def _cap(self, value: int) -> int:
        """Region abstraction for discrete time: values past cmax merge."""
        return min(value, self._cmax + 1)

    def _initial_config(self) -> Tuple[State, Tuple[int, ...]]:
        return (self.initial, tuple(0 for _ in self.clocks))

    def _step_configs(
        self,
        configs: Set[Tuple[State, Tuple[int, ...]]],
        symbol: Symbol,
        gap: int,
        capped: bool = True,
    ) -> Set[Tuple[State, Tuple[int, ...]]]:
        """All successor configurations on reading (symbol, +gap)."""
        out: Set[Tuple[State, Tuple[int, ...]]] = set()
        for state, vals in configs:
            advanced = {
                c: (self._cap(v + gap) if capped else v + gap)
                for c, v in zip(self.clocks, vals)
            }
            for tr in self._by_source.get((state, symbol), ()):
                if not tr.guard.evaluate(advanced):
                    continue
                nxt = tuple(
                    0 if c in tr.resets else advanced[c] for c in self.clocks
                )
                out.add((tr.target, nxt))
        return out

    def gap_relation(
        self, symbols: Sequence[Symbol]
    ) -> Callable[[Config], List[List[Tuple[Config, ...]]]]:
        """The successor relation over every gap class, one config at a time.

        Returns ``successors`` with ``successors(config)[k][g]`` holding,
        without repeats, the configurations
        ``_step_configs({config}, symbols[k], g)`` returns, for every
        gap class ``g`` in ``0..cmax+1``.  Guards are lowered here, once
        (:func:`gap_mask`), and evaluated once per (config, transition);
        only the enabled gap classes build a successor.  The lowered
        guards live as long as the returned function.
        """
        cap = self._cmax + 1
        memo: Dict[ClockConstraint, GapMask] = {}
        lowered = {
            key: [
                (
                    tr.target,
                    tuple(c in tr.resets for c in self.clocks),
                    gap_mask(tr.guard, self.clocks, cap, memo),
                )
                for tr in trs
            ]
            for key, trs in self._by_source.items()
        }
        zeros = [0] * (cap + 1)
        empty: Tuple[Config, ...] = ()

        def successors(config: Config) -> List[List[Tuple[Config, ...]]]:
            state, vals = config
            # Per clock, its value after +g for every g; then, per reset
            # pattern, the valuations after (+g, reset) for every g.
            columns = [list(range(v, cap)) + [cap] * (v + 1) for v in vals]
            views: Dict[Tuple[bool, ...], List[Tuple[int, ...]]] = {}
            out: List[List[Tuple[Config, ...]]] = []
            for symbol in symbols:
                cells = [empty] * (cap + 1)
                for target, resets, mask_of in lowered.get((state, symbol), ()):
                    mask = mask_of(vals)
                    if not mask:
                        continue
                    view = views.get(resets)
                    if view is None:
                        view = views[resets] = (
                            list(zip(*(zeros if r else col for col, r in zip(columns, resets))))
                            if vals
                            else [()] * (cap + 1)
                        )
                    lo = (mask & -mask).bit_length() - 1
                    for g in range(lo, mask.bit_length()):
                        if mask >> g & 1:
                            nxt = (target, view[g])
                            cell = cells[g]
                            if not cell:
                                cells[g] = (nxt,)
                            elif nxt not in cell:
                                cells[g] = cell + (nxt,)
                out.append(cells)
            return out

        return successors

    def configs_after_prefix(
        self, word: TimedWord, n: int, capped: bool = True
    ) -> Set[Tuple[State, Tuple[int, ...]]]:
        """Reachable (state, valuation) set after the first n pairs."""
        configs = {self._initial_config()}
        prev_t = 0
        for i in range(n):
            s, t = word[i]
            configs = self._step_configs(configs, s, t - prev_t, capped=capped)
            prev_t = t
            if not configs:
                break
        return configs

    def has_run_over_prefix(self, word: TimedWord, n: int) -> bool:
        """Is there any run of the TBA over the first n pairs?"""
        return bool(self.configs_after_prefix(word, n))

    # -- Büchi acceptance on lasso timed words --------------------------------
    def accepts_lasso(self, word: TimedWord) -> bool:
        """Büchi acceptance of a lasso timed word, decided exactly.

        Requires ``word`` to be in lasso form.  Works on configurations
        (state, capped valuation, loop position); per the module
        docstring the capping is exact for integer time, so acceptance
        ⟺ some reachable configuration lies on a configuration cycle
        through an accepting state.

        For shift-0 lassos the per-step gaps are eventually all zero,
        which the same construction handles (the gap sequence is
        periodic either way).
        """
        if word.fn is not None or word.is_finite:
            raise ValueError("accepts_lasso needs a lasso TimedWord")
        k = len(word.loop)
        p0 = len(word.prefix)

        # gap entering loop position j (from the previous pair)
        def loop_gap(j: int) -> int:
            idx = p0 + k + j  # use the 2nd iteration so the previous pair exists
            return word.time_at(idx) - word.time_at(idx - 1)

        gaps = [loop_gap(j) for j in range(k)]

        # configurations after the prefix AND one full loop iteration
        # (so that every subsequent step uses the periodic gap pattern)
        start_confs = {
            (s, v, 0)
            for (s, v) in self.configs_after_prefix(word, p0 + k)
        }
        if not start_confs:
            return False

        def succ(conf: Tuple[State, Tuple[int, ...], int]):
            state, vals, pos = conf
            symbol = word.loop[pos][0]
            nxt_set = self._step_configs({(state, vals)}, symbol, gaps[pos])
            np = (pos + 1) % k
            for s2, v2 in nxt_set:
                yield (s2, v2, np)

        reach: Set[Tuple[State, Tuple[int, ...], int]] = set(start_confs)
        frontier = deque(start_confs)
        while frontier:
            c = frontier.popleft()
            for nxt in succ(c):
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)

        for acc in (c for c in reach if c[0] in self.accepting):
            seen: Set[Tuple[State, Tuple[int, ...], int]] = set()
            q = deque(succ(acc))
            while q:
                c = q.popleft()
                if c == acc:
                    return True
                if c in seen:
                    continue
                seen.add(c)
                q.extend(succ(c))
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TimedBuchiAutomaton(|S|={len(self.states)}, |C|={len(self.clocks)}, "
            f"|δ|={len(self.transitions)}, cmax={self._cmax})"
        )
