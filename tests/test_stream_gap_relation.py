"""The one-pass gap-class successor relation, pinned to the interpreter.

`TBAAnalysis` builds a TBA's capped configuration graph in one pass:
guards are lowered to gap-class bitmasks
(`repro.automata.timed.gap_mask`), `TimedBuchiAutomaton.gap_relation`
yields every gap class of a (config, symbol) pair at once, and
`CompiledTBA` compiles its table / `succ_int` from the analysis' rows.
The interpreter, `TimedBuchiAutomaton._step_configs` called once per
(config, symbol, gap class), is the oracle here: universe, determinism
and every cell must agree, on

* the ten txn property languages (`repro.txn.properties_for`);
* the five-query request/response plan (5 clocks, 1,454 transitions);
* seeded random TBAs with nested `Not`/`And` guards, half-integer
  bounds, partial and full resets, empty cells, and no clocks at all.

Liveness and green sets of the random TBAs are also checked against a
straightforward fixpoint reference.  The build must never call the
interpreter (a count guard, not a timing guard), and must not need
numpy.  The CI stream-smoke job also runs this file with
``REPRO_STREAM_COMPILED=0``.
"""

import random
from collections import deque

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import clear_caches
from repro.kernel import And, Ge, Le, Not, Or, TrueConstraint, eq, gt, lt
from repro.obs import install, uninstall
from repro.query import Q, QueryPlan
from repro.spec.compile import to_tba
from repro.stream import TBAAnalysis, analysis_for, compiled_for
from repro.stream import compiled as compiled_mod
from repro.txn import PROTOCOLS, TxnConfig, properties_for

TXN_CFG = TxnConfig(n_participants=3, d_lo=1, d_hi=2)


def txn_tba(protocol, name):
    prop = properties_for(TXN_CFG, protocol)[name]
    return to_tba(prop.spec, prop.alphabet)


TXN_LANGUAGES = [
    (proto, name) for proto in PROTOCOLS for name in properties_for(TXN_CFG, proto)
]


def random_guard(rng, clocks, depth=2):
    if not clocks:
        return TrueConstraint()
    c = rng.choice(clocks)
    k = rng.randrange(6)
    if rng.random() < 0.15:
        k += 0.5
    r = rng.random()
    if depth <= 0 or r < 0.45:
        return rng.choice(
            (TrueConstraint(), Le(c, k), Ge(c, k), lt(c, k), gt(c, k), eq(c, k))
        )
    left = random_guard(rng, clocks, depth - 1)
    if r < 0.65:
        return Not(left)
    right = random_guard(rng, clocks, depth - 1)
    return And(left, right) if r < 0.85 else Or(left, right)


def random_tba(seed):
    """A raw TBA with nested guards and every reset shape.  Two seeds
    in three draw 0-3 edges per (state, symbol) pair, so cells may be
    empty or hold several successors; every third seed splits each pair
    into a guard and its negation, so stepping is deterministic and
    total and the green set is usually non-empty."""
    rng = random.Random(seed)
    clocks = ("x", "y", "z")[: rng.choice((0, 1, 1, 2, 2, 3, 3))]
    states = list(range(rng.randrange(2, 5)))
    alphabet = ("a", "b", "c")[: rng.randrange(1, 4)]

    def resets():
        shape = rng.random()
        if shape < 0.3:
            return ()
        if shape < 0.5:
            return clocks
        return [c for c in clocks if rng.random() < 0.5]

    transitions = []
    for s in states:
        for a in alphabet:
            if seed % 3 == 0:
                guard = random_guard(rng, clocks)
                guards = (guard, Not(guard))
            else:
                guards = [
                    random_guard(rng, clocks)
                    for _ in range(rng.choice((0, 1, 1, 2, 3)))
                ]
            for guard in guards:
                transitions.append(
                    TimedTransition.make(
                        s, rng.choice(states), a, resets=resets(), guard=guard
                    )
                )
    accepting = [s for s in states if rng.random() < 0.5] or [states[-1]]
    return TimedBuchiAutomaton(alphabet, states, 0, transitions, clocks, accepting)


def plan_tba():
    plan = QueryPlan(
        {
            f"rsp-within-{w}": Q.event("req").within(2).then("rsp").within(w).repeat()
            for w in (4, 5, 6, 7, 8)
        }
    )
    return plan.tba


def oracle(tba):
    """Every reachable configuration's cells, by the interpreter:
    ``cells[c][k][g] == _step_configs({c}, symbols[k], g)``."""
    symbols = sorted(tba.alphabet, key=repr)
    gaps = range(tba._cmax + 2)
    init = tba._initial_config()
    cells = {}
    queue = deque([init])
    seen = {init}
    while queue:
        c = queue.popleft()
        row = [[tba._step_configs({c}, a, g) for g in gaps] for a in symbols]
        cells[c] = row
        for per_gap in row:
            for out in per_gap:
                for s in out - seen:
                    seen.add(s)
                    queue.append(s)
    return cells


def assert_relation(tba):
    """The analysis' rows and the compiled cells equal the oracle;
    returns the analysis and the oracle's cells."""
    expected = oracle(tba)
    analysis = TBAAnalysis(tba)
    assert analysis.universe == set(expected)
    assert analysis.deterministic == all(
        len(out) <= 1 for row in expected.values() for per in row for out in per
    )
    configs = analysis.configs
    for i, c in enumerate(configs):
        got = [[{configs[j] for j in cell} for cell in row] for row in analysis.rows[i]]
        assert got == expected[c], c

    comp = compiled_for(analysis)
    if comp is None:
        return analysis, expected
    assert comp.configs == sorted(expected, key=repr)
    assert comp.deterministic == analysis.deterministic
    index = comp.index
    for c, row in expected.items():
        if comp.deterministic:
            got = comp.table_list[index[c]]
            want = [
                [index[next(iter(out))] if out else comp.trap for out in per_gap]
                for per_gap in row
            ]
        else:
            got = comp.succ_int[index[c]]
            want = [[sum(1 << index[s] for s in out) for out in per_gap] for per_gap in row]
        assert got[: len(row)] == want, c
    if comp.deterministic:
        assert comp.table.tolist() == comp.table_list
        assert all(t == comp.trap for t in comp.table[:, -1, :].ravel())
        assert all(t == comp.trap for t in comp.table[comp.trap].ravel())
    return analysis, expected


@pytest.mark.parametrize(
    "protocol,name", TXN_LANGUAGES, ids=[f"{p}/{n}" for p, n in TXN_LANGUAGES]
)
def test_txn_language_relation(protocol, name):
    assert_relation(txn_tba(protocol, name))


def test_query_plan_relation():
    tba = plan_tba()
    assert len(tba.clocks) == 5 and len(tba.transitions) == 1454
    assert_relation(tba)


def reference_live_green(cells, accepting, deterministic):
    """Liveness and green sets by plain fixpoints over the oracle graph."""
    adj = {
        c: {s for per in row for out in per for s in out} for c, row in cells.items()
    }

    def on_cycle(c):
        seen, queue = set(), deque(adj[c])
        while queue:
            d = queue.popleft()
            if d == c:
                return True
            if d not in seen:
                seen.add(d)
                queue.extend(adj[d])
        return False

    live = {c for c in accepting if on_cycle(c)}
    grew = True
    while grew:
        new = {c for c in cells if c not in live and adj[c] & live}
        live |= new
        grew = bool(new)
    if not deterministic:
        return live, set()
    total = set(cells)
    shrank = True
    while shrank:
        drop = {
            c
            for c in total
            if not all(out & total for per in cells[c] for out in per)
        }
        total -= drop
        shrank = bool(drop)
    bad = total - accepting
    shrank = True
    while shrank:
        drop = {c for c in bad if not adj[c] & bad}
        bad -= drop
        shrank = bool(drop)
    unsafe = set(bad)
    grew = True
    while grew:
        new = {c for c in total if c not in unsafe and adj[c] & unsafe}
        unsafe |= new
        grew = bool(new)
    return live, total - unsafe


@pytest.mark.parametrize("seed", range(60))
def test_random_tba_relation(seed):
    tba = random_tba(seed)
    analysis, cells = assert_relation(tba)
    live, green = reference_live_green(
        cells, set(analysis.accepting), analysis.deterministic
    )
    assert analysis.live == live
    assert analysis.green == green
    # Alternative accepting projections (how a query plan reads
    # per-channel verdicts) share the cached cycle and totality passes.
    for state in sorted(tba.states):
        acc = frozenset(c for c in analysis.universe if c[0] == state)
        live, green = reference_live_green(cells, acc, analysis.deterministic)
        assert analysis.live_for(acc) == live, state
        assert analysis.green_for(acc) == green, state


def test_random_corpus_covers_the_awkward_shapes():
    """The seeds above really exercise empty cells, both kinds of
    stepping, every reset shape and non-empty green sets."""
    kinds = set()
    for seed in range(60):
        tba = random_tba(seed)
        analysis = TBAAnalysis(tba)
        kinds.add("det" if analysis.deterministic else "nondet")
        if not tba.clocks:
            kinds.add("clockless")
        if analysis.green:
            kinds.add("green")
        if any(not cell for per in analysis.rows for row in per for cell in row):
            kinds.add("empty")
        if any(not tr.resets for tr in tba.transitions):
            kinds.add("no-reset")
        if any(tr.resets == frozenset(tba.clocks) for tr in tba.transitions):
            kinds.add("full-reset")
        if any(0 < len(tr.resets) < len(tba.clocks) for tr in tba.transitions):
            kinds.add("partial-reset")
    assert kinds == {
        "det",
        "nondet",
        "green",
        "clockless",
        "empty",
        "no-reset",
        "full-reset",
        "partial-reset",
    }


def test_analysis_needs_no_numpy(monkeypatch):
    monkeypatch.setattr(compiled_mod, "NUMPY", None)
    for tba in (txn_tba("2pc", "fast"), random_tba(3)):
        analysis, _ = assert_relation(tba)
        assert compiled_for(analysis) is None


def test_build_never_calls_the_interpreter(monkeypatch):
    """Count guard: building the analysis and the compiled tables calls
    `_step_configs` zero times, and each language is analysed once."""
    clear_caches()
    tbas = [txn_tba("2pc", "commit"), txn_tba("2pc", "fast"), random_tba(7)]

    def refuse(*args, **kwargs):
        raise AssertionError("the build called the interpreter")

    monkeypatch.setattr(TimedBuchiAutomaton, "_step_configs", refuse)
    inst = install()
    try:
        for tba in tbas:
            analysis = analysis_for(tba)
            assert analysis_for(tba) is analysis
            comp = compiled_for(analysis)
            assert (comp is None) == (not compiled_mod.compilation_enabled())
            analysis.live_for(analysis.accepting)
            analysis.green_for(analysis.accepting)
        builds = inst.registry.counter("stream.analysis_builds").value
        assert builds == len(tbas)
    finally:
        uninstall()
        clear_caches()
