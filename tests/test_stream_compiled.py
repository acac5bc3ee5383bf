"""Differential suite: compiled TBA stepping vs the interpreter.

The compiled path (`src/repro/stream/compiled.py`) is only allowed to
exist because it is verdict-identical to the interpreted one.  These
tests pin that, adversarially: random timed words (including foreign
symbols and guard violations) through both `TBAMonitor` paths event by
event, checkpoints taken mid-stream and restored across paths, the
bulk `ingest_many` scan against the scalar loop, the mux's vectorized
`ingest_batch` against scalar mux ingestion, lasso acceptance against
`TimedBuchiAutomaton.accepts_lasso`, every fallback gate, and the
one-analysis-build / one-compile-per-language cache invariants.

The CI stream-smoke job runs this file twice — compiled path active
and with ``REPRO_STREAM_COMPILED=0`` — so the fallback really is the
same runtime, not a separate code path rotting in the dark.
"""

import random

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import clear_caches
from repro.kernel import Le
from repro.obs import install, uninstall
from repro.stream import (
    BackpressureError,
    LateEventError,
    SessionMux,
    StreamVerdict,
    TBAAnalysis,
    TBAMonitor,
    analysis_for,
    checkpoint,
    checkpoint_mux,
    compilation_enabled,
    compiled_for,
    restore,
    restore_mux,
)
from repro.stream import compiled as compiled_mod

from test_stream_monitor import TBA_FAMILY, bounded_gap_tba, random_lasso

needs_compiled = pytest.mark.skipif(
    not compilation_enabled(),
    reason="compiled stepping disabled (numpy absent or REPRO_STREAM_COMPILED=0)",
)


def nondet_tba():
    """Nondeterministic TBA: on 'a' state s may stay or move to t."""
    return TimedBuchiAutomaton(
        "ab",
        ["s", "t", "u"],
        "s",
        [
            TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", 3)),
            TimedTransition.make("s", "t", "a", resets=[], guard=Le("x", 3)),
            TimedTransition.make("t", "u", "b", resets=["x"], guard=Le("x", 5)),
            TimedTransition.make("u", "u", "b", resets=["x"], guard=Le("x", 2)),
            TimedTransition.make("u", "s", "a", resets=["x"], guard=Le("x", 2)),
        ],
        ["x"],
        ["u"],
    )


CORPUS = TBA_FAMILY + [nondet_tba()]


def random_stream(rng, tba, n, foreign=True):
    """A monotone random event stream, with occasional foreign symbols."""
    symbols = sorted(tba.alphabet)
    if foreign:
        symbols = symbols + ["?not-in-alphabet"]
    t = 0
    out = []
    for _ in range(n):
        t += rng.randint(0, 4)
        out.append((rng.choice(symbols), t))
    return out


def monitor_state(m):
    """Everything observable about a monitor that must agree across paths."""
    return (
        m.verdict,
        m.configs,
        m.prev_t,
        m.max_seen,
        m.events_ingested,
        m.events_released,
        m.late_events,
        m.accept_visits,
        m.verdict_flips,
        m._green_locked,
        m._seq,
    )


# -- event-by-event differential -------------------------------------------

class TestDifferentialStepping:
    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_random_streams_verdict_identical(self, ti):
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        assert compiled_for(analysis) is not None
        for seed in range(20):
            rng = random.Random(7000 + 31 * ti + seed)
            interp = TBAMonitor(tba, analysis=analysis, compiled=False)
            comp = TBAMonitor(tba, analysis=analysis, compiled=True)
            assert not interp.compiled and comp.compiled
            for symbol, t in random_stream(rng, tba, 60):
                vi = interp.ingest(symbol, t)
                vc = comp.ingest(symbol, t)
                assert vi is vc, (ti, seed, symbol, t)
                assert interp.configs == comp.configs, (ti, seed, symbol, t)
            assert monitor_state(interp) == monitor_state(comp)

    @needs_compiled
    def test_nondeterministic_path_really_is_nondeterministic(self):
        comp = compiled_for(analysis_for(nondet_tba()))
        assert comp is not None and not comp.deterministic
        assert comp.table is None and comp.succ_int is not None

    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_absorbing_rejection_early_stop(self, ti):
        """Once REJECTED both paths freeze run state and stay REJECTED."""
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        interp = TBAMonitor(tba, analysis=analysis, compiled=False)
        comp = TBAMonitor(tba, analysis=analysis, compiled=True)
        for m in (interp, comp):
            m.ingest("?kill", 1)  # foreign symbol murders every run
            assert m.verdict is StreamVerdict.REJECTED and m.absorbed
            frozen_prev_t = m.prev_t
            for t in (2, 5, 9):
                assert m.ingest("a", t) is StreamVerdict.REJECTED
            assert m.prev_t == frozen_prev_t  # run state frozen
            assert m.max_seen == 9  # but the watermark still advances
        assert monitor_state(interp) == monitor_state(comp)

    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_checkpoint_restore_mid_stream_across_paths(self, ti):
        """A snapshot taken on either path resumes on either path."""
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        rng = random.Random(4200 + ti)
        events = random_stream(rng, tba, 40)
        half, rest = events[:20], events[20:]
        interp = TBAMonitor(tba, analysis=analysis, compiled=False)
        comp = TBAMonitor(tba, analysis=analysis, compiled=True)
        for symbol, t in half:
            interp.ingest(symbol, t)
            comp.ingest(symbol, t)
        resumed = [
            restore(checkpoint(comp), tba=tba, analysis=analysis),
            restore(checkpoint(interp), tba=tba, analysis=analysis),
        ]
        assert all(r.configs == comp.configs for r in resumed)
        for symbol, t in rest:
            verdicts = {m.ingest(symbol, t) for m in [interp, comp] + resumed}
            assert len(verdicts) == 1, (ti, symbol, t)
        for r in resumed:
            assert monitor_state(r) == monitor_state(comp)

    @needs_compiled
    def test_foreign_snapshot_drops_to_interpreter(self):
        """Assigning configs outside the compiled universe falls back
        gracefully instead of raising (checkpoint compatibility)."""
        tba = bounded_gap_tba(2)
        m = TBAMonitor(tba)
        assert m.compiled
        alien = frozenset({("no-such-state", (0,))})
        m.configs = alien
        assert not m.compiled
        assert m.configs == alien


# -- bulk scan vs scalar loop ----------------------------------------------

class TestIngestMany:
    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_ingest_many_equals_scalar_loop(self, ti):
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        for seed in range(10):
            rng = random.Random(9900 + 17 * ti + seed)
            events = random_stream(rng, tba, 80)
            bulk = TBAMonitor(tba, analysis=analysis)
            loop = TBAMonitor(tba, analysis=analysis)
            bulk.ingest_many(events)
            for symbol, t in events:
                loop.ingest(symbol, t)
            assert monitor_state(bulk) == monitor_state(loop)

    @needs_compiled
    def test_ingest_many_late_events_delegate_to_scalar_policy(self):
        tba = bounded_gap_tba(2)
        events = [("a", 1), ("a", 2), ("a", 1), ("a", 3)]  # one late
        bulk = TBAMonitor(tba, late_policy="drop")
        loop = TBAMonitor(tba, late_policy="drop")
        bulk.ingest_many(events)
        for symbol, t in events:
            loop.ingest(symbol, t)
        assert bulk.late_events == 1
        assert monitor_state(bulk) == monitor_state(loop)

    def test_generic_ingest_many_on_interpreted_path(self):
        tba = bounded_gap_tba(2)
        events = [("a", t) for t in range(1, 30)]
        bulk = TBAMonitor(tba, compiled=False)
        loop = TBAMonitor(tba, compiled=False)
        bulk.ingest_many(events)
        for symbol, t in events:
            loop.ingest(symbol, t)
        assert monitor_state(bulk) == monitor_state(loop)


# -- mux batch stepping ----------------------------------------------------

class TestMuxBatch:
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_ingest_batch_equals_scalar_mux(self, ti):
        """Batched ingestion (waves + per-session bulk + scalar
        fallback for late traffic) matches one-at-a-time ingestion."""
        tba = CORPUS[ti]
        rng = random.Random(1300 + ti)
        events = []
        clocks = {}
        for _ in range(1500):
            name = f"s{rng.randrange(29)}"
            t = max(0, clocks.get(name, 0) + rng.randint(-1, 4))  # some late
            clocks[name] = max(clocks.get(name, 0), t)
            symbol = rng.choice(sorted(tba.alphabet) + ["?foreign"])
            events.append((name, symbol, t))
        batched = SessionMux(tba, late_policy="drop")
        scalar = SessionMux(tba, late_policy="drop", compiled=False)
        i = 0
        while i < len(events):
            n = rng.randint(1, 200)
            batched.ingest_batch(events[i : i + n])
            i += n
        for name, symbol, t in events:
            scalar.ingest(name, symbol, t)
        assert batched.verdicts() == scalar.verdicts()
        assert batched.stats() == scalar.stats()
        for name in batched.active:
            assert monitor_state(batched.monitor(name)) == monitor_state(
                scalar.monitor(name)
            )

    @needs_compiled
    def test_deep_slices_take_the_bulk_path(self):
        """Few sessions × many events routes through ingest_many and
        still matches (the heuristic's other arm)."""
        tba = bounded_gap_tba(2)
        events = [(f"s{i % 2}", "a", t) for t, i in enumerate(range(200))]
        batched = SessionMux(tba)
        scalar = SessionMux(tba, compiled=False)
        assert batched.ingest_batch(events) == len(events)
        for name, symbol, t in events:
            scalar.ingest(name, symbol, t)
        assert batched.verdicts() == scalar.verdicts()

    def test_machine_factory_mux_falls_back_to_scalar(self):
        """A mux over non-TBA monitors accepts ingest_batch (all
        events routed through the scalar path)."""
        mux = SessionMux(
            monitor_factory=lambda: TBAMonitor(bounded_gap_tba(1))
        )
        assert mux._tba_compiled is None
        assert mux.ingest_batch([("s0", "a", 1), ("s1", "a", 1)]) == 0
        assert len(mux) == 2


# -- lasso acceptance ------------------------------------------------------

class TestAcceptsLasso:
    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_agrees_with_interpreter(self, ti):
        tba = CORPUS[ti]
        comp = compiled_for(analysis_for(tba))
        rng = random.Random(880 + ti)
        checked = 0
        for _ in range(40):
            word = random_lasso(rng, tba.alphabet)
            assert comp.accepts_lasso(word) == tba.accepts_lasso(word)
            checked += 1
        assert checked == 40

    @needs_compiled
    def test_rejects_non_lasso_words(self):
        from repro.words import TimedWord

        comp = compiled_for(analysis_for(bounded_gap_tba(1)))
        with pytest.raises(ValueError):
            comp.accepts_lasso(TimedWord.finite([("a", 1)]))


# -- cache invariants ------------------------------------------------------

class TestOneBuildPerLanguage:
    def test_one_analysis_build_across_mux_lifecycle(self):
        """open / evict / reopen / close / checkpoint / restore on one
        language trigger exactly one TBAAnalysis construction."""
        clear_caches()
        tba = bounded_gap_tba(2)
        inst = install()
        try:
            mux = SessionMux(tba, idle_ttl=5)
            for i in range(15):
                mux.ingest(f"s{i}", "a", 1)
            mux.close("s0")
            assert mux.evict_idle(now=100) != []
            for i in range(15):
                mux.ingest(f"s{i}", "a", 200)
            snap = checkpoint_mux(mux)
            mux2 = SessionMux(tba, idle_ttl=5)
            restore_mux(snap, mux2, tba=tba)
            assert mux2.verdicts() == mux.verdicts()
            builds = inst.registry.counter("stream.analysis_builds").value
            assert builds == 1, f"expected 1 analysis build, saw {builds}"
        finally:
            uninstall()

    @needs_compiled
    def test_one_compile_per_language(self):
        clear_caches()
        tba = bounded_gap_tba(2)
        inst = install()
        try:
            analysis = analysis_for(tba)
            first = compiled_for(analysis)
            again = compiled_for(analysis)
            assert first is not None and first is again
            # the mux and every monitor share that same artifact
            mux = SessionMux(tba)
            mux.ingest("s0", "a", 1)
            assert mux._tba_compiled is first
            assert mux.monitor("s0")._compiled is first
            reg = inst.registry
            built = reg.counter("stream.compile").labels(outcome="built").value
            assert built == 1
            assert reg.counter("stream.compile").labels(outcome="cached").value >= 1
        finally:
            uninstall()


# -- fallback gates --------------------------------------------------------

class TestFallbacks:
    def test_compiled_false_forces_interpreter(self):
        m = TBAMonitor(bounded_gap_tba(1), compiled=False)
        assert not m.compiled
        assert m.ingest("a", 1) is StreamVerdict.ACCEPTING

    def test_env_toggle_disables_compilation(self, monkeypatch):
        monkeypatch.setenv(compiled_mod.ENV_TOGGLE, "0")
        assert not compilation_enabled()
        tba = bounded_gap_tba(1)
        analysis = TBAAnalysis(tba)
        assert compiled_for(analysis) is None
        assert not TBAMonitor(tba, analysis=analysis).compiled
        with pytest.raises(ValueError):
            TBAMonitor(tba, analysis=analysis, compiled=True)

    def test_numpy_absent_falls_back(self, monkeypatch):
        monkeypatch.setattr(compiled_mod, "NUMPY", None)
        tba = bounded_gap_tba(1)
        analysis = TBAAnalysis(tba)
        inst = install()
        try:
            assert compiled_for(analysis) is None
            reason = (
                inst.registry.counter("stream.compile_fallbacks")
                .labels(reason="numpy-absent")
                .value
            )
            assert reason == 1
        finally:
            uninstall()
        m = TBAMonitor(tba, analysis=analysis)
        assert not m.compiled
        assert m.ingest("a", 1) is StreamVerdict.ACCEPTING

    @needs_compiled
    def test_bounds_fallback_is_cached_on_the_analysis(self, monkeypatch):
        monkeypatch.setattr(compiled_mod, "MAX_CONFIGS", 0)
        analysis = TBAAnalysis(bounded_gap_tba(1))  # fresh, not shared
        inst = install()
        try:
            assert compiled_for(analysis) is None
            assert compiled_for(analysis) is None  # cached None, no rebuild
            reason = (
                inst.registry.counter("stream.compile_fallbacks")
                .labels(reason="bounds")
                .value
            )
            assert reason == 2
        finally:
            uninstall()
        assert not TBAMonitor(analysis.tba, analysis=analysis).compiled

    def test_fallback_monitor_still_agrees(self, monkeypatch):
        """The point of the gates: numpy-absent verdicts are the same."""
        monkeypatch.setattr(compiled_mod, "NUMPY", None)
        tba = nondet_tba()
        analysis = TBAAnalysis(tba)
        fallback = TBAMonitor(tba, analysis=analysis)
        reference = TBAMonitor(tba, analysis=analysis, compiled=False)
        rng = random.Random(5)
        for symbol, t in random_stream(rng, tba, 50):
            assert fallback.ingest(symbol, t) is reference.ingest(symbol, t)


# -- the wave kernel vs the scalar per-event path ---------------------------

COUNTED = (
    "stream.events_ingested",
    "stream.events_released",
    "stream.verdict_flips",
    "stream.compiled_steps",
)


def fleet_traffic(rng, symbols, sessions=25, events=1200, late=True):
    """Seeded multi-session traffic: mostly in-order, some late and
    out-of-order events (``late``), gaps that reject (9), and foreign
    symbols."""
    clocks = {}
    out = []
    for _ in range(events):
        name = f"s{rng.randrange(sessions)}"
        gap = rng.choice([0, 1, 1, 2, 3, 4, 9] + ([-3, -1] if late else []))
        t = max(0, clocks.get(name, 0) + gap)
        clocks[name] = max(clocks.get(name, 0), t)
        out.append((name, rng.choice(list(symbols) + ["?foreign"]), t))
    return out


def drive(mux, events, plan, batch):
    """Feed ``events`` in ``plan``'s chunks, batched or one at a time in
    ``ingest_batch``'s documented order (session by session, in order
    of first appearance), closing the two lowest-named sessions after
    every third chunk (the names come back later: rows are reused).
    Returns the reports."""
    reports = []
    i = 0
    for j, n in enumerate(plan):
        chunk = events[i : i + n]
        i += n
        if batch:
            mux.ingest_batch(chunk)
        else:
            by_session = {}
            for e in chunk:
                by_session.setdefault(e[0], []).append(e)
            for slice_ in by_session.values():
                for e in slice_:
                    mux.ingest(*e)
        if j % 3 == 2:
            reports += [mux.close(name) for name in sorted(mux.active)[:2]]
    return reports


def observed(mux, events, plan, batch):
    """Run ``drive`` under fresh instrumentation: (reports, counters)."""
    inst = install()
    try:
        reports = drive(mux, events, plan, batch)
    finally:
        uninstall()
    counts = {
        (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
        for s in inst.registry.collect()
        if s["name"] in COUNTED and s["value"]
    }
    return reports, counts


def same_story(kernel, scalar, reports_k, reports_s):
    assert reports_k == reports_s
    assert kernel.verdicts() == scalar.verdicts()
    assert kernel.stats() == scalar.stats()
    for name in scalar.active:
        assert monitor_state(kernel.monitor(name)) == monitor_state(
            scalar.monitor(name)
        )


class TestWaveKernel:
    """``ingest_batch`` through the session table must tell the scalar
    per-event story: verdicts, reports, monitor state and counters."""

    @needs_compiled
    @pytest.mark.parametrize("fw", [None, 2])
    @pytest.mark.parametrize("ti", range(len(TBA_FAMILY)))
    def test_kernel_equals_scalar_path(self, ti, fw):
        tba = TBA_FAMILY[ti]
        rng = random.Random(4100 + 7 * ti + (fw or 0))
        events = fleet_traffic(rng, sorted(tba.alphabet))
        # wide chunks (the wave arm) and narrow ones (the per-row scans)
        plan = [rng.choice([1, 3, 40, 120, 250]) for _ in range(60)]
        kernel = SessionMux(tba, late_policy="drop", f_window=fw)
        scalar = SessionMux(tba, late_policy="drop", f_window=fw, compiled=False)
        assert kernel._rows is not None and scalar._rows is None
        reports_k, counts_k = observed(kernel, events, plan, batch=True)
        reports_s, counts_s = observed(scalar, events, plan, batch=False)
        same_story(kernel, scalar, reports_k, reports_s)
        steps = {k: v for k, v in counts_k.items() if k[0] == "stream.compiled_steps"}
        assert steps and {dict(k[1])["path"] for k in steps} <= {"wave", "bulk"}
        others = {k: v for k, v in counts_k.items() if k not in steps}
        assert others == counts_s

    @needs_compiled
    def test_kernel_counters_match_the_row_scalar_path(self):
        """The same mux type fed one event at a time (the row scalar
        path) counts the same ingests, releases and flips."""
        tba = bounded_gap_tba(2)
        rng = random.Random(77)
        events = fleet_traffic(rng, ["a"], late=False)
        plan = [250] * 5
        a, ca = observed(SessionMux(tba), events, plan, batch=True)
        b, cb = observed(SessionMux(tba), events, plan, batch=False)
        assert a == b
        ca = {k: v for k, v in ca.items() if k[0] != "stream.compiled_steps"}
        assert ca == cb

    @needs_compiled
    @pytest.mark.parametrize("policy", ["drop-new", "drop-old", "reject"])
    @pytest.mark.parametrize("lateness", [0, 3])
    def test_every_drop_policy(self, policy, lateness):
        """Buffering muxes (lateness > 0) keep object sessions; both
        kinds batch exactly like the scalar path under every policy."""
        tba = bounded_gap_tba(3)
        rng = random.Random(hash((policy, lateness)) % 1000)
        events = fleet_traffic(rng, ["a"], sessions=8, events=400)
        plan = [rng.choice([5, 50]) for _ in range(40)]
        kw = dict(late_policy="drop", lateness=lateness, buffer_limit=2,
                  drop_policy=policy)
        kernel = SessionMux(tba, **kw)
        scalar = SessionMux(tba, compiled=False, **kw)
        assert (kernel._rows is None) == bool(lateness)
        try:
            outcome_k = drive(kernel, events, plan, batch=True)
        except BackpressureError as exc:
            outcome_k = repr(exc)
        try:
            outcome_s = drive(scalar, events, plan, batch=False)
        except BackpressureError as exc:
            outcome_s = repr(exc)
        assert outcome_k == outcome_s
        assert kernel.verdicts() == scalar.verdicts()
        assert kernel.stats() == scalar.stats()

    @needs_compiled
    def test_rejected_sessions_keep_counting_and_rows_are_reused(self):
        tba = bounded_gap_tba(1)
        mux = SessionMux(tba)
        mux.ingest_batch([("x", "a", 1), ("y", "a", 1), ("x", "a", 9)])
        dead = mux.monitor("x")
        assert dead.verdict is StreamVerdict.REJECTED and dead.absorbed
        frozen = (dead.configs, dead.prev_t)
        mux.ingest_batch([("x", "a", 10), ("x", "a", 11), ("y", "a", 2)])
        assert (dead.configs, dead.prev_t) == frozen
        assert dead.events_ingested == 4 and dead.max_seen == 11
        row = dead._r
        report = mux.close("x")
        assert report.events_ingested == 4
        assert report.verdict is StreamVerdict.REJECTED
        assert dead.verdict is StreamVerdict.REJECTED  # the view kept its row
        mux.ingest_batch([("z", "a", 1)])  # reuses the freed row
        assert mux.monitor("z")._r == row
        assert mux.monitor("z").verdict is StreamVerdict.ACCEPTING
        assert dead.events_ingested == 4

    @pytest.mark.parametrize("fw", [None, 3])
    def test_plan_kernel_equals_scalar_path(self, fw):
        from repro.query import Q, QueryPlan

        plan = QueryPlan(
            {
                "fast": Q.event("req").then("rsp").within(2).repeat(),
                "slow": Q.event("req").then("rsp").within(5).repeat(),
                "hb": Q.event("req").within(6).once(),
            }
        )
        rng = random.Random(58 + (fw or 0))
        events = fleet_traffic(rng, ["req", "rsp"], sessions=30, events=1500)
        chunks = [rng.choice([2, 30, 200]) for _ in range(80)]
        kernel = SessionMux(plan=plan, late_policy="drop", f_window=fw)
        scalar = SessionMux(plan=plan, late_policy="drop", f_window=fw, compiled=False)
        # chunk by chunk, every open session's channels agree
        for i in range(0, 600, 40):
            drive(kernel, events[i : i + 40], [40], batch=True)
            drive(scalar, events[i : i + 40], [40], batch=False)
            assert {n: kernel.monitor(n).query_verdicts() for n in kernel.active} == {
                n: scalar.monitor(n).query_verdicts() for n in scalar.active
            }
        events = events[600:]
        reports_k, counts_k = observed(kernel, events, chunks, batch=True)
        reports_s, counts_s = observed(scalar, events, chunks, batch=False)
        same_story(kernel, scalar, reports_k, reports_s)
        assert any(r.query_verdicts for r in reports_k)
        for name in scalar.active:
            k, s = kernel.monitor(name), scalar.monitor(name)
            assert k.query_verdicts() == s.query_verdicts()
            assert k.channel_accept_visits() == s.channel_accept_visits()
            assert k.absorbed == s.absorbed
        counts_k = {
            k: v for k, v in counts_k.items() if k[0] != "stream.compiled_steps"
        }
        assert counts_k == counts_s

    def test_numpy_absent_and_compiled_false_agree(self, monkeypatch):
        tba = bounded_gap_tba(2)
        rng = random.Random(31)
        events = fleet_traffic(rng, ["a"])
        plan = [rng.choice([3, 60, 200]) for _ in range(40)]
        runs = []
        for setting in ("default", "compiled=False", "numpy=None"):
            with monkeypatch.context() as m:
                if setting == "numpy=None":
                    m.setattr(compiled_mod, "NUMPY", None)
                kw = {"compiled": False} if setting == "compiled=False" else {}
                mux = SessionMux(tba, late_policy="drop", **kw)
                table = setting == "default" and compilation_enabled()
                assert (mux._rows is not None) == table
                reports = drive(mux, events, plan, batch=True)
                runs.append((reports, mux.verdicts(), mux.stats()))
        assert runs[0] == runs[1] == runs[2]

    @needs_compiled
    def test_late_raise_policy_matches_scalar(self):
        """Under late_policy='raise' the kernel hands the late slice to
        the scalar path, which raises after the same work."""
        tba = bounded_gap_tba(2)
        events = [
            ("a", "a", 1), ("b", "a", 1), ("a", "a", 3), ("b", "a", 0), ("a", "a", 4)
        ]
        kernel = SessionMux(tba, late_policy="raise")
        scalar = SessionMux(tba, late_policy="raise", compiled=False)
        with pytest.raises(LateEventError):
            kernel.ingest_batch(events)
        for e in [events[0], events[2], events[4], events[1]]:
            scalar.ingest(*e)
        with pytest.raises(LateEventError):
            scalar.ingest(*events[3])
        assert kernel.verdicts() == scalar.verdicts()
        for name in ("a", "b"):
            assert monitor_state(kernel.monitor(name)) == monitor_state(
                scalar.monitor(name)
            )
