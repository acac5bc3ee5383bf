"""Tests for the benchmark itself (not part of the program's tier-1 suite).

    python3 -m pytest rtbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import plan_fleet
import shard_fleet
import txn_verify
from fleet import FleetSize
from loadgen import FleetGen, OpenLoop, percentile
from loops import Aside
from tracing import NULL, Tracer, chrome_trace

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
SMALL_FLEET = FleetSize(sessions=60, tick_events=30, pass_ticks=20, period_s=0.01)


# -- load generator -----------------------------------------------------------
def _ticks(seed, n=30):
    gen = FleetGen(seed, slots=20, length=6, step=plan_fleet.step)
    return [gen.tick(15) for _ in range(n)]


def test_generator_is_deterministic_per_seed():
    assert _ticks("7/open") == _ticks("7/open")
    assert _ticks("7/open") != _ticks("8/open")


def test_generator_sessions_are_ordered_and_close_once():
    events, closing = {}, []
    for tick in _ticks("3/closed", n=60):
        for name, _symbol, t in tick.events:
            events.setdefault(name, []).append(t)
        assert tick.touched == list(dict.fromkeys(n for n, _s, _t in tick.events))
        closing += tick.closing
    assert len(closing) == len(set(closing)) > 0
    for name in closing:
        assert len(events[name]) == 6
    for times in events.values():
        assert times == sorted(times) and len(times) <= 6


def test_percentile_interpolates():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)


# -- open-loop validity -------------------------------------------------------
def test_open_loop_keeps_schedule_when_work_fits():
    loop = OpenLoop(0.004, ticks=30, warmup=5)
    loop.run(lambda k: k, lambda k, x: x, lambda k, x, r: None)
    assert len(loop.latencies_s) == 25
    assert not loop.backlog_grew()


def test_open_loop_flags_a_growing_backlog():
    loop = OpenLoop(0.001, ticks=40, warmup=0)
    loop.run(lambda k: k, lambda k, x: time.sleep(0.003), lambda k, x, r: None)
    assert loop.late_ticks() > 30
    assert loop.backlog_grew()
    # Latency runs from the due time, so the queueing shows in it.
    assert loop.latencies_s[-1] > 20 * 0.003


# -- spans and self time ------------------------------------------------------
def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    tracer.spans = [
        (0, "root", 0.0, 10.0, -1, "k"),
        (1, "a", 1.0, 4.0, 0, "k"),
        (2, "b", 3.0, 6.0, 0, "k"),  # overlaps a: counted once
        (3, "leaf", 2.0, 3.0, 1, "k"),
        (4, "c", 9.0, 12.0, 0, "k"),  # runs past root: clipped for root
        (5, "a", 20.0, 21.0, -1, "j"),
    ]
    assert tracer.self_times_by_key() == {
        "k": {
            "root": pytest.approx(10 - (5 + 1)),
            "a": pytest.approx(3 - 1),
            "b": pytest.approx(3),
            "leaf": pytest.approx(1),
            "c": pytest.approx(3),
        },
        "j": {"a": pytest.approx(1)},
    }
    assert tracer.layer_figures(setup_layers=("a",)) == {"a_s": 0.0}


def test_tracer_nests_spans_and_inherits_keys():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer", key=("pass", 0)):
        with tracer.span("inner"):
            pass
    assert [s[1] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][4] == 0 and tracer.spans[1][5] == ("pass", 0)
    assert tracer.self_times_by_key() == {("pass", 0): {"outer": 2.0, "inner": 1.0}}
    from repro.obs import validate_chrome_trace

    assert not validate_chrome_trace(chrome_trace(tracer.spans))


def test_patched_method_is_traced_and_restored():
    class Layer:
        def call(self, x):
            return x + 1

    tracer = Tracer()
    original = Layer.call
    with tracer.patched(Layer, "call", "layer.call"):
        assert Layer().call(1) == 2
    assert Layer.call is original
    assert [s[1] for s in tracer.spans] == ["layer.call"]


# -- small runs: every metric, nothing failed ----------------------------------
def _check(res, module, traced):
    assert res.failed == 0 and res.valid and res.attempted > 0
    assert set(E2E) - {"setup_s"} <= set(res.e2e)
    assert all(res.e2e[name] > 0 for name in res.e2e)
    assert set(module.LAYERS) <= set(LAYERS)
    if traced:
        assert set(module.LAYERS) <= set(res.layers)


@pytest.mark.parametrize("traced", [False, True])
def test_small_plan_fleet(traced):
    tracer = Tracer() if traced else NULL
    plan = plan_fleet.setup(tracer, Aside())
    res = plan_fleet.run(plan, 5, 0.5, tracer, size=SMALL_FLEET)
    _check(res, plan_fleet, traced)


@pytest.mark.parametrize("traced", [False, True])
def test_small_shard_fleet(traced):
    tracer = Tracer() if traced else NULL
    state = shard_fleet.setup(tracer, Aside())
    try:
        res = shard_fleet.run(state, 5, 0.5, tracer, size=SMALL_FLEET)
    finally:
        shard_fleet.teardown(state)
    _check(res, shard_fleet, traced)
    assert SMALL_FLEET.pass_ticks >= shard_fleet.CHECKPOINT_EVERY
    if traced:
        assert res.layers["shard.checkpoint_s"] > 0


def test_small_txn_verify():
    size = txn_verify.TxnSize(n_participants=1, per_cell=2, period_s=0.05)
    tracer = Tracer()
    state = txn_verify.setup(tracer, Aside(), size=size)
    res = txn_verify.run(state, 5, 1.0, tracer)
    _check(res, txn_verify, True)


# -- the command line -----------------------------------------------------------
def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "rtbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,names", [("0", E2E), ("1", LAYERS)])
def test_command_prints_every_metric(trace, names):
    out = _run(ROOT, "--workload", "plan-fleet", "--seed", "3", "--seconds", "1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert list(doc["metrics"]) == names
    for name, metric in doc["metrics"].items():
        assert metric == {"value": metric["value"], "unit": units[name]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "rtbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "plan-fleet", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
