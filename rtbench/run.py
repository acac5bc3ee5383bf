#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/`` and print
its metrics; the last line of standard output is the JSON result.

    python3 rtbench/run.py --workload plan-fleet --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with benchmark-side spans and
prints the per-layer metrics instead (and writes a Chrome trace under
``.rtbench/``).  Workloads, metrics and the layer map are described in
``rtbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from calibrate import Speed, time_on
from loadgen import median
from loops import Aside
from tracing import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> module under rtbench/.
WORKLOADS = {
    "plan-fleet": "plan_fleet",
    "shard-fleet": "shard_fleet",
    "txn-verify": "txn_verify",
}
#: Cold set-ups per untraced run: this process plus fresh-interpreter
#: probes, run one after another; ``setup_s`` is their median.
SETUP_SAMPLES = 3
SETUP_SLICES = 10
PROBE_TIMEOUT_S = 120


def load_workload(name: str) -> Any:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"rtbench: the program is missing ({SRC / 'repro'})")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module(WORKLOADS[name])



def pin_cpus(module: Any) -> None:
    """Run this process on one CPU and the processes it forks (a shard
    worker) on another, so a router and its worker run side by side
    and each CPU's speed can be calibrated.  A workload that forks a
    worker (``FORKS_WORKER``) times its slices on both CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    if len(cpus) > 1:
        os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, {cpus[1]}))
        if getattr(module, "FORKS_WORKER", False):
            time_on(cpus[:2])


def timed_setup(module: Any, tracer: Any) -> tuple:
    """One cold set-up: ``(seconds at the reference speed, raw seconds,
    state)``.  Calibration slices are timed just before and after, and
    between set-up steps (their own time is taken out)."""
    speed = Speed()
    speed.sample(SETUP_SLICES)
    aside = Aside(speed)
    t0 = time.perf_counter()
    state = module.setup(tracer, aside)
    raw = time.perf_counter() - t0 - aside.spent
    speed.sample(SETUP_SLICES)
    return raw * speed.scale(), raw, state


def probe_setup(workload: str) -> tuple:
    """One cold set-up in a fresh interpreter (after its imports)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    return got["setup_s"], got["raw_s"]


def metric_specs() -> Dict[str, List[Dict[str, Any]]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {"e2e": doc["end_to_end"], "layers": doc["per_layer"]}


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    module = load_workload(args.workload)

    if args.setup_probe:
        pin_cpus(module)
        setup_s, raw, state = timed_setup(module, NULL)
        module.teardown(state)
        print(json.dumps({"setup_s": setup_s, "raw_s": raw}))
        return 0

    specs = metric_specs()
    tracer = Tracer() if args.trace else NULL
    setups = (
        [] if args.trace
        else [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    )
    # After the probes, which start with every CPU and pin themselves.
    pin_cpus(module)
    setup_s, raw, state = timed_setup(module, tracer)
    setups.append((setup_s, raw))
    try:
        res = module.run(state, args.seed, args.seconds, tracer)
    finally:
        module.teardown(state)

    res.e2e["setup_s"] = median([s for s, _raw in setups])
    for note in res.notes:
        print(note)
    print(
        "setup_s samples (scaled/raw): "
        + ", ".join(f"{s:.4f}/{r:.4f}" for s, r in setups)
    )
    print(
        f"failed_frac {res.failed / res.attempted:.6g} ratio "
        f"({res.failed} of {res.attempted} operations)"
    )
    if args.trace:
        out_dir = ROOT / ".rtbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome_trace(str(path))
        print(f"chrome trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        measured = set(module.LAYERS)
        missing = measured - set(res.layers)
        if missing:
            raise SystemExit(f"rtbench: {args.workload} did not report {sorted(missing)}")
        values = {
            m["name"]: res.layers[m["name"]] if m["name"] in measured else 0
            for m in specs["layers"]
        }
        chosen = specs["layers"]
    else:
        values = {m["name"]: res.e2e[m["name"]] for m in specs["e2e"]}
        chosen = specs["e2e"]
    metrics = {}
    for m in chosen:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": res.failed == 0 and res.valid,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
