"""Benchmark for hilbfock: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload segre-chain --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the set-up is repeated and timed, then verified passes
run while the next is expected to end within ``--seconds`` (there is
always one), and the end-to-end metrics are medians over passes.  With ``--trace 1`` one untraced pass is followed by
a traced set-up and pass, which give the per-layer metrics; the spans are
written under ``.bench_build/perfbench/``.  Single process, single thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _timed(fn, *args):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, time.perf_counter() - w0, time.process_time() - c0


def start_seconds() -> float:
    """Median time for a fresh interpreter to import the package, which
    every command-line call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hilbfock.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seed, seconds, workdir, start_s):
    from workloads import Tally

    setup, one_pass = workload
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, wall, _cpu = _timed(setup, seed, workdir)
        setups.append(wall)
    tally = Tally()
    walls, cpus, checks = [], [], []
    start = time.perf_counter()
    # start a pass only if it should end in time (there is always one)
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        gc.collect()
        before = tally.checks
        _, wall, cpu = _timed(one_pass, inputs, len(walls), tally)
        walls.append(wall)
        cpus.append(cpu)
        checks.append(tally.checks - before)
    print("passes: wall %s  setups %s" % ([round(w, 3) for w in walls], [round(w, 3) for w in setups]), file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (start_s + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "ok_rate": (1 - tally.failed / tally.attempted, "ratio"),
        "checks": (statistics.median_low(checks), "count"),
    }
    return tally, metrics


def measure_traced(name, workload, seed, workdir):
    from probes import PER_LAYER, install, layer_metrics
    from tracer import Tracer
    from workloads import Tally

    setup, one_pass = workload
    tally = Tally()
    inputs = setup(seed, workdir)
    _, untraced_wall, _ = _timed(one_pass, inputs, 0, tally)
    del inputs
    gc.collect()
    tracer = Tracer()
    install(tracer)
    try:
        inputs = setup(seed, workdir)
        _, traced_wall, _ = _timed(one_pass, inputs, 0, tally)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    tracer.write(workdir.parent / ("trace-%s.json" % name), workdir.parent / ("spans-%s.tsv.gz" % name))
    units = {n: u for n, u, _ in PER_LAYER}
    return tally, {n: (values[n], units[n]) for n in units}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hilbfock" / "__init__.py").is_file():
        print("error: no hilbfock package under %s" % SRC, file=sys.stderr)
        return 2
    # Sampler() reads HILB_CACHE; a user's cache must not leak into the numbers
    os.environ.pop("HILB_CACHE", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r; one of %s" % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workdir = Path.cwd() / ".bench_build" / "perfbench" / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics = measure_traced(args.workload, workload, args.seed, workdir)
        else:
            tally, metrics = measure(workload, args.seed, args.seconds, workdir, start_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
