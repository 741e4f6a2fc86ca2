"""dfadist benchmark: seeded workloads driven through the command line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process, one thread, a
closed loop with a single client: each op is one in-process
``dfadist.cli.main(argv)`` call on input files written during set-up,
with stdout captured, so the CLI and the file parsers are on the path.
Inputs are generated by a short-lived child process (``bench_inputs``
run as a script), so none of them count in this process's peak memory.
Every answer is checked after timing by ``bench_inputs`` and a wrong
answer, wrong exit code or exception counts in ``failed``.

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics, the timing ones scaled to a reference speed
measured during the run (``reference_slice``).  ``--trace 1`` runs
whole passes of the schedule with every public dfadist function rebound
to a timing wrapper (``bench_trace``), then the same passes untraced,
and reports per-layer stats per pass plus the tracing overhead.  The
last stdout line is the JSON result; the line before it records the
input fingerprint and the unscaled figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

import bench_inputs
import bench_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
GENERATOR = Path(bench_inputs.__file__).resolve()
SETUP_REPEATS = 5

# Latency percentile reported as op_tail_ms: the highest one that keeps at
# least ten samples beyond it in a 50-second run, even a slow one.
TAIL_PERCENTILE = {"lemma-battery": 95, "word-diff": 95}

# Reference speed.  This 2-CPU machine's speed drifts by up to a third
# from one minute to the next, for every workload at once, while a run
# stays in one such stretch.  The timed loop therefore runs a fixed
# slice of pure-Python dict work after every REF_EVERY_S of op time, and
# each set-up is followed by a few slices; every timing metric is scaled
# to a machine on which that slice takes REF_SLICE_S.  The raw figures
# are recorded on the info line.
REF_SLICE_S = 0.005
REF_EVERY_S = 0.25


def reference_slice() -> float:
    """Seconds taken by a fixed slice of dict work, collector off so that
    the program's heap does not change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}  # at most 4036 keys, so the slice adds little to peak memory
        for i in range(20000):
            table[(i * 7919) % 1009, i & 3] = i
        return time.perf_counter() - start
    finally:
        gc.enable()


def import_cli() -> ModuleType:
    """Import dfadist.cli afresh from this checkout's ``src``."""
    for name in list(bench_trace.package_modules()):
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("dfadist.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"dfadist imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli: ModuleType, argv: tuple[str, ...]) -> tuple[int | None, str, str]:
    """One op: (exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # the op failed; count it, keep measuring
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Bench:
    """One workload's inputs in a scratch directory inside the checkout."""

    def __init__(self, workload: str, seed: int, sizes: str):
        self.workload, self.seed, self.sizes = workload, seed, sizes
        self.root = Path.cwd() / ".perfbench_run" / f"{workload}-{seed}-{os.getpid()}"
        self.cli: ModuleType | None = None
        self.ops: list[bench_inputs.Op] = []
        self.fingerprint = ""
        self.setup_s: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        # (op index, exit code, stdout, error) -> times seen
        self.answers: dict[tuple, int] = {}

    def set_up(self) -> None:
        """Input generation and file writing (in a child process), imports
        and warm-up; timed.  Each set-up rewrites the same files."""
        start = time.perf_counter()
        # -S: the generator needs only the standard library, and skipping
        # site-packages start-up hooks keeps the set-up time steady.  No
        # timeout: waiting with one polls in sleeps of up to 50 ms, which
        # made set-up time jump by that much from run to run.
        subprocess.run(
            [sys.executable, "-S", str(GENERATOR), self.workload, str(self.seed), str(self.root), self.sizes],
            check=True,
        )
        schedule = bench_inputs.read_schedule(self.root)
        self.cli = import_cli()
        for op in schedule["warmup"]:
            call(self.cli, op.argv)
        self.setup_s.append(time.perf_counter() - start)
        self.ops, self.fingerprint = schedule["ops"], schedule["fingerprint"]

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty: another run is using it
            self.root.parent.rmdir()

    def run_ops(self, indices, corrupt: Callable[[str], str] | None = None):
        """Run the scheduled ops at ``indices`` lazily, yielding each latency.

        Answers are kept and checked later by ``check``, outside the
        timed region.
        """
        ops = self.ops
        for i in indices:
            start = time.perf_counter()
            code, out, err = call(self.cli, ops[i].argv)
            latency = time.perf_counter() - start
            if corrupt is not None:
                out = corrupt(out)
            key = (i, code, out, err)
            self.answers[key] = self.answers.get(key, 0) + 1
            self.attempted += 1
            yield latency

    def check(self) -> int:
        """Check every distinct answer once; returns the number of failed ops."""
        failed = 0
        checker = bench_inputs.Checker()
        checks: dict[int, bench_inputs.Check] = {}
        for (i, code, out, err), times in self.answers.items():
            op = self.ops[i]
            if i not in checks:
                checks[i] = checker.check(op)
            try:
                reason = f"exception {err}" if code is None else checks[i](code, out)
            except (ValueError, IndexError) as exc:
                reason = f"unreadable answer: {exc}"
            if reason is not None:
                failed += times
                self.failures.append(f"{' '.join(op.argv)}: {reason}")
        return failed


def nearest_rank(samples: list[float], percentile: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def timed_run(bench: Bench, seconds: float, corrupt=None) -> tuple[dict, dict]:
    """Set up several times, then run the schedule in a loop for ``seconds``."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        bench.set_up()
        # scaled by slices timed right after it, in the same stretch
        after = statistics.fmean(reference_slice() for _ in range(4))
        setup_s.append(bench.setup_s[-1] * REF_SLICE_S / after)
    latencies, slices = [], []
    since_slice = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    for latency in bench.run_ops(itertools.cycle(range(len(bench.ops))), corrupt):
        latencies.append(latency)
        since_slice += latency
        if since_slice >= REF_EVERY_S:
            slices.append(reference_slice())
            since_slice = 0.0
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start - sum(slices)
    if not slices:  # a run too short to reach the first slice
        slices.append(reference_slice())
    scale = REF_SLICE_S / statistics.fmean(slices)
    percentile = TAIL_PERCENTILE[bench.workload]
    raw = {
        "setup_s": statistics.median(bench.setup_s),
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": nearest_rank(latencies, percentile) * 1e3,
    }
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    beyond = len(latencies) - math.ceil(percentile / 100 * len(latencies))
    info = {
        "samples": len(latencies),
        "tail_percentile": percentile,
        "samples_beyond_tail": beyond,
        "ref_slices": len(slices),
        "ref_slice_ms": statistics.fmean(slices) * 1e3,
        "raw": raw,
    }
    return metrics, info


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Whole passes traced for about half of ``seconds``, then as many untraced."""
    n = len(bench.ops)
    tracer = bench_trace.Tracer()
    passes = 0
    start = time.perf_counter()
    tracer.install()
    try:
        while passes == 0 or time.perf_counter() - start < seconds / 2:
            for _ in bench.run_ops(range(n)):
                pass
            passes += 1
    finally:
        tracer.uninstall()
    traced_wall = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(passes):
        for _ in bench.run_ops(range(n)):
            pass
    untraced_wall = time.perf_counter() - start
    metrics = {}
    for spec in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_ratio":
            value = traced_wall / untraced_wall
        elif name == "trace.pass_wall_s":
            value = traced_wall / passes
        else:
            key, stat = name.rsplit(".", 1)
            value = tracer.stats.get(key, {}).get(stat, 0.0) / passes
        metrics[name] = (value, spec["unit"])
    return metrics, {"passes": passes, "ops_per_pass": n}


def run(
    workload: str, seed: int, seconds: float, trace: bool, sizes: str = "full", corrupt=None
) -> dict:
    """One benchmark run; returns the result object that is printed last."""
    bench = Bench(workload, seed, sizes)
    try:
        if trace:
            bench.set_up()
            metrics, info = traced_run(bench, seconds)
        else:
            metrics, info = timed_run(bench, seconds, corrupt)
        failed = bench.check()
    finally:
        bench.close()
    info = {"workload": workload, "seed": seed, "inputs_sha256": bench.fingerprint, **info}
    for line in bench.failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "info": info,
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_inputs.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dfadist" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: run from a dfadist checkout; {SRC / 'dfadist'} not found", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result.pop("info"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
