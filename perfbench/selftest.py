"""Self-test of the benchmark itself, not of dfadist.

    python3 perfbench/selftest.py                        # run every check
    python3 perfbench/selftest.py --record-fingerprints  # rewrite fingerprints.json

Run from the root of a source checkout.  The checks:

1. every workload runs once at tiny sizes with every answer right;
2. a wrong answer on every op (each captured stdout corrupted) is
   counted: ``failed`` equals ``attempted``;
3. a traced run rebinds the public names and restores every one;
4. the input fingerprints recorded in ``fingerprints.json`` are
   reproduced, so runs on those seeds use byte-identical inputs;
5. the benchmark command exits non-zero, printing no result, in a
   directory that holds only ``BENCHMARK.json`` and the benchmark.

Exits 0 when all of them pass.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import bench_inputs
import bench_trace
import run

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
RECORDED_SEEDS = list(range(1, 11))
HELD_OUT_SEED = 7919

# Each line that carries an answer, turned into a wrong answer.
_WRONG = {
    "true": "false",
    "false": "true",
    "none": "a",
    "sat: yes": "sat: no",
    "sat: no": "sat: yes",
}


def corrupt(out: str) -> str:
    lines = out.splitlines() or [""]
    for i, line in enumerate(lines):
        if line in _WRONG:
            lines[i] = _WRONG[line]
            break
    else:
        lines[0] += "a"  # a distinguishing word, now longer than the shortest
    return "\n".join(lines) + "\n"


def bindings() -> dict[tuple[str, str], object]:
    """Every attribute of the loaded dfadist modules and their classes."""
    out = {}
    for mod in bench_trace.package_modules().values():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    out[(f"{mod.__name__}.{name}", attr)] = member
    return out


def check_tiny_runs() -> None:
    for workload in bench_inputs.BUILDERS:
        result = run.run(workload, 1, 0.2, trace=False, sizes="tiny")
        assert result["correct"] and result["failed"] == 0, (workload, result)
        assert result["attempted"] >= 1
        values = [m["value"] for m in result["metrics"].values()]
        assert len(values) == 5 and all(v > 0 for v in values), (workload, result["metrics"])


def check_corruption_counted() -> None:
    for workload in bench_inputs.BUILDERS:
        result = run.run(workload, 1, 0.2, trace=False, sizes="tiny", corrupt=corrupt)
        assert result["failed"] == result["attempted"] > 0, (workload, result)
        assert not result["correct"]


def check_trace_restores() -> None:
    bench = run.Bench("word-diff", 1, "tiny")
    try:
        bench.set_up()
        before = bindings()
        metrics, _ = run.traced_run(bench, 0.0)
        after = bindings()
        assert bench.check() == 0, bench.failures
    finally:
        bench.close()
    assert metrics["cli.main.calls"][0] == len(bench.ops), metrics["cli.main.calls"]
    assert metrics["automata.product.calls"][0] > 0
    assert before.keys() == after.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert not changed, f"not restored: {changed}"


def fingerprints() -> dict:
    scratch = Path("unused")
    return {
        "held_out_seed": HELD_OUT_SEED,
        "sha256": {
            workload: {
                str(seed): bench_inputs.build(workload, seed, scratch).fingerprint()
                for seed in RECORDED_SEEDS + [HELD_OUT_SEED]
            }
            for workload in bench_inputs.BUILDERS
        },
    }


def check_fingerprints() -> None:
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    assert fingerprints() == recorded, "generated inputs differ from fingerprints.json"


def check_bare_directory_fails() -> None:
    bare = Path.cwd() / ".perfbench_run" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare / run.SPEC.name)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "lemma-battery",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty: another run is using it
            bare.parent.rmdir()
    assert proc.returncode != 0, proc
    assert '"metrics"' not in proc.stdout, proc.stdout


CHECKS = [
    check_tiny_runs,
    check_corruption_counted,
    check_trace_restores,
    check_fingerprints,
    check_bare_directory_fails,
]


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of the dfadist benchmark")
    parser.add_argument("--record-fingerprints", action="store_true")
    if parser.parse_args().record_fingerprints:
        FINGERPRINTS.write_text(json.dumps(fingerprints(), indent=1) + "\n", encoding="utf-8")
        return 0
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as err:
            failed += 1
            print(f"FAIL {check.__name__}: {err}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
