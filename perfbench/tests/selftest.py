#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/tests/selftest.py

Builds perfbench, then for every workload in BENCHMARK.json and both trace
modes runs it with `--size tiny` and checks that:
  * the last stdout line is the result JSON with exactly the contract keys,
    a passing oracle and no failed operations;
  * its metrics are exactly the end-to-end set (--trace 0) or the per-layer
    set (--trace 1) named in BENCHMARK.json, each with its declared unit;
  * the human-readable table prints every one of those metrics exactly once,
    with the same unit.
Then runs the oracle test binary, which feeds the serve oracle a reply with
one flipped distance bit (and other corruptions) and expects rejection.
Exits 0 when everything holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402


def check_run(binary, workload, trace, declared):
    argv = [binary, "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    problems = []
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr.strip()}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("oracle did not pass")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
        table = [l.split() for l in lines[:-1] if l.startswith("# ")]
        rows = [row for row in table if len(row) >= 4 and row[1] == name]
        if len(rows) != 1:
            problems.append(f"{name}: printed {len(rows)} times in the table")
        elif rows[0][3] != unit:
            problems.append(f"{name}: table unit {rows[0][3]!r}, declared {unit!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = run.build(("perfbench", "perfbench_oracle_test"))
    binary = os.path.join(build_dir, "bin", "perfbench")
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(binary, workload, trace, sets[trace])
            status = "ok" if not problems else "FAILED"
            print(f"{workload} --trace {trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failed |= bool(problems)
    oracle = subprocess.run([os.path.join(build_dir, "bin", "perfbench_oracle_test")])
    print(f"oracle_test: {'ok' if oracle.returncode == 0 else 'FAILED'}")
    failed |= oracle.returncode != 0
    print("selftest:", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
