"""Smoke check of the harness itself, on each workload's smallest instances.

    python3 bench/smoke.py

For every workload in BENCHMARK.json it asserts that an untraced run prints
every end-to-end metric with its unit (and fail_frac), that a traced run
prints every per-layer metric with its unit, that both end with a result line
of the agreed shape, and that a run with one deliberately wrong expected
value counts exactly that instance as failed and the run as incorrect.
Takes about a minute and a half.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, *extra):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--smoke",
         "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def expect_metrics(label, lines, result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    assert set(result["metrics"]) == {m["name"] for m in specs}, label
    printed = {ln.split()[0]: ln.split()[2] for ln in lines
               if ln.startswith("  ") and len(ln.split()) >= 3}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} not a number"
        assert printed.get(m["name"]) == m["unit"], f"{label}: {m['name']} not printed with unit"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in (w["name"] for w in spec["workloads"]):
        lines, result = run(w, "--trace", "0")
        expect_metrics(f"{w} trace 0", lines, result, spec["end_to_end"])
        assert any(ln.split()[:1] == ["fail_frac"] and ln.split()[2] == "frac"
                   for ln in lines if ln.startswith("  ")), f"{w}: fail_frac not printed"
        assert result["correct"] and result["failed"] == 0, f"{w}: {lines[-5:]}"

        lines, result = run(w, "--trace", "1")
        expect_metrics(f"{w} trace 1", lines, result, spec["per_layer"])
        assert result["correct"] and result["failed"] == 0, f"{w} traced: {lines[-5:]}"

        _, result = run(w, "--trace", "0", "--inject-wrong")
        assert result["failed"] == 1 and not result["correct"], f"{w}: planted error {result}"
        print(f"ok  {w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
