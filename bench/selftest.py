"""Self-test of the benchmark on shrunken workloads.

    python3 bench/selftest.py

For each workload, two seeds, untraced and traced: every answer passes and
the result line carries exactly the metrics BENCHMARK.json names, with their
units. The traced stages add up to depth.report_s and the counts repeat
exactly. A planted wrong golden value is counted as failed, and the
benchmark refuses to run where there is no package source.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def tiny_run(workload: str, seed: int, trace: bool, golden: dict) -> dict:
    result, lines = run.run(workload, seed, 0, trace, tiny=True, golden=golden)
    print("\n".join(lines[:3]))
    return result


def check_names(result: dict, spec: dict, trace: bool) -> None:
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"metrics differ from BENCHMARK.json: {got} != {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def check_stages(metrics: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    stages = sum(value[f"{stage}_s"] for stage in run.STAGES) + value["depth.unattributed_s"]
    assert abs(stages - value["depth.report_s"]) < 1e-9, (stages, value["depth.report_s"])
    assert value["depth.unattributed_s"] >= 0 and value["cli.overhead_s"] >= 0


def check_no_source() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "branching", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    run.MIN_PASSES = 2
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    golden = workloads.load_golden()
    counts_named = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]

    for workload in workloads.WORKLOADS:
        counts = []
        for seed, trace in ((1, False), (2, False), (1, True), (1, True), (2, True)):
            result = tiny_run(workload, seed, trace, golden)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            check_names(result, spec, trace)
            if trace:
                check_stages(result["metrics"])
                counts.append([result["metrics"][c]["value"] for c in counts_named])
        assert counts[0] == counts[1], f"{workload}: counts differ between runs: {counts}"

    wrong = copy.deepcopy(golden)
    wrong["branching"]["6"]["q_witness"] += 1
    result = tiny_run("branching", 1, False, wrong)
    assert not result["correct"] and result["failed"] >= run.MIN_PASSES, result

    wrong = copy.deepcopy(golden)
    wrong["small"]["outputs"] = ["0" * 12] * len(wrong["small"]["outputs"])
    result = tiny_run("small_batch", 1, False, wrong)
    ops = workloads.TINY["small_batch"] * run.MIN_PASSES
    assert not result["correct"] and result["failed"] == ops, result

    check_no_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
