"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload (the gated ones and the extra ones) once at a tiny size, untraced and traced, and checks that
each passes its correctness gate and reports exactly the end-to-end and
per-layer metrics BENCHMARK.json declares, with their units. Then the
negative check: one flipped byte in a collector file must make the gate fail
the batch run that wrote it. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, tiny, write_inputs  # noqa: E402

SEED = 3
FLIPPED = Path("batch-0") / "collectors" / "percentage_infected.json"


def declared(bench: dict, key: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in bench[key]}


def check_declarations(bench: dict) -> list[str]:
    problems = []
    for entry in bench["workloads"]:
        workload = WORKLOADS.get(entry["name"])
        if workload is None or workload.why != entry["why"]:
            problems.append(f"BENCHMARK.json workload {entry['name']} differs from workloads.WORKLOADS")
    if declared(bench, "end_to_end") != dict(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from workloads.END_TO_END")
    if declared(bench, "per_layer") != dict(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from workloads.PER_LAYER")
    return problems


def check_workloads(bench: dict) -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        small = tiny(workload)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.summarize(small, run.measure(ROOT, small, SEED, 0, trace, small=True), trace)
            units = {metric: value["unit"] for metric, value in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: correctness gate failed")
            if units != declared(bench, key):
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(units)} do not match {key}")
            print(f"smoke: {name} trace={int(trace)}: {result['attempted']} operations, "
                  f"{len(units)} metrics")
    return problems


def flip_one_byte(path: Path) -> None:
    """Change the first digit of the first recorded value, keeping the JSON valid."""
    data = bytearray(path.read_bytes())
    match = re.search(rb'"value": -?(\d)', data)
    i = match.start(1)
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def check_flipped_byte_fails() -> list[str]:
    small = tiny(WORKLOADS["sir-10k-persist"])
    work = ROOT / run.WORK_DIRNAME / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config = write_inputs(small, SEED, ROOT, work / "inputs")
        reports = []
        for k in range(2):
            sim_dir = work / f"run-{k}"
            out, final_states, _, _ = worker.execute(small, config, SEED, sim_dir)
            if k == 1:
                flip_one_byte(sim_dir / FLIPPED)
            reports.append(worker.verdict(small, sim_dir, out, final_states))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _, clean_failed, _ = run.gate(small, reports[:1] * 2, None)
    _, failed, problems = run.gate(small, reports, None)
    print(f"smoke: flipped byte in {FLIPPED}: {problems}")
    if clean_failed != 0:
        return ["identical runs failed the gate"]
    if failed != 1 or "run:batch-0" not in problems[0]:
        return [f"a flipped collector byte should fail exactly run:batch-0, got {problems}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_declarations(bench) + check_workloads(bench) + check_flipped_byte_fails()
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
