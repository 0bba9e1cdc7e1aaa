"""crowdkit benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sir-100k-mem --seed 0 --seconds 20 --trace 0

Every input is generated from ``--seed``. Each workload run happens in a
fresh worker process (``worker.py``) with one BLAS/OpenMP thread, so its peak
RSS covers that run only; runs repeat until ``--seconds`` is used up and the
reported figures are medians over them. With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` traced and untraced runs alternate and
the per-layer metrics plus the tracing overhead are printed. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Correctness gate: every operation (each ``simulate`` run and each merge)
must succeed, its outputs must pass the worker's checks, repeats must agree
byte for byte, and at the default seed the digests must equal golden.json.

No caches are dropped and no system setting is tuned: figures are as the
machine delivers them, recorded with its CPU model and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORK_DIRNAME = ".perfbench-work"
WORKER_TIMEOUT_S = 170.0
HARD_LIMIT_S = 170.0
MIN_REPEATS = 3
MAX_REPEATS = 60
MIB = 1 << 20

FAILED_FRAC_UNIT = "ratio"

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Machine and library versions the figures were taken with."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_per_worker": 1,
        "system_tuning": "none: no cache dropping, no frequency or scheduler settings",
    }


def expected_ops(workload: Workload) -> int:
    if workload.mode == "memory":
        return 1
    merges = 12 if workload.mode == "sweep" else 1  # sweep: one per variant (11) plus the labeled merge
    return workload.runs + merges


def run_worker(root: Path, workload: Workload, seed: int, inputs: Path, sim_dir: Path, trace: bool,
               spans: Path | None, small: bool, timeout: float) -> dict | None:
    """One workload run in a fresh process. Returns its report, or None if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name, "--seed", str(seed),
           "--inputs", str(inputs), "--sim-dir", str(sim_dir), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if small:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(sim_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"worker printed no report:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None


def gate(workload: Workload, reports: list[dict | None], golden: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every run.

    An operation fails when it raised, when its outputs failed the worker's
    checks, when a file it wrote differs from the first run's copy, or, with
    ``golden`` given, when it differs from the stored digest.
    """
    attempted = failed = 0
    problems: list[str] = []
    reference = golden if golden is not None else next((r["digests"] for r in reports if r), None)
    for k, report in enumerate(reports):
        if report is None:
            attempted += expected_ops(workload)
            failed += expected_ops(workload)
            problems.append(f"run {k}: worker failed")
            continue
        bad = {op: error for op, error in report["ops"].items() if error}
        digests = report["digests"]
        for name in sorted(set(digests) | set(reference or {})):
            if reference is not None and digests.get(name) != reference.get(name):
                op = report["digest_ops"].get(name) or next(iter(report["ops"]))
                bad.setdefault(op, f"{name}: digest differs from the {'golden' if golden else 'first run'}")
        attempted += len(report["ops"])
        failed += len(bad)
        problems.extend(f"run {k}: {op}: {error}" for op, error in sorted(bad.items()))
    return attempted, failed, problems


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool, small: bool = False,
            golden: dict | None = None) -> dict:
    """Repeat the workload in fresh processes for ``seconds``; collect every report."""
    work = root / WORK_DIRNAME / f"{workload.name}-seed{seed}-{os.getpid()}"
    inputs = work / "inputs"
    started = time.perf_counter()
    write_inputs(workload, seed, root, inputs)
    reports: list[dict | None] = []
    traced: list[bool] = []
    durations: list[float] = []
    try:
        while True:
            elapsed = time.perf_counter() - started
            timeout = min(WORKER_TIMEOUT_S, HARD_LIMIT_S - elapsed)
            if timeout <= 0:
                break
            t = trace and len(reports) % 2 == 0
            spans = root / WORK_DIRNAME / "traces" / f"{workload.name}-seed{seed}.json" if t else None
            t0 = time.perf_counter()
            reports.append(run_worker(root, workload, seed, inputs, work / f"run-{len(reports)}", t, spans,
                                      small, timeout))
            traced.append(t)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            if len(reports) >= MAX_REPEATS:
                break
            if len(reports) >= MIN_REPEATS and elapsed + statistics.median(durations) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"reports": reports, "traced": traced, "golden": golden}


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def end_to_end(workload: Workload, reports: list[dict]) -> dict[str, float]:
    wall = median_of(reports, "wall_s")
    return {
        "wall_s": wall,
        "setup_s": median_of(reports, "setup_s"),
        "node_steps_per_s": workload.nodes * workload.epochs * workload.runs / wall,
        "peak_rss_mb": median_of(reports, "peak_rss_mb"),
        "disk_mb": median_of(reports, "disk_bytes") / MIB,
    }


def per_layer(reports: list[dict], traced: list[bool]) -> dict[str, float]:
    traced_reports = [r for r, t in zip(reports, traced) if t and r]
    plain = [r for r, t in zip(reports, traced) if not t and r]
    names = traced_reports[0]["layers"].keys()
    out = {name: statistics.median(r["layers"][name] for r in traced_reports) for name in names}
    if plain:
        out["trace.overhead_s"] = median_of(traced_reports, "wall_s") - median_of(plain, "wall_s")
    return out


def summarize(workload: Workload, run: dict, trace: bool) -> dict:
    """The result object: correctness, operation counts and the metrics with units."""
    reports, traced = run["reports"], run["traced"]
    attempted, failed, problems = gate(workload, reports, run["golden"])
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    ok = [r for r in reports if r]
    metrics: dict[str, dict] = {}
    if ok and (not trace or any(t for r, t in zip(reports, traced) if r)):
        if trace:
            units = dict(PER_LAYER)
            values = per_layer(reports, traced)
        else:
            units = dict(END_TO_END)
            values = end_to_end(workload, ok)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {
        "correct": failed == 0 and bool(ok),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's output digests in golden.json (default seed only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "crowdkit" / "__init__.py").is_file():
        print(f"no crowdkit sources under {root / 'src'}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print(f"--write-golden needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden_all = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        golden = golden_all.get(workload.name, {})

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    run = measure(root, workload, args.seed, args.seconds, bool(args.trace), golden=golden)
    result = summarize(workload, run, bool(args.trace))
    reports = [r for r in run["reports"] if r]
    print(f"workload {workload.name}: seed {args.seed}, {len(run['reports'])} runs "
          f"({workload.nodes} nodes x {workload.epochs} epochs x {workload.runs} simulate runs each)")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':28s} {failed_frac:.6g} {FAILED_FRAC_UNIT} "
          f"({result['failed']} of {result['attempted']} operations)")

    if args.write_golden:
        if not result["correct"] or not reports:
            print("not writing golden.json: the run did not pass its own checks", file=sys.stderr)
            return 1
        golden_all[workload.name] = reports[0]["digests"]
        GOLDEN.write_text(json.dumps(golden_all, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    results_dir = root / WORK_DIRNAME / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace, environment=env,
                  runs=len(run["reports"]), samples={k: [r[k] for r in reports] for k in ("wall_s", "setup_s")})
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
