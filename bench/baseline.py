"""Record a baseline: every workload on several seeds, plus one traced run each.

Run from the repository root:

    python3 bench/baseline.py

Runs `bench/run.py` once per (workload, seed) for every workload in
BENCHMARK.json and seeds 1 to 10, one process at a time.  Writes to
`bench/BENCH_baseline.json`, per metric, the median, the quartiles, the
quartile spread as a share of the median (the benchmark's stability
figure), the same for the unscaled wall-clock figures the runs print as
comments, the per-run sample counts, and the machine and Python it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    if proc.returncode != 0 or not record["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    samples = next(
        json.loads(line[len("# samples "):]) for line in lines if line.startswith("# samples ")
    )
    wall = {}
    for line in lines:
        if line.startswith("# wall "):
            metric, value = line[len("# wall "):].split(" = ")
            wall[metric] = float(value.split()[0])
    return record, samples, wall


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        per_wall: dict[str, list[float]] = {}
        samples_per_run = []
        attempted = 0
        for seed in SEEDS:
            record, samples, wall = _run(name, seed, seconds, 0)
            attempted += record["attempted"]
            samples_per_run.append(samples)
            for metric, entry in record["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
            for metric, value in wall.items():
                per_wall.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: ok", file=sys.stderr, flush=True)
        traced, _, _ = _run(name, SEEDS[0], seconds, 1)
        report["workloads"][name] = {
            "attempted": attempted,
            "failed": 0,
            "samples_per_run": samples_per_run,
            "end_to_end": {m: summarize(v) for m, v in per_metric.items()},
            "wall_clock": {m: summarize(v) for m, v in per_wall.items()},
            "traced_run": {
                "seed": SEEDS[0],
                "per_layer": {m: e["value"] for m, e in traced["metrics"].items()},
            },
        }
        entry = report["workloads"][name]
        for metric, summary in entry["end_to_end"].items():
            print(f"{name:13s} {metric:16s} median {summary['median']:<12.6g} "
                  f"spread {summary['spread']:.3f} (wall clock: "
                  f"{entry['wall_clock'][metric]['spread']:.3f})", file=sys.stderr)  # fmt: skip
    (HERE / "BENCH_baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
