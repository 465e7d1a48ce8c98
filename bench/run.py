"""lrshare benchmark: operator command cycles and the compromise analyzer.

Run from the repository root:

    python3 bench/run.py --workload repair-wide --seed 1 --trace 0
    python3 bench/run.py                       # every workload, one after another

`--seconds` defaults to `run_seconds` in BENCHMARK.json, the run length
the baseline and the bounds were measured at.  The program under test is
`src/lrshare` of the same checkout, imported in-process; nothing is
installed.  With `--trace 0` the last line of
standard output is one JSON object with the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run instead.
The exit code is 0 only when every command succeeded and every output
check passed.  State directories live under `.bench_work/` and are
removed at the end; the traced run's spans are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import lrshare from this checkout's src/, or return None."""
    if not (SRC / "lrshare" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import lrshare

    if Path(lrshare.__file__).resolve().parent != (SRC / "lrshare").resolve():
        return None
    return lrshare


def _summary(samples: list[float]) -> str:
    import workloads

    parts = [f"n={len(samples)}", f"p50={statistics.median(samples) * 1e3:.2f}ms"]
    p90 = workloads.p90(samples)
    parts.append("p90=n/a (under 100 samples)" if p90 is None else f"p90={p90 * 1e3:.2f}ms")
    return " ".join(parts)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import speed
    import tracer as tracing
    import workloads

    lrshare = sys.modules["lrshare"]
    plan = workloads.make_plan(workloads.WORKLOADS[name], seed)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    tracer = tracing.Tracer(lrshare) if trace else None
    try:
        result = workloads.run_workload(plan, seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runner = result.runner

    print(f"# workload {name} seed {seed}: {result.iterations} iterations, "
          f"{result.cycles} completed cycles, closed loop, 1 client")  # fmt: skip
    for op in workloads.TIMED_OPS:
        if runner.times(op):
            print(f"# {op}: {_summary(runner.times(op))}")
    counts = {op: len(runner.times(op)) for op in workloads.TIMED_OPS}
    print(f"# samples {json.dumps(counts)}")
    frac = runner.failed / runner.attempted
    print(f"# ops_failed_frac={frac:g} ({runner.failed} of {runner.attempted})")
    for line in runner.failures:
        print(f"# FAILED {line}")

    if trace:
        out = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(out)
        setups = len(runner.times("setup", True))
        iterations = (result.iterations + 1) // 2
        names = [n for n, _ in tracing.per_layer_metrics()]
        values = tracing.layer_metrics(tracer.spans, setups, iterations, names)
        for op, unit in tracing.OVERHEAD_OPS:
            scale = 1.0 if unit == "s" else 1e3
            traced, plain = runner.times(op, True), runner.times(op, False)
            values[f"overhead.{op}_{unit}"] = (
                (statistics.median(traced) - statistics.median(plain)) * scale
                if traced and plain
                else 0.0
            )
        units = dict(tracing.per_layer_metrics())
        print(f"# spans written to {out.relative_to(ROOT)}")
    else:
        values = workloads.end_to_end(result)
        units = dict(workloads.END_TO_END)
        probe = runner.probe
        for name, samples, scale in (
            ("arithmetic", probe.arithmetic, speed.ARITHMETIC_S),
            ("rewrite processor", probe.rewrite_cpu, speed.REWRITE_CPU_S),
            ("rewrite wait", probe.rewrite_wait, speed.REWRITE_WAIT_S),
        ):
            print(f"# reference {name}: median {statistics.median(samples) * 1e3:.3f} ms of "
                  f"{len(samples)} samples, scaled to {scale * 1e3:g} ms")  # fmt: skip
        for metric, value in workloads.end_to_end(result, scaled=False).items():
            print(f"# wall {metric} = {value:.6g} {units[metric]}")
    for metric, value in values.items():
        print(f"# {metric} = {value:.6g} {units[metric]}")
    record = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(record))
    return 0 if runner.failed == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_program() is None:
        print(f"lrshare sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        worst = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]  # fmt: skip
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
        return worst
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
