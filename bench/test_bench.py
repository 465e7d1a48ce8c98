"""Tests of the benchmark itself: statistics, span arithmetic, inputs, checks.

Run from the repository root with `python3 -m pytest bench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lrshare import protocol  # noqa: E402

# The paper deployment, small enough to set up in milliseconds.
TINY = workloads.Workload("tiny", workloads.Deployment("paper", 8, 12, 3), recover_extra=0)


def test_p90_needs_ten_samples_beyond():
    assert workloads.p90([float(i) for i in range(1, 101)]) == 90.0
    assert workloads.p90([float(i) for i in range(1, 100)]) is None
    assert workloads.p90([float(i) for i in range(1, 201)]) == 180.0


def _probe(tmp_path, arithmetic, rewrite_cpu, rewrite_wait):
    probe = speed.SpeedProbe(tmp_path)
    for i, sample in enumerate(zip(arithmetic, rewrite_cpu, rewrite_wait)):
        probe.at.append(float(i))
        probe.arithmetic.append(sample[0])
        probe.rewrite_cpu.append(sample[1])
        probe.rewrite_wait.append(sample[2])
    return probe


def test_scaling_divides_out_each_reference_speed(tmp_path):
    a, c, w = speed.ARITHMETIC_S, speed.REWRITE_CPU_S, speed.REWRITE_WAIT_S
    # 0.4 s wall: 0.2 s user, 0.1 s system, 0.1 s waiting.
    at_reference = _probe(tmp_path, [a] * 9, [c] * 9, [w] * 9)
    assert at_reference.scaled(4.5, 0.4, 0.3, 0.2) == pytest.approx(0.4)
    # Python twice as slow, file work 4x, the disk 5x: 0.2/2 + 0.1/4 + 0.1/5.
    slow = _probe(tmp_path, [2 * a] * 9, [4 * c] * 9, [5 * w] * 9)
    assert slow.scaled(4.5, 0.4, 0.3, 0.2) == pytest.approx(0.1 + 0.025 + 0.02)
    # A command's speeds come from the samples around it, not the whole run.
    shift = _probe(tmp_path, [a] * 20 + [2 * a] * 20, [c] * 40, [w] * 40)
    assert shift.scaled(5.5, 0.2, 0.2, 0.2) == pytest.approx(0.2)
    assert shift.scaled(34.5, 0.2, 0.2, 0.2) == pytest.approx(0.1)
    # A quiet disk multiplies a command's waiting by at most WAIT_FLOOR.
    quiet = _probe(tmp_path, [a] * 9, [c] * 9, [0.0] * 9)
    assert quiet.scaled(4.5, 0.4, 0.3, 0.2) == pytest.approx(0.3 + 0.1 * speed.WAIT_FLOOR)


def test_probe_times_the_reference_work(tmp_path):
    probe = speed.SpeedProbe(tmp_path / "speed")
    for _ in range(3):
        probe.sample()
    assert [len(probe.arithmetic), len(probe.rewrite_cpu), len(probe.rewrite_wait)] == [3] * 3
    assert all(a > 0 for a in probe.arithmetic + probe.rewrite_cpu)
    assert all(w >= 0 for w in probe.rewrite_wait)
    assert probe.at == sorted(probe.at)


def _span(name, start, end, parent, unit="iter0"):
    span = tracing.Span(name, start, parent, unit)
    span.end = end
    return span


def test_self_time_subtracts_child_spans():
    spans = [
        _span("cli.repair", 0.0, 10.0, None),
        _span("protocol.request_repair", 1.0, 4.0, 0),
        _span("field.poly_interpolate", 1.5, 2.5, 1),
        _span("protocol.save_state", 6.0, 9.0, 0),
        _span("bench.measure", 9.0, 9.5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 3.0, 0.5])


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert tracing.covered([], 0, 10) == 0.0


def test_layer_metrics_are_per_setup_plus_per_iteration():
    spans = [
        _span("cli.setup", 0.0, 4.0, None, "setup0"),
        _span("shamir.split", 1.0, 2.0, 0, "setup0"),
        _span("cli.recover", 10.0, 11.0, None, "iter0"),
        _span("shamir.recover", 10.2, 10.6, 2, "iter0"),
        _span("cli.recover", 20.0, 21.0, None, "iter2"),
        _span("shamir.recover", 20.2, 20.6, 4, "iter2"),
    ]
    names = ["shamir.split.calls", "shamir.recover.calls", "shamir.recover.self_s",
             "layer.shamir.loop_share", "threat.mc_group_compromise.calls"]  # fmt: skip
    got = tracing.layer_metrics(spans, setups=1, iterations=2, names=names)
    assert got["shamir.split.calls"] == 1
    assert got["shamir.recover.calls"] == 1
    assert got["shamir.recover.self_s"] == pytest.approx(0.4)
    assert got["layer.shamir.loop_share"] == pytest.approx(0.4)
    assert got["threat.mc_group_compromise.calls"] == 0


def _setup(plan, directory):
    dep = plan.workload.cycle
    runner = workloads.Runner()
    ok, _ = runner.run("setup", plan.setup_argv(dep, directory), lambda out: True)
    assert ok
    return protocol.load_state(directory)


def _take(stream, count):
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_argv_sequence(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first, second = workloads.make_plan(workload, 7), workloads.make_plan(workload, 7)
    assert first == second
    assert first != workloads.make_plan(workload, 8)
    deps = first.deployments()
    assert [first.setup_argv(d, tmp_path) for d in deps] == [
        second.setup_argv(d, tmp_path) for d in deps
    ]
    nodes = list(range(1, 9))
    assert _take(workloads.cycle_argvs(first, tmp_path, nodes), 50) == _take(
        workloads.cycle_argvs(second, tmp_path, nodes), 50
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fail_targets_never_host_a_subshare(seed, tmp_path):
    plan = workloads.make_plan(TINY, seed)
    state = _setup(plan, tmp_path / "paper")
    hosting = {i for i, node in state.nodes.items() if node.hosted}
    assert hosting
    cycled = workloads.CycleDeployment(tmp_path / "paper")
    assert set(cycled.free_nodes) == set(state.nodes) - hosting
    stream = workloads.cycle_argvs(plan, cycled.directory, cycled.free_nodes)
    targets = {target for target, *_ in _take(stream, 200)}
    assert targets and not targets & hosting


def test_cycles_return_state_to_setup_bytes(tmp_path):
    plan = workloads.make_plan(TINY, 5)
    _setup(plan, tmp_path / "paper")
    cycled = workloads.CycleDeployment(tmp_path / "paper")
    stream = workloads.cycle_argvs(plan, cycled.directory, cycled.free_nodes)
    runner = workloads.Runner()
    for _ in range(10):
        assert workloads.run_cycle(runner, plan, cycled, next(stream))
    assert runner.failed == 0 and runner.attempted == 30
    assert workloads._read_tree(cycled.directory) == cycled.snapshot


def test_failed_check_counts_as_failed_op_not_crash(tmp_path):
    plan = workloads.make_plan(TINY, 5)
    _setup(plan, tmp_path / "paper")
    cycled = workloads.CycleDeployment(tmp_path / "paper")
    wrong = workloads.Plan(
        plan.workload, plan.seed, plan.secret + 1, plan.setup_seeds, plan.mc_seed
    )
    runner = workloads.Runner()
    stream = workloads.cycle_argvs(wrong, cycled.directory, cycled.free_nodes)
    assert not workloads.run_cycle(runner, wrong, cycled, next(stream))
    assert (runner.attempted, runner.failed) == (3, 1)
    assert "recover" in runner.failures[0]

    def boom(out):
        raise ValueError("bad output")

    ok, _ = runner.run("fail", ["--state-dir", str(tmp_path / "paper"), "fail",
                                "--node", "999"], lambda out: True)  # fmt: skip
    assert not ok
    ok, _ = runner.run("recover", next(stream)[3], boom)
    assert not ok
    assert (runner.attempted, runner.failed) == (5, 3)


def test_repair_trace_check():
    good = "\n".join([
        "000 | request | 3 | 1,2,4 | failed=3 x=3",
        "004 | holder-response | 9 | 3 | sub_x=5 sub_y=[redacted]",
        "005 | contribution | 1 | 3 | sub_x=1 sub_y=[redacted] point_x=1 point_y=[redacted]",
        "008 | delivery | 3 | 3 | x=3 y=12345",
        "node 3 repaired",
    ])  # fmt: skip
    assert workloads.repair_trace_ok(good, 3, 12345)
    assert not workloads.repair_trace_ok(good, 3, 12346)
    leaked = good.replace("point_y=[redacted]", "point_y=77")
    assert not workloads.repair_trace_ok(leaked, 3, 12345)


def test_mc_check_uses_the_fixed_tolerance_at_1e5_trials():
    def record(p1_off, p2_off=0.0, trials=workloads.MC_TRIALS):
        return json.dumps({
            "trials": trials, "p1_exact": 0.3, "p1_empirical": 0.3 + p1_off,
            "p2_exact": 0.2, "p2_empirical": 0.2 + p2_off,
        })  # fmt: skip

    assert workloads._mc_check(record(0.0049, -0.0049))
    assert not workloads._mc_check(record(0.0051))
    assert not workloads._mc_check(record(0.0, -0.0051))
    assert not workloads._mc_check(record(0.0, trials=10_000))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        tracing.per_layer_metrics()
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_every_wrapped_function():
    import lrshare

    tracer = tracing.Tracer(lrshare)
    before = {(id(o), a): o.__dict__[a] for o, a, *_ in tracing._hooks(lrshare)}
    tracer.install()
    assert lrshare.groups.split is not before[(id(lrshare.groups), "split")]
    tracer.uninstall()
    after = {(id(o), a): o.__dict__[a] for o, a, *_ in tracing._hooks(lrshare)}
    assert after == before


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "repair-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_wrapped_function_has_its_metrics():
    import lrshare

    spanned = {name for _, _, name, *_ in tracing._hooks(lrshare)}
    commands = {f"cli.{c}" for c in workloads._COMMANDS}
    assert spanned | commands == set(tracing.SPANNED)
