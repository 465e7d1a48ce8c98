"""Workloads, input generation, output checks and the timed loop.

Every workload is a closed loop with one client: the next command starts
only after the previous one returned.  Commands are argv lists handed to
`lrshare.cli.main` in-process, so interpreter start-up (roughly constant
per command and noisy) is left out, and module-level caches such as
`shamir._zero_weights` stay warm across commands, unlike separate
`lrshare` processes.

Each workload sets up once, then loops until the time is up.  An
iteration runs one fail -> repair -> recover cycle, preceded by the
analysis block (the `attack` commands) while blocks have taken at most a
quarter of the loop time, so every workload reports every end-to-end metric
while the cycles keep most of their time.  The setup phase is repeated
into fresh state directories at even intervals through the loop, and
`setup_s` is the median of all repetitions: the machine's speed drifts
over seconds, and repetitions spread over the run average that drift as
the loop's own samples do.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import speed
from lrshare import cli, protocol, threat
from lrshare.field import DEFAULT_MODULUS

MC_Q = 0.5
MC_TRIALS = 100_000
# The acceptance suite's Monte Carlo tolerance at 1e5 trials, about four
# standard deviations of the sss5 estimate at q=0.5.
MC_TOLERANCE = 0.005


@dataclass(frozen=True)
class Deployment:
    """One `lrshare setup` configuration and what `attack --mode enum` must give."""

    label: str
    k: int
    n: int
    m: int
    placement: str = "random"
    enum_size: int | None = None  # expected minimum compromise size, if fixed


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Deployment  # deployment the fail -> repair -> recover cycles run on
    recover_extra: int  # participants beyond k in each recover


# The paper deployment (k=8, n=12, m=3) and a 16-node one under each placement.
P12_RECIPROCAL = Deployment("p12-reciprocal", 8, 12, 3, "reciprocal", enum_size=6)
P12_RANDOM = Deployment("p12-random", 8, 12, 3, "random")
P12_NONE = Deployment("p12-none", 8, 12, 3, "none", enum_size=8)
P16_RECIPROCAL = Deployment("p16-reciprocal", 12, 16, 4, "reciprocal")
P16_RANDOM = Deployment("p16-random", 12, 16, 4, "random")
P16_NONE = Deployment("p16-none", 12, 16, 4, "none", enum_size=12)
ENUM_FIXTURES = (P16_RECIPROCAL, P16_RANDOM, P16_NONE, P12_RECIPROCAL, P12_RANDOM, P12_NONE)

# `enum_mean_ms` times only this fixture: with no redundancy the search runs
# every subset below size k, so its work is the same for every seed.  On the
# reciprocal and random fixtures the search stops at a subset that depends
# on the placement, which spreads their times by about 40 % across seeds.
TIMED_ENUM = P16_NONE
# The anti-reciprocal sweep enumerates every admissible placement, so its
# work does not depend on the state's own placement either.
SWEEP_FIXTURE = P12_RANDOM
SWEEP_SIZE = 7

# An iteration starts with the analysis block while blocks have taken at
# most this share of the loop's elapsed time.
BLOCK_SHARE = 0.25
MC_EVERY = 2
SETUP_REPS = 7

WORKLOADS = {
    w.name: w
    for w in (
        Workload("repair-wide", Deployment("wide", 128, 256, 4), recover_extra=16),
        Workload("churn-narrow", Deployment("narrow", 128, 1024, 256), recover_extra=0),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("fail_p50_ms", "ms"),
    ("repair_p50_ms", "ms"),
    ("recover_p50_ms", "ms"),
    ("cycles_per_s", "1/s"),
    ("enum_mean_ms", "ms"),
    ("sweep_mean_ms", "ms"),
    ("mc_trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Ops whose latencies are reported; enum-check runs are checked but not reported.
TIMED_OPS = ("setup", "fail", "repair", "recover", "enum", "sweep", "mc")
_CYCLE_OPS = ("fail", "repair", "recover")


# -- statistics --------------------------------------------------------------------


def p90(samples: list[float]) -> float | None:
    """Nearest-rank 90th percentile, or None when fewer than 10 samples lie beyond it."""
    n = len(samples)
    rank = -(-9 * n // 10)
    return sorted(samples)[rank - 1] if n - rank >= 10 else None


# -- inputs ----------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """Everything a run feeds the program, derived from (workload, seed)."""

    workload: Workload
    seed: int
    secret: int
    setup_seeds: dict[str, int]
    mc_seed: int

    def deployments(self) -> list[Deployment]:
        return [self.workload.cycle, *ENUM_FIXTURES]

    def setup_argv(self, dep: Deployment, directory: Path) -> list[str]:
        return [
            "--state-dir", str(directory), "setup",
            "--k", str(dep.k), "--n", str(dep.n), "--m", str(dep.m),
            "--secret", str(self.secret), "--seed", str(self.setup_seeds[dep.label]),
            "--placement", dep.placement,
        ]  # fmt: skip

    def mc_argv(self) -> list[str]:
        return [
            "--format", "json", "attack", "--mode", "mc", "--q", str(MC_Q),
            "--trials", str(MC_TRIALS), "--seed", str(self.mc_seed),
        ]  # fmt: skip


def make_plan(workload: Workload, seed: int) -> Plan:
    rng = random.Random(f"lrshare-bench:{workload.name}:{seed}")
    secret = rng.randrange(1, DEFAULT_MODULUS)
    labels = sorted(dep.label for dep in (workload.cycle, *ENUM_FIXTURES))
    setup_seeds = {label: rng.getrandbits(32) for label in labels}
    # Derived from the seed alone, so one seed checks one Monte Carlo draw.
    mc_seed = random.Random(f"lrshare-bench:mc:{seed}").getrandbits(32)
    return Plan(workload, seed, secret, setup_seeds, mc_seed)


def cycle_argvs(plan: Plan, directory: Path, free_nodes: list[int]):
    """Endless (target, fail argv, repair argv, recover argv) stream.

    Fail targets come only from `free_nodes`, the nodes that host no
    foreign sub-share: failing a holder erases its group's external
    sub-share for good, and that group's later repairs would end in
    holder-lost.  With such targets each cycle returns the state to its
    setup bytes, so every cycle does the same work.
    """
    dep = plan.workload.cycle
    rng = random.Random(f"lrshare-bench:{plan.workload.name}:{plan.seed}:cycles")
    count = dep.k + plan.workload.recover_extra
    base = ["--state-dir", str(directory)]
    while True:
        target = free_nodes[rng.randrange(len(free_nodes))]
        participants = sorted(rng.sample(range(1, dep.n + 1), count))
        yield (
            target,
            base + ["fail", "--node", str(target)],
            base + ["repair", "--node", str(target)],
            base + ["recover", "--participants", *map(str, participants)],
        )


# -- running and checking ----------------------------------------------------------


class Runner:
    """Runs commands through cli.main, times each one and counts failures.

    A command fails when it exits non-zero, raises, or its output check
    returns False or raises; a failure is counted, never propagated.  With
    a `speed.SpeedProbe`, the reference work is timed before each command,
    outside the command's timers.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.traced = False
        self.samples: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.starts: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.cpu: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.user: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, op: str, argv: list[str], check) -> tuple[bool, str]:
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        if self.probe is not None:
            self.probe.sample()
        span = None
        if self.traced:
            span = self.tracer.open(f"cli.{next(a for a in argv if a in _COMMANDS)}")
        started, cpu, user = time.perf_counter(), time.process_time(), speed.user_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = f"raised {exc!r}"
        elapsed, cpu = time.perf_counter() - started, time.process_time() - cpu
        user = speed.user_time() - user
        if span is not None:
            self.tracer.close(span)
        self.samples[(op, self.traced)].append(elapsed)
        self.starts[(op, self.traced)].append(started)
        self.cpu[(op, self.traced)].append(cpu)
        self.user[(op, self.traced)].append(user)
        text = out.getvalue()
        if code != 0:
            return self._fail(op, argv, f"exit {code}: {err.getvalue().strip()}"), text
        try:
            ok = bool(check(text))
        except Exception as exc:
            ok = False
            text = f"check raised {exc!r}"
        if not ok:
            return self._fail(op, argv, f"check failed: {text.strip()[:200]}"), text
        return True, text

    def _fail(self, op, argv, why) -> bool:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op} {' '.join(argv[-4:])}: {why}")
        return False

    def times(self, op: str, traced: bool = False) -> list[float]:
        return self.samples.get((op, traced), [])

    def scaled(self, op: str) -> list[float]:
        """The untraced times of `op`, scaled to the reference speeds."""
        key = (op, False)
        samples = zip(self.starts[key], self.samples[key], self.cpu[key], self.user[key])
        return [self.probe.scaled(*sample) for sample in samples]


_COMMANDS = frozenset({"setup", "fail", "repair", "recover", "attack"})
_Y_VALUE = re.compile(r"\b(y|sub_y|point_y)=(\S+)")


def repair_trace_ok(text: str, node: int, expected_y: int) -> bool:
    """Only the delivery line carries a y value, and it is the original one."""
    lines = text.splitlines()
    if not lines or lines[-1] != f"node {node} repaired":
        return False
    deliveries = 0
    for line in lines[:-1]:
        _, kind, _, _, summary = line.split(" | ", 4)
        values = _Y_VALUE.findall(summary)
        if kind == "delivery":
            deliveries += 1
            if values != [("y", str(expected_y))]:
                return False
        elif any(value != "[redacted]" for _, value in values):
            return False
    return deliveries == 1


def _read_tree(directory: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in directory.rglob("*.json")}


class CycleDeployment:
    """The cycled deployment's post-setup bytes, kept to check exact repair."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.snapshot = _read_tree(directory)
        state = protocol.load_state(directory)
        self.y = {i: node.primary.y for i, node in state.nodes.items()}
        self.free_nodes = sorted(i for i, node in state.nodes.items() if not node.hosted)
        width = len(str(state.n))
        node_dir = directory / protocol.NODE_DIR
        self.node_file = lambda i: node_dir / f"node_{i:0{width}d}.json"
        self.registry = directory / protocol.REGISTRY_FILE

    def unchanged(self, node: int) -> bool:
        return all(
            path.read_bytes() == self.snapshot[path]
            for path in (self.node_file(node), self.registry)
        )

    def restore(self):
        for path, data in self.snapshot.items():
            path.write_bytes(data)


def run_cycle(runner: Runner, plan: Plan, dep: CycleDeployment, argvs) -> bool:
    target, fail, repair, recover = argvs
    ok, _ = runner.run(
        "fail", fail, lambda out: out == f"node {target} failed: private data erased\n"
    )
    if ok:
        ok, _ = runner.run(
            "repair",
            repair,
            lambda out: repair_trace_ok(out, target, dep.y[target])
            and dep.unchanged(target),
        )
    if ok:
        ok, _ = runner.run("recover", recover, lambda out: out == f"{plan.secret}\n")
    if not ok:
        dep.restore()
    return ok


def _enum_check(state, expected: int | None, closure: bool):
    def check(out: str) -> bool:
        record = json.loads(out)
        size, witness = record["min_compromise_size"], record["witness_subset"]
        if len(witness) != size or (expected is not None and size != expected):
            return False
        return not closure or threat.attacker_closure(state, witness).secret_recovered

    return check


def _mc_check(out: str) -> bool:
    record = json.loads(out)
    return (
        record["trials"] == MC_TRIALS
        and abs(record["p1_empirical"] - record["p1_exact"]) <= MC_TOLERANCE
        and abs(record["p2_empirical"] - record["p2_exact"]) <= MC_TOLERANCE
    )


def run_block(runner: Runner, plan: Plan, dirs: dict[str, Path], states: dict, number: int):
    """The analysis commands: enum on each fixture, the sweep, Monte Carlo.

    The untimed enums on the other fixtures give the same answer every
    time, so they run in the first block only.  Monte Carlo, the longest
    command, runs in every MC_EVERY-th block, which leaves the timed enum
    and the sweep more samples.  The sweep's witness is minimal under some
    admissible placement, not the state's own, so only its size is
    checked: the paper's 7.
    """
    for dep in ENUM_FIXTURES:
        if dep != TIMED_ENUM and number:
            continue
        argv = ["--state-dir", str(dirs[dep.label]), "--format", "json"]
        argv += ["attack", "--mode", "enum"]
        op = "enum" if dep == TIMED_ENUM else "enum-check"
        runner.run(op, argv, _enum_check(states[dep.label], dep.enum_size, True))
    argv = ["--state-dir", str(dirs[SWEEP_FIXTURE.label]), "--format", "json"]
    argv += ["attack", "--mode", "enum", "--anti-reciprocal"]
    runner.run("sweep", argv, _enum_check(None, SWEEP_SIZE, False))
    if number % MC_EVERY == 0:
        runner.run("mc", plan.mc_argv(), _mc_check)


# -- the run ----------------------------------------------------------------------


@dataclass
class Result:
    runner: Runner
    cycles: int
    iterations: int
    peak_rss_mb: float
    setup_steps: int  # setup commands per setup repetition


@contextlib.contextmanager
def _traced(runner: Runner, tracer, on: bool, unit: str):
    if on:
        tracer.install()
        tracer.unit = unit
    runner.traced = on
    try:
        yield
    finally:
        runner.traced = False
        if on:
            tracer.uninstall()


def run_setup(runner: Runner, plan: Plan, work: Path, rep: int) -> dict[str, Path]:
    """Set up every deployment into fresh directories under `work/rep<rep>`."""
    traced = runner.tracer is not None and rep % 2 == 0
    dirs = {dep.label: work / f"rep{rep}" / dep.label for dep in plan.deployments()}
    with _traced(runner, runner.tracer, traced, f"setup{rep}"):
        took = 0.0
        for dep in plan.deployments():
            runner.run(
                "setup-step",
                plan.setup_argv(dep, dirs[dep.label]),
                lambda out: out.startswith("system ready:"),
            )
            took += runner.times("setup-step", traced)[-1]
    runner.samples[("setup", traced)].append(took)
    return dirs


def run_workload(plan: Plan, seconds: float, work: Path, tracer=None) -> Result:
    """Set up, then loop for `seconds`; with a tracer, every other unit is traced.

    The directories of the later setup repetitions are only timed and
    checked; they stay until the caller removes `work`, so deleting them
    puts no disk traffic into the loop.
    """
    workload = plan.workload
    runner = Runner(tracer, speed.SpeedProbe(work / "speed"))
    dirs = run_setup(runner, plan, work, 0)
    states = {label: protocol.load_state(path) for label, path in dirs.items()}
    cycled = CycleDeployment(dirs[workload.cycle.label])
    stream = cycle_argvs(plan, cycled.directory, cycled.free_nodes)

    cycles, block_seconds, iteration, blocks, reps = 0, 0.0, 0, 0, 1
    started = time.perf_counter()
    deadline = started + seconds
    while iteration < 2 or time.perf_counter() < deadline:
        if reps < SETUP_REPS and time.perf_counter() - started >= reps * seconds / SETUP_REPS:
            run_setup(runner, plan, work, reps)
            reps += 1
        traced = tracer is not None and iteration % 2 == 0
        with _traced(runner, tracer, traced, f"iter{iteration}"):
            if block_seconds <= BLOCK_SHARE * (time.perf_counter() - started):
                began = time.perf_counter()
                run_block(runner, plan, dirs, states, blocks)
                block_seconds += time.perf_counter() - began
                blocks += 1
            cycles += run_cycle(runner, plan, cycled, next(stream))
        iteration += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Result(runner, cycles, iteration, peak, len(plan.deployments()))


def end_to_end(result: Result, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics of an untraced run, at the reference speed or wall.

    Every time is scaled to the reference speed (see `speed`) command by
    command, unless `scaled` is False.  The attack commands are CPU-bound,
    and a run holds only 20-30 enum or sweep samples, so those two, like
    `mc_trials_per_s` and `cycles_per_s`, are means: a median of so few
    jumps between samples taken at different speeds.
    """
    runner = result.runner
    times = runner.scaled if scaled else runner.times
    p50_ms = lambda op: statistics.median(times(op)) * 1e3  # noqa: E731
    mean_ms = lambda op: statistics.mean(times(op)) * 1e3  # noqa: E731
    steps, per_rep = times("setup-step"), result.setup_steps
    setups = [sum(steps[i : i + per_rep]) for i in range(0, len(steps), per_rep)]
    mc = times("mc")
    return {
        "setup_s": statistics.median(setups),
        "fail_p50_ms": p50_ms("fail"),
        "repair_p50_ms": p50_ms("repair"),
        "recover_p50_ms": p50_ms("recover"),
        "cycles_per_s": result.cycles / sum(sum(times(op)) for op in _CYCLE_OPS),
        "enum_mean_ms": mean_ms("enum"),
        "sweep_mean_ms": mean_ms("sweep"),
        # each mc command runs both schemes, trials each
        "mc_trials_per_s": 2 * MC_TRIALS * len(mc) / sum(mc),
        "peak_rss_mb": result.peak_rss_mb,
    }
