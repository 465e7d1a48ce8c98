"""Machine-speed reference: a fixed piece of work timed next to every command.

The benchmark's host drifts in speed by up to 1.7x, in phases that last
seconds to minutes, and the drift moves every command of a run together.
Three parts of a command's time drift apart from each other: running
Python code, the kernel's file system work for the command's system
calls, and waiting for the shared disk under the state directory, whose
writeback the commands wait for when they rewrite their store files.  So
before each command the runner times a fixed piece of reference work that
calls no lrshare code, in two parts:

- `arithmetic`: small-integer modular arithmetic in a Python loop and
  in-memory JSON, what lrshare's commands spend their user time on;
- `rewrite`: rewriting a few small JSON files in place and reading them
  back, as `protocol.save_state` and `load_state` do.  Its processor time
  and its waiting time (wall time minus processor time) are kept apart.

A command's wall time is split the same way: user time
(`resource.getrusage`), the rest of its processor time
(`time.process_time`), and the rest of its wall time, the time it waited.
Each part is multiplied by a constant over the median of its reference
around the command: user time by ARITHMETIC_S over the arithmetic time,
system time by REWRITE_CPU_S over the rewrite's processor time, waiting
by REWRITE_WAIT_S over the rewrite's waiting time.  The result is the
time the command would have taken at the speeds at which the reference
work takes those constants.  The reference work does not change with the
program, so a change to lrshare moves the scaled times as it moves the
wall times; only the host's drift is divided out.
"""

from __future__ import annotations

import bisect
import json
import resource
import statistics
import time
from pathlib import Path

# The reference work's median times on the 2-vCPU Xeon VM the benchmark
# was tuned on, in a fast phase: there a scaled time reads about as its
# wall time.
ARITHMETIC_S = 0.0011
REWRITE_CPU_S = 0.0020
REWRITE_WAIT_S = 0.0008
# Reference samples on each side of a command that set its speeds: enough
# to outvote a disturbed sample, few enough to follow a change of phase.
WINDOW = 4
# On a quiet disk the rewrite can wait next to nothing; its waiting time
# counts as at least REWRITE_WAIT_S / WAIT_FLOOR, so a command's own few
# milliseconds of waiting are multiplied by at most WAIT_FLOOR.
WAIT_FLOOR = 4

_MODULUS = (1 << 31) - 1
_FILES = 16


def arithmetic() -> int:
    """A fixed ~1 ms of modular arithmetic and JSON; returns a checksum."""
    acc = 1
    for i in range(1, 6000):
        acc = (acc * 48271 + i) % _MODULUS
    record = {"id": acc % 1024, "points": [[i, (acc * i) % _MODULUS] for i in range(64)]}
    return acc ^ len(json.loads(json.dumps(record))["points"])


def rewrite(directory: Path) -> int:
    """Rewrite `_FILES` small JSON files in place and read them back."""
    record = {"points": [[i, i * 48271 % _MODULUS] for i in range(24)]}
    total = 0
    for j in range(_FILES):
        path = directory / f"ref_{j:02d}.json"
        record["id"] = j
        path.write_text(json.dumps(record))
        total += len(json.loads(path.read_text())["points"])
    return total


def user_time() -> float:
    """User processor time of this process so far, in seconds."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class SpeedProbe:
    """Times the reference work on demand and scales command times by it."""

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.at: list[float] = []
        self.arithmetic: list[float] = []
        self.rewrite_cpu: list[float] = []
        self.rewrite_wait: list[float] = []

    def sample(self):
        started = time.perf_counter()
        arithmetic()
        middle, cpu = time.perf_counter(), time.process_time()
        rewrite(self.directory)
        wall, cpu = time.perf_counter() - middle, time.process_time() - cpu
        self.at.append(started)
        self.arithmetic.append(middle - started)
        self.rewrite_cpu.append(cpu)
        self.rewrite_wait.append(max(wall - cpu, 0.0))

    def scaled(self, at: float, wall: float, cpu: float, user: float) -> float:
        """A command's time at the reference speeds.

        It started at `at` and took `wall` seconds, `cpu` of them on the
        processor, `user` of those in user mode.
        """
        i = bisect.bisect(self.at, at)
        window = slice(max(0, i - WINDOW), i + WINDOW)
        arithmetic_s = statistics.median(self.arithmetic[window])
        rewrite_cpu_s = statistics.median(self.rewrite_cpu[window])
        wait_s = max(statistics.median(self.rewrite_wait[window]), REWRITE_WAIT_S / WAIT_FLOOR)
        user = min(user, cpu)
        return (
            user * ARITHMETIC_S / arithmetic_s
            + (cpu - user) * REWRITE_CPU_S / rewrite_cpu_s
            + max(wall - cpu, 0.0) * REWRITE_WAIT_S / wait_s
        )
