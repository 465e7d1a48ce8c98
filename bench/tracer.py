"""Span tracer that wraps lrshare's public functions from outside.

Nothing in lrshare is edited: the tracer replaces module attributes (and
`PrimeField` methods on the class) with wrappers while it is installed and
puts the originals back afterwards.  Names bound by `from ... import` are
patched where they are bound, so `groups.split` and
`groups.reconstruct_polynomial` are wrapped as well as their `shamir`
originals.  `protocol.lookup_holder` is looked up as a module global by
`request_repair`, so patching the module attribute catches it.

A span is (name, start, end, parent, unit): `unit` names the setup
repetition or loop iteration that caused it.  Spans stay in memory and are
written out once, at the end of the run.  Work the tracer itself does
around a call (stat-ing state files, counting) is recorded as a `bench.*`
child span so that it is subtracted from every real span's self time.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
from pathlib import Path

BENCH_PREFIX = "bench."
LAYERS = ("field", "shamir", "groups", "protocol", "threat", "cli")

# Spanned functions and the extra counts recorded on their spans.
SPANNED = {
    "field.poly_interpolate": ("points",),
    "field.poly_eval": (),
    "field.poly_random": (),
    "shamir.split": (),
    "shamir.recover": ("surplus_shares",),
    "shamir.reconstruct_polynomial": (),
    "groups.build_repair_function": (),
    "groups.make_weak_redundancy": (),
    "groups.setup_sss": (),
    "groups.repair_share": (),
    "groups.restore_subshare": (),
    "protocol.system_setup": (),
    "protocol.save_state": ("files_written", "bytes_written"),
    "protocol.load_state": ("files",),
    "protocol.lookup_holder": ("nodes_scanned",),
    "protocol.request_repair": (),
    "protocol.mark_failed": (),
    "protocol.recover_secret": (),
    "threat.min_compromise_search": (),
    "threat.min_compromise_over_placements": (),
    "threat.admissible_placements": ("placements",),
    "threat.mc_group_compromise": ("trials",),
    "cli.setup": (),
    "cli.fail": (),
    "cli.repair": (),
    "cli.recover": (),
    "cli.attack": (),
}
OVERHEAD_OPS = (("setup", "s"), ("fail", "ms"), ("repair", "ms"), ("recover", "ms"),
                ("enum", "ms"), ("sweep", "ms"), ("mc", "ms"))  # fmt: skip


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    metrics = []
    for name, extras in SPANNED.items():
        metrics += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        metrics += [(f"{name}.{x}", "bytes" if x.startswith("bytes") else "count")
                    for x in extras]  # fmt: skip
    metrics += [
        ("field.inv.calls", "count"),
        ("field.poly_interpolate.d64_ms", "ms"),
        ("field.poly_interpolate.d128_ms", "ms"),
        ("field.poly_interpolate.size_exponent", "log2"),
    ]
    metrics += [(f"layer.{layer}.loop_share", "fraction") for layer in LAYERS]
    metrics += [(f"overhead.{op}_{unit}", unit) for op, unit in OVERHEAD_OPS]
    return metrics


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "extra")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.extra = None

    def add(self, key, amount):
        if self.extra is None:
            self.extra = {}
        self.extra[key] = self.extra.get(key, 0) + amount


def _state_files(directory) -> list[Path]:
    return list(Path(directory).rglob("*.json"))


def _mark_unwritten(args, kwargs):
    """Set every state file's mtime to 0, so any file save_state writes shows."""
    directory = kwargs.get("directory", args[1] if len(args) > 1 else None)
    paths = _state_files(directory)
    for path in paths:
        os.utime(path, ns=(0, 0))
    return directory


def _count_written(directory, args, kwargs, result):
    written, size = 0, 0
    for path in _state_files(directory):
        st = os.stat(path)
        if st.st_mtime_ns != 0:
            written += 1
            size += st.st_size
    return {"files_written": written, "bytes_written": size}


def _count_loaded(args, kwargs):
    directory = kwargs.get("directory", args[0] if args else None)
    return len(_state_files(directory))


def _counted(lrshare):
    """(owner, attribute, counter) for functions only counted, never spanned.

    `inv` runs once per interpolation point; a span per call would cost
    more than the call, so its time stays in the caller's self time.
    """
    return [(lrshare.field.PrimeField, "inv", "field.inv.calls")]


def _hooks(lrshare):
    """(owner, attribute, span name, prepare, measure) for every wrapped function.

    prepare(args, kwargs) runs before the call and returns a token;
    measure(token, args, kwargs, result) returns extra counts for the span.
    Both run inside bench.* spans.  `cli.*` spans are opened by the
    benchmark around each `cli.main` call, so argument parsing and output
    formatting count as cli self time.
    """
    field, groups, protocol, shamir, threat = (
        lrshare.field,
        lrshare.groups,
        lrshare.protocol,
        lrshare.shamir,
        lrshare.threat,
    )
    F = field.PrimeField
    points = lambda tok, a, k, r: {"points": len(a[1])}  # noqa: E731
    surplus = lambda tok, a, k, r: {"surplus_shares": len(a[1]) - a[2]}  # noqa: E731
    scanned = lambda tok, a, k, r: {"nodes_scanned": len(a[0].nodes)}  # noqa: E731
    placements = lambda tok, a, k, r: {"placements": len(r)}  # noqa: E731
    trials = lambda tok, a, k, r: {"trials": a[0].trials}  # noqa: E731
    loaded = lambda tok, a, k, r: {"files": tok}  # noqa: E731
    return [
        (F, "poly_interpolate", "field.poly_interpolate", None, points),
        (F, "poly_eval", "field.poly_eval", None, None),
        (F, "poly_random", "field.poly_random", None, None),
        (shamir, "split", "shamir.split", None, None),
        (groups, "split", "shamir.split", None, None),
        (shamir, "recover", "shamir.recover", None, surplus),
        (shamir, "reconstruct_polynomial", "shamir.reconstruct_polynomial", None, None),
        (groups, "reconstruct_polynomial", "shamir.reconstruct_polynomial", None, None),
        (groups, "build_repair_function", "groups.build_repair_function", None, None),
        (groups, "make_weak_redundancy", "groups.make_weak_redundancy", None, None),
        (groups, "setup_sss", "groups.setup_sss", None, None),
        (groups, "repair_share", "groups.repair_share", None, None),
        (groups, "restore_subshare", "groups.restore_subshare", None, None),
        (protocol, "system_setup", "protocol.system_setup", None, None),
        (protocol, "save_state", "protocol.save_state", _mark_unwritten, _count_written),
        (protocol, "load_state", "protocol.load_state", _count_loaded, loaded),
        (protocol, "lookup_holder", "protocol.lookup_holder", None, scanned),
        (protocol, "request_repair", "protocol.request_repair", None, None),
        (protocol, "mark_failed", "protocol.mark_failed", None, None),
        (protocol, "recover_secret", "protocol.recover_secret", None, None),
        (threat, "min_compromise_search", "threat.min_compromise_search", None, None),
        (
            threat,
            "min_compromise_over_placements",
            "threat.min_compromise_over_placements",
            None,
            None,
        ),
        (threat, "admissible_placements", "threat.admissible_placements", None, placements),
        (threat, "mc_group_compromise", "threat.mc_group_compromise", None, trials),
    ]


class Tracer:
    """Records spans while installed and while a root span is open."""

    def __init__(self, lrshare):
        self.spans: list[Span] = []
        self._lrshare = lrshare
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.unit: str | None = None

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.unit))
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._saved:
            return
        for owner, attr, name, prepare, measure in _hooks(self._lrshare):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, prepare, measure))
        for owner, attr, counter in _counted(self._lrshare):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count(original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _count(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack:
                tracer.spans[tracer._stack[-1]].add(counter, 1)
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name, prepare, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            token = None
            if prepare is not None:
                aside = tracer.open("bench.prepare")
                token = prepare(args, kwargs)
                tracer.close(aside)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if measure is not None:
                aside = tracer.open("bench.measure")
                for key, amount in measure(token, args, kwargs, result).items():
                    tracer.spans[span].add(f"{name}.{key}", amount)
                tracer.close(aside)
            return result

        return wrapper

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "unit": span.unit,
                }
                if span.extra:
                    record["extra"] = span.extra
                out.write(json.dumps(record) + "\n")


# -- analysis ------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]


def is_setup(unit: str | None) -> bool:
    return unit is not None and unit.startswith("setup")


def layer_metrics(spans: list[Span], setups: int, iterations: int, names) -> dict:
    """Per-layer figures for one pass: one setup phase plus one loop iteration.

    Sums over the traced setup repetitions are divided by `setups`, sums
    over the traced loop iterations by `iterations`, and the two added, so
    call counts do not grow with run length.  Only the names in `names`
    are returned; a function never called reads 0.
    """
    selfs = self_times(spans)
    phase_totals: tuple[dict[str, float], dict[str, float]] = ({}, {})
    loop_layer = dict.fromkeys(LAYERS, 0.0)
    durations: dict[int, list[float]] = {64: [], 128: []}
    for span, own in zip(spans, selfs):
        if span.name.startswith(BENCH_PREFIX):
            continue
        phase = phase_totals[0 if is_setup(span.unit) else 1]
        for key, amount in (
            (f"{span.name}.calls", 1),
            (f"{span.name}.self_s", own),
            *(span.extra or {}).items(),
        ):
            phase[key] = phase.get(key, 0) + amount
        if not is_setup(span.unit):
            loop_layer[span.name.split(".", 1)[0]] += own
        if span.name == "field.poly_interpolate":
            points = (span.extra or {}).get("field.poly_interpolate.points")
            if points in durations:
                durations[points].append(span.end - span.start)
    setup_totals, loop_totals = phase_totals
    totals = {
        key: setup_totals.get(key, 0) / setups + loop_totals.get(key, 0) / iterations
        for key in setup_totals.keys() | loop_totals.keys()
    }
    loop_total = sum(loop_layer.values())
    for layer, own in loop_layer.items():
        totals[f"layer.{layer}.loop_share"] = own / loop_total if loop_total else 0.0
    d64 = statistics.median(durations[64]) * 1e3 if durations[64] else 0.0
    d128 = statistics.median(durations[128]) * 1e3 if durations[128] else 0.0
    totals["field.poly_interpolate.d64_ms"] = d64
    totals["field.poly_interpolate.d128_ms"] = d128
    totals["field.poly_interpolate.size_exponent"] = (
        math.log2(d128 / d64) if d64 and d128 else 0.0
    )
    return {name: totals.get(name, 0.0) for name in names}
