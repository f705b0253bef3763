"""Per-layer split of one pass, taken from outside the program.

The traced pass runs under :mod:`cProfile` with ``repro.obs`` off, so the
simulator takes exactly the code path of the untimed pass (``repro.obs``
tracing would force the bulk engine scalar).  From the profile:

* ``<layer>.self_s`` -- self time of every function in ``repro.<layer>``.
  Built-ins are not profiled, so their time is their caller's self time
  (``sim`` owns its heap operations), and time in Python code outside repro
  (numpy, scipy) is charged to the repro functions that called it, split by
  the per-caller times the profile records (``roofline`` owns its
  least-squares fit).  Leaving built-ins out also keeps the profiler's
  cost to about 3x.
* Call counts of plain entry points, e.g. ``Fabric.transfer``.
* Inclusive times: ``workloads.matrix_gen_s`` and the sweep's own overhead.

The profiler counts every resumption of a generator as a call, so
generator entry points, and the entry points whose count is a number of
messages, are counted by wrappers installed on them for the traced pass
only (:func:`counting`).  Simulated events come from the public
``Simulator.event_count``, summed over ``Simulator.run`` calls
(:func:`count_events`), which is the only caller of ``Simulator.step``.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = (
    "sim", "net", "comm", "transport", "ir", "perf", "workloads", "faults",
    "sweep", "roofline", "collectives", "cluster", "machines",
)

# Plain (non-generator) entry points: metric -> [(file under repro/, function)].
CALL_COUNTS = {
    "sim.resumes": [("sim/process.py", "_step")],
    "net.transfers": [("net/fabric.py", "transfer")],
    "ir.programs": [("ir/lower.py", "run_program")],
    "faults.drops": [("faults/inject.py", "record_drop"),
                     ("faults/inject.py", "record_hard_drop")],
    "faults.retransmits": [("faults/inject.py", "record_retransmit")],
    "sweep.points": [("sweep/executor.py", "_execute_point")],
}


def _wrapped_entry_points():
    """(metric, owner, attribute, items) for the wrapper-counted entry points.

    ``items`` maps the call's bound arguments to the number it adds; a bulk
    CAS is two fabric messages (request and response), as on the scalar path.
    """
    import repro.ir.lower
    import repro.perf.atomics
    from repro.comm.window import WindowHandle
    from repro.perf.engine import FabricPath

    return [
        ("ir.ops", repro.ir.lower, "_exec", None),
        ("comm.atomics", WindowHandle, "_atomic", None),
        ("perf.bulk_msgs", FabricPath, "transfer_times",
         lambda args: len(args["issue"])),
        ("perf.bulk_msgs", repro.perf.atomics, "bulk_cas_stream",
         lambda args: 2 * len(args["ops"])),
    ]


@contextmanager
def count_events():
    """Sum ``Simulator.event_count`` over every ``Simulator.run`` in the block."""
    from repro.sim.engine import Simulator

    total = [0]
    original = Simulator.run

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        before = self.event_count
        try:
            return original(self, *args, **kwargs)
        finally:
            total[0] += self.event_count - before

    Simulator.run = run
    try:
        yield total
    finally:
        Simulator.run = original


@contextmanager
def counting():
    """Install the counting wrappers; yields the metric -> count dict."""
    counts: dict[str, int] = {}
    installed = []

    def wrap(metric, fn, items):
        counts.setdefault(metric, 0)
        sig = inspect.signature(fn) if items else None

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if sig is None:
                counts[metric] += 1
            else:
                counts[metric] += items(sig.bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)

        return counted

    try:
        for metric, owner, attr, items in _wrapped_entry_points():
            original = getattr(owner, attr)
            installed.append((owner, attr, original))
            setattr(owner, attr, wrap(metric, original, items))
        yield counts
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


@dataclass
class Trace:
    """What one traced pass measured."""

    wall_s: float = 0.0
    events: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)  # pstats' raw table


def traced(fn, *args):
    """Run ``fn(*args)`` under the profiler and the counters.

    Returns ``(result, Trace)``; the trace's ``wall_s`` is the host time of
    the call including profiler cost.
    """
    prof = cProfile.Profile(builtins=False)
    with count_events() as events, counting() as counts:
        t0 = time.perf_counter()
        prof.enable()
        try:
            result = fn(*args)
        finally:
            prof.disable()
        wall = time.perf_counter() - t0
    return result, Trace(
        wall_s=wall, events=events[0], counts=dict(counts),
        stats=pstats.Stats(prof).stats,
    )


def _layer_of(filename: str, repro_root: Path) -> str | None:
    """``repro.<package>`` of a source file; None outside repro.

    The benchmark's own frames (the counting wrappers) form a layer of
    their own, so their cost is charged to no repro package.
    """
    path = Path(filename).resolve()
    if path.parent == Path(__file__).resolve().parent:
        return "perfbench"
    try:
        rel = path.relative_to(repro_root)
    except ValueError:
        return None
    return rel.parts[0] if len(rel.parts) > 1 else "repro"


class Profile:
    """A pstats table indexed by repro source file and function name."""

    def __init__(self, stats: dict, repro_root: Path):
        self.stats = stats
        self.root = repro_root.resolve()
        self.layer = {f: _layer_of(f[0], self.root) for f in stats}
        self._by_name: dict[tuple[str, str], list] = {}
        for f in stats:
            if self.layer[f] not in (None, "perfbench"):
                rel = Path(f[0]).resolve().relative_to(self.root).as_posix()
                self._by_name.setdefault((rel, f[2]), []).append(f)

    def entries(self, rel_file: str, func: str) -> list:
        return self._by_name.get((rel_file, func), [])

    def calls(self, rel_file: str, func: str) -> int:
        return sum(self.stats[f][1] for f in self.entries(rel_file, func))

    def inclusive_s(self, rel_file: str, func: str) -> float:
        return sum(self.stats[f][3] for f in self.entries(rel_file, func))

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, code outside repro charged to its callers.

        An outside function's time is split over its callers by the
        inclusive time each call edge carries; recursion among outside
        functions is cut where it closes a cycle.
        """
        shares: dict = {}

        def share(f):
            """Which layers a function's self time belongs to, as fractions."""
            if self.layer.get(f) is not None:
                return {self.layer[f]: 1.0}
            if f in shares:
                return shares[f]
            shares[f] = {}  # in progress: a cycle back here adds nothing
            callers = self.stats[f][4] if f in self.stats else {}
            total = sum(edge[3] for edge in callers.values())
            out: dict[str, float] = {}
            for caller, edge in callers.items() if total > 0 else ():
                for name, frac in share(caller).items():
                    out[name] = out.get(name, 0.0) + frac * edge[3] / total
            shares[f] = out
            return out

        totals: dict[str, float] = {}
        for f, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            for name, frac in share(f).items():
                totals[name] = totals.get(name, 0.0) + frac * tt
        return totals

    def sweep_overhead_s(self) -> float:
        """``run_sweep``'s inclusive time minus the time inside point runners."""
        points = set(self.entries("sweep/executor.py", "_execute_point"))
        runner_s = 0.0
        for _f, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            runner_s += sum(v[3] for caller, v in callers.items() if caller in points)
        return self.inclusive_s("sweep/executor.py", "run_sweep") - runner_s


def layer_metrics(
    trace: Trace, wall_s: float, raw_wall_s: float, repro_root: Path
) -> dict:
    """Every per-layer metric, from one traced pass and the untraced pass's
    calibrated (``wall_s``) and raw host seconds."""
    prof = Profile(trace.stats, repro_root)
    selfs = prof.self_times()
    m: dict[str, tuple[float, str]] = {
        f"{name}.self_s": (selfs.get(name, 0.0), "s") for name in LAYERS
    }
    counts = {
        metric: sum(prof.calls(f, fn) for f, fn in entries)
        for metric, entries in CALL_COUNTS.items()
    }
    counts.update(trace.counts)
    counts["sim.events"] = trace.events
    for metric, n in counts.items():
        m[metric] = (n, "count")
    transfers = counts["net.transfers"]
    bulk = counts["perf.bulk_msgs"]
    m["sim.events_per_s"] = (counts["sim.events"] / wall_s, "1/s")
    m["net.transfers_per_s"] = (transfers / wall_s, "1/s")
    m["perf.bulk_share"] = (bulk / (bulk + transfers) if bulk + transfers else 0.0,
                            "ratio")
    m["faults.retransmit_ratio"] = (
        counts["faults.retransmits"] / transfers if transfers else 0.0, "ratio"
    )
    m["sweep.overhead_s"] = (prof.sweep_overhead_s(), "s")
    m["workloads.matrix_gen_s"] = (
        prof.inclusive_s("workloads/sptrsv/matrix.py", "generate_matrix"), "s"
    )
    m["trace_overhead"] = (trace.wall_s / raw_wall_s, "ratio")
    return m
