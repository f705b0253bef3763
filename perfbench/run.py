"""The repo benchmark: one workload, one seed, host time in one fresh process.

    python3 perfbench/run.py --workload paper|roofline|lossy --seed N \\
        --seconds S --trace 0|1 [--write-refs]

``--trace 0`` repeats untraced passes for about ``--seconds`` (at least
one) and reports the end-to-end metrics: ``wall_s`` (mean pass),
``setup_s`` (median of fresh-process set-ups) and ``peak_rss_mb``
(high-water mark after the first pass).  Both times are calibrated against
the box's current speed (:mod:`perfbench.calibrate`).  ``--trace 1`` runs
one untraced pass, then one pass under the profiler, and reports the
per-layer metrics of :mod:`perfbench.layers`.

Every pass is checked (:mod:`perfbench.checks`).  Output is a one-line
``{"record": ...}`` describing the run (commit, versions, nproc, seed,
digests, failed checks), then the result line.  Any failed check makes
the exit code 1; refusing to measure exits 2 without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "regression" / "goldens"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import calibrate, checks, layers, workloads  # noqa: E402  (needs ROOT)

SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60


class Refused(Exception):
    """The run would measure a different program than the committed one."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="offset from the golden seeds (0 = the goldens)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true",
                    help="record this pass's digests as the seed-0 references")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.write_refs and args.seed != 0:
        ap.error("--write-refs records the seed-0 references")
    return args


def refuse_other_program() -> None:
    """Each of these silently switches the code path being measured."""
    from repro import obs, perf
    from repro.sweep import current_execution

    if not perf.enabled():
        raise Refused(
            f"the bulk engine is off (REPRO_PERF={os.environ.get('REPRO_PERF')!r})"
        )
    cfg = current_execution()
    if cfg.jobs > 1 or cfg.cache is not None:
        raise Refused(f"ambient execution() has jobs={cfg.jobs}, cache={cfg.cache}")
    if obs.current() is not None:
        raise Refused("a repro.obs session is active; it forces the scalar path")


def probe_setup_s(workload: str) -> float:
    """Host seconds from starting a fresh interpreter to workload ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise Refused(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


@dataclass
class Passes:
    """The untraced passes of one run."""

    raw_s: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # calibration samples
    outcomes: list = field(default_factory=list)
    events: list = field(default_factory=list)  # per pass, when counted
    rss_mb: float = 0.0  # high-water mark after the first pass

    @property
    def wall_s(self) -> float:
        """Mean pass, calibrated by the mean kernel sample of the run.

        A core's speed flips between two levels within a second, so one
        0.1 s kernel sample reads either; a pass spans many flips.  Means
        of both are time averages over the same minute and compare alike.
        """
        return calibrate.scale(
            statistics.mean(self.raw_s), statistics.mean(self.kernel_s),
            calibrate.KERNEL_S,
        )


def measure(workload: str, seed: int, seconds: float, count_events: bool) -> Passes:
    """Untraced passes until the next one would overrun ``seconds``.

    The calibration kernel runs before the first pass, after each pass and
    at each of a pass's ticks; the time spent in it at ticks is taken out
    of the pass's time.
    """
    out = Passes()
    kernel = calibrate.Kernel()
    waited: list[float] = []

    def tick():
        t0 = time.perf_counter()
        out.kernel_s.append(kernel.seconds())
        waited.append(time.perf_counter() - t0)

    start = time.perf_counter()
    out.kernel_s.append(kernel.seconds())
    while True:
        refuse_other_program()
        waited.clear()
        gc.collect()
        with layers.count_events() if count_events else nullcontext([None]) as ev:
            t0 = time.perf_counter()
            out.outcomes.append(workloads.run_pass(workload, seed, tick))
            out.raw_s.append(time.perf_counter() - t0 - sum(waited))
        out.events.append(ev[0])
        if len(out.outcomes) == 1:
            out.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.kernel_s.append(kernel.seconds())
        if time.perf_counter() - start + statistics.median(out.raw_s) > seconds:
            return out


def commit() -> dict:
    """The checkout's commit and whether its tree differs from it.

    Git is not asked to look above the checkout, so a checkout that is not
    a repository reads as unknown rather than as some enclosing repository.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        return subprocess.run(
            ["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(args) -> tuple[dict, dict]:
    """Measure and check; returns (record, result)."""
    setups, imports = [], []
    for _ in range(0 if args.trace else SETUP_REPEATS):
        imports.append(calibrate.import_s())
        setups.append(probe_setup_s(args.workload))
    workloads.setup(args.workload)
    # A traced run needs one untraced pass: the baseline of the trace's
    # overhead and of its exact counts.
    passes = measure(
        args.workload, args.seed, 0 if args.trace else args.seconds,
        count_events=bool(args.trace),
    )
    first = passes.outcomes[0]
    if args.write_refs:
        checks.write_references(args.workload, first)
    results = checks.verify(
        args.workload, args.seed, first, checks.load_references(), GOLDENS
    )
    digest = checks.combined_digest(first)
    for k, other in enumerate(passes.outcomes[1:], start=2):
        results[f"pass {k} repeats pass 1's outputs"] = (
            checks.combined_digest(other) == digest
        )
    wall_s = passes.wall_s
    if args.trace:
        refuse_other_program()
        gc.collect()
        traced, trace = layers.traced(workloads.run_pass, args.workload, args.seed)
        results["traced pass repeats the untraced outputs"] = (
            checks.combined_digest(traced) == digest
        )
        results["traced pass repeats the untraced event count"] = (
            trace.events == passes.events[0]
        )
        metrics = layers.layer_metrics(
            trace, wall_s, statistics.median(passes.raw_s), SRC / "repro"
        )
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (calibrate.scale(
                statistics.median(setups), statistics.median(imports),
                calibrate.IMPORT_S,
            ), "s"),
            "peak_rss_mb": (passes.rss_mb, "MB"),
        }
    failed = sorted(name for name, ok in results.items() if not ok)
    record = {
        **environment(args),
        "passes_raw_s": passes.raw_s,
        "kernel_s": passes.kernel_s,
        "setups_raw_s": setups,
        "imports_s": imports,
        "digest": digest,
        "parts": checks.digests(first),
        "checks": len(results),
        "failed_checks": failed,
        "failed_frac": len(failed) / len(results),
    }
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    try:
        refuse_other_program()
        record, result = run(args)
    except Refused as exc:
        print(f"perfbench: refusing to measure: {exc}", file=sys.stderr)
        return 2
    for name in record["failed_checks"]:
        print(f"perfbench: FAILED {name}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
