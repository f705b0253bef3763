"""Tests for the benchmark's count extraction and output checks, on tiny floods.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, layers
from perfbench import run as bench
from perfbench.workloads import Outcome, flood_point
from repro import faults, obs, perf
from repro.ir.lower import run_program
from repro.machines.registry import get_machine
from repro.workloads.flood import build_flood_program

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _flood(runtime: str, machine: str = "perlmutter-cpu", msgs: int = 16):
    return run_program(
        get_machine(machine), build_flood_program(runtime, 64, msgs, iters=2)
    )


def _metrics(runtime: str, machine: str = "perlmutter-cpu"):
    run, trace = layers.traced(_flood, runtime, machine)
    values = {k: v for k, (v, _unit) in layers.layer_metrics(trace, 1.0, 1.0, REPRO_ROOT).items()}
    return run, trace, values


def test_counts_match_the_programs_own_counters():
    run, trace, m = _metrics("two_sided")
    assert m["sim.events"] == trace.events == run.job.sim.event_count > 0
    with obs.observe(obs.Obs()) as session:
        _flood("two_sided")
    snap = session.snapshot()
    assert m["net.transfers"] == snap["net.fabric.messages"] > 0
    assert m["ir.programs"] == snap["ir.programs.lowered"] == 1
    assert m["ir.ops"] == snap["ir.ops.lowered"] > 0
    assert m["perf.bulk_msgs"] == 0 and m["perf.bulk_share"] == 0.0
    assert m["sim.resumes"] > 0


def test_bulk_messages_are_counted_per_message():
    _run, _trace, m = _metrics("one_sided")
    # 16 puts per sync, two syncs, all costed by FabricPath.transfer_times.
    assert m["perf.bulk_msgs"] == 32
    assert m["perf.bulk_share"] == 32 / (32 + m["net.transfers"])


def test_fault_counts_match_the_fault_scope():
    plan = faults.FaultPlan.uniform(loss=0.2, seed=3)
    with faults.inject(plan) as scope:
        _run, _trace, m = _metrics("one_sided")
    stats = scope.stats()
    assert m["faults.drops"] == stats["drops"] + stats["hard_drops"] > 0
    assert m["faults.retransmits"] == stats["retransmits"] > 0
    assert m["perf.bulk_msgs"] == 0  # a fault injector forces the scalar path


def test_wrappers_are_removed_after_the_traced_pass():
    from repro.perf.engine import FabricPath
    from repro.sim.engine import Simulator

    before = (FabricPath.transfer_times, Simulator.run)
    layers.traced(_flood, "one_sided")
    assert (FabricPath.transfer_times, Simulator.run) == before


def test_traced_flood_repeats_the_untraced_one():
    with layers.count_events() as events:
        plain = _flood("shmem", "perlmutter-gpu")
    traced, trace = layers.traced(_flood, "shmem", "perlmutter-gpu")
    assert trace.events == events[0] == plain.job.sim.event_count
    assert traced.result.results == plain.result.results


def test_outside_time_is_charged_to_repro_callers():
    sim = (str(REPRO_ROOT / "sim" / "engine.py"), 1, "step")
    net = (str(REPRO_ROOT / "net" / "fabric.py"), 1, "transfer")
    outside = ("/site-packages/numpy/core/fromnumeric.py", 10, "sum")
    stats = {
        sim: (1, 1, 1.0, 4.0, {}),
        net: (1, 1, 2.0, 3.0, {}),
        # 3 s outside repro: 1 s of it called from sim, 2 s from net.
        outside: (3, 3, 3.0, 3.0, {sim: (1, 1, 1.0, 1.0), net: (2, 2, 2.0, 2.0)}),
    }
    selfs = layers.Profile(stats, REPRO_ROOT).self_times()
    assert selfs == pytest.approx({"sim": 2.0, "net": 4.0})


def _outcome(msgs: int = 16) -> Outcome:
    """A one-part outcome from a tiny flood, as a workload pass records it."""
    value = flood_point(
        {"machine": "perlmutter-cpu", "runtime": "one_sided", "nbytes": 64,
         "msgs": msgs, "iters": 2}, 0,
    )
    out = Outcome()
    out.parts["fig09"] = json.dumps(value)
    out.rendered["fig09"] = f"flood of {msgs}"
    out.checks["fig09: completed"] = True
    return out


def test_digest_mismatch_fails_the_check(tmp_path):
    refs = {"paper": checks.digests(_outcome())}
    (tmp_path / "fig09.txt").write_text("flood of 16\n\n")
    ok = checks.verify("paper", 0, _outcome(), refs, tmp_path)
    assert all(ok.values()) and len(ok) == 4
    bad = checks.verify("paper", 0, _outcome(msgs=17), refs, tmp_path)
    assert bad["fig09: output matches reference digest"] is False
    assert bad["fig09: output byte-identical to golden"] is False


@pytest.mark.parametrize("seed", [0, 3])
def test_missing_part_fails_the_check(tmp_path, seed):
    """Work dropped from a pass is a failed check, not a faster pass."""
    refs = {"paper": {**checks.digests(_outcome()), "fig08": "0" * 64}}
    (tmp_path / "fig09.txt").write_text("flood of 16\n\n")
    res = checks.verify("paper", seed, _outcome(), refs, tmp_path)
    assert res["fig08: output produced"] is False
    assert [name for name, ok in res.items() if not ok] == ["fig08: output produced"]


def test_missing_goldens_fail_the_check(tmp_path):
    refs = {"paper": checks.digests(_outcome())}
    res = checks.verify("paper", 0, _outcome(), refs, tmp_path / "gone")
    assert res["goldens directory present"] is False


def test_seeded_parts_skip_references_at_other_seeds(tmp_path):
    (tmp_path / "fig09.txt").write_text("another seed\n\n")
    res = checks.verify("paper", 3, _outcome(msgs=17), {"paper": {}}, tmp_path)
    assert res == {"fig09: completed": True, "goldens directory present": True}


def test_refuses_to_measure_a_different_program():
    from repro.sweep import execution

    with execution(jobs=2), pytest.raises(bench.Refused, match="jobs=2"):
        bench.refuse_other_program()
    with obs.observe(obs.Obs()), pytest.raises(bench.Refused, match="repro.obs"):
        bench.refuse_other_program()
    with perf.vectorized(False), pytest.raises(bench.Refused, match="bulk engine"):
        bench.refuse_other_program()
    bench.refuse_other_program()


@pytest.mark.parametrize("env", [{"REPRO_PERF": "0"}, {}])
def test_command_exits_without_a_result_when_it_cannot_measure(tmp_path, env):
    """REPRO_PERF=0 is refused; a directory without sources cannot run."""
    here = Path(__file__).resolve().parent
    if env:
        script, cwd = here / "run.py", here.parent
    else:
        shutil.copytree(here, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        script, cwd = tmp_path / "perfbench" / "run.py", tmp_path
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "lossy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, **env},
    )
    assert proc.returncode == 2 and proc.stdout == ""
