"""Vectorized-vs-scalar parity on workload goldens, all five backends.

The bulk-transfer engine (:mod:`repro.perf`) must be *bit-identical* to
the scalar event chain — not approximately equal.  Every comparison here
is ``==`` on full result objects (times, counters, bandwidths, stored
values), with the engine force-enabled vs force-disabled via
:func:`repro.perf.vectorized`.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro import obs, perf
from repro.comm.job import Job
from repro.experiments.ablations import _with_hw_put_signal
from repro.ir.lower import lower_rank, run_program
from repro.machines import get_machine
from repro.machines.base import MachineModel
from repro.net.congestion import CongestionConfig
from repro.net.loggp import LinkParams
from repro.net.topology import TopologySpec
from repro.perf.engine import FabricPath
from repro.workloads.flood import build_flood_program, run_cas_flood, run_flood
from repro.workloads.hashtable import HashTableConfig, run_hashtable
from repro.workloads.stencil import ProcessGrid, StencilConfig, run_stencil

# (backend, machine factory) — every registered transport backend.
BACKENDS = [
    ("two_sided", lambda: get_machine("perlmutter-cpu")),
    ("one_sided", lambda: get_machine("perlmutter-cpu")),
    ("shmem", lambda: get_machine("perlmutter-gpu")),
    ("one_sided_hw", lambda: _with_hw_put_signal(get_machine("perlmutter-cpu"))),
    ("stream_triggered", lambda: get_machine("perlmutter-gpu")),
]
IDS = [b for b, _ in BACKENDS]


def _both(run):
    """Run once scalar, once vectorized."""
    with perf.vectorized(False):
        scalar = run()
    with perf.vectorized(True):
        vector = run()
    return scalar, vector


@pytest.mark.parametrize("backend,machine_factory", BACKENDS, ids=IDS)
class TestBulkParity:
    def test_flood(self, backend, machine_factory):
        for nbytes, n in [(64, 1), (4096, 64), (64, 512)]:
            scalar, vector = _both(
                lambda: run_flood(machine_factory(), backend, nbytes, n, iters=2)
            )
            assert scalar == vector

    def test_cas_flood(self, backend, machine_factory):
        for n_ops in (1, 200):
            scalar, vector = _both(
                lambda: run_cas_flood(machine_factory(), backend, n_ops=n_ops)
            )
            assert scalar == vector

    def test_hashtable(self, backend, machine_factory):
        cfg = HashTableConfig(total_inserts=600, seed=2)
        scalar, vector = _both(
            lambda: run_hashtable(machine_factory(), backend, cfg, 4)
        )
        assert scalar.time == vector.time
        assert scalar.counters == vector.counters
        for a, b in zip(scalar.per_rank, vector.per_rank):
            assert a == b
        assert np.array_equal(
            np.sort(scalar.extras["values"]), np.sort(vector.extras["values"])
        )

    def test_stencil(self, backend, machine_factory):
        cfg = StencilConfig(nx=24, ny=24, iters=4, mode="execute")
        scalar, vector = _both(
            lambda: run_stencil(
                machine_factory(), backend, cfg, 4, grid=ProcessGrid(2, 2)
            )
        )
        assert scalar.time == vector.time
        assert scalar.counters == vector.counters
        assert np.array_equal(scalar.extras["field"], vector.extras["field"])


# ---------------------------------------------------------------------------
# two-sided batches: eager and rendezvous replay
# ---------------------------------------------------------------------------


def _zero_issue_costs(machine):
    """``isend = irecv = 0``: every send issues and every receive posts at
    the batch entry time, so exact time ties decide the event order."""
    costs = machine.runtimes["two_sided"]
    machine.runtimes["two_sided"] = dataclasses.replace(costs, isend=0.0, irecv=0.0)
    return machine


def _two_sided_run(machine_factory, nbytes, n, iters, nranks, placement):
    """Everything the batch writes: the flood result, both job views
    (per-rank counters, matching, fabric totals and links) and the
    metric snapshot of an observed run."""
    flood = run_flood(
        machine_factory(), "two_sided", nbytes, n,
        iters=iters, nranks=nranks, placement=placement,
    )
    with obs.observe() as session:
        run = run_program(
            machine_factory(),
            build_flood_program("two_sided", nbytes, n, iters=iters, nranks=nranks),
            placement=placement,
        )
    job = run.job
    return (
        flood,
        run.result.results,
        run.result.per_rank,
        [ctx.engine.matched_count for ctx in job.contexts],
        [ctx._copy_next_free for ctx in job.contexts],
        job.fabric.total_messages,
        job.fabric.total_bytes,
        job.fabric.link_stats(),
        session.metrics.snapshot(),
    )


TWO_SIDED_MACHINES = [
    ("perlmutter-cpu", lambda: get_machine("perlmutter-cpu"), "spread"),
    ("perlmutter-gpu", lambda: get_machine("perlmutter-gpu"), "spread"),
    # copy_per_byte > 0: the receiver's copy engine serialises completions.
    ("summit-cpu", lambda: get_machine("summit-cpu"), "spread"),
    # Multi-hop route plus an injection port.
    (
        "dragonfly-block",
        lambda: get_machine("perlmutter-cpu-x8@dragonfly(4,2,2)"),
        "block",
    ),
    (
        "zero-issue",
        lambda: _zero_issue_costs(get_machine("perlmutter-cpu")),
        "spread",
    ),
    (
        "zero-issue-summit",
        lambda: _zero_issue_costs(get_machine("summit-cpu")),
        "spread",
    ),
]

# 16384 is the eager threshold itself; 16385 is the smallest rendezvous size.
TWO_SIDED_SIZES = [8, 16384, 16385, 1 << 20]


@pytest.mark.parametrize(
    "machine_factory,placement",
    [(f, p) for _, f, p in TWO_SIDED_MACHINES],
    ids=[name for name, _, _ in TWO_SIDED_MACHINES],
)
@pytest.mark.parametrize("nbytes", TWO_SIDED_SIZES)
def test_two_sided_batch_parity(machine_factory, placement, nbytes):
    for n, iters, nranks in [(1, 1, 2), (7, 3, 2), (512, 1, 2), (7, 1, 3), (512, 3, 3)]:
        scalar, vector = _both(
            lambda: _two_sided_run(machine_factory, nbytes, n, iters, nranks, placement)
        )
        assert scalar == vector, (n, iters, nranks)


@pytest.mark.parametrize("nbytes", [8, 1 << 20])
def test_two_sided_batch_takes_the_bulk_path(nbytes):
    """An 8192-message batch costs a handful of events in bulk and the
    full per-message event chain in scalar, so a silent fallback cannot
    pass as a speed-up."""
    n = 8192
    program = build_flood_program("two_sided", nbytes, n, iters=1)
    with perf.vectorized(False):
        scalar = run_program(get_machine("perlmutter-cpu"), program).result
    with perf.vectorized(True):
        bulk = run_program(get_machine("perlmutter-cpu"), program).result
    assert bulk.events_processed < 100
    assert scalar.events_processed > 4 * n
    assert bulk.results == scalar.results


def test_congestion_control_keeps_the_scalar_path():
    """ECN marks and backoffs are per-message fabric decisions the bulk
    engine does not replay: a congestion-controlled job stays scalar."""
    machine = "perlmutter-cpu-x8@dragonfly(4,2,2)"

    def run():
        job = Job(
            get_machine(machine), 2, "one_sided", placement="block",
            congestion=CongestionConfig(ecn_threshold=0.0),
        )
        program = build_flood_program("one_sided", 65536, 256, iters=2)
        result = job.run(lower_rank, job.channel(program.spec), program, {})
        return (
            result.results,
            result.per_rank,
            job.fabric.cc.marks,
            job.fabric.cc.backoffs,
            job.fabric.link_stats(),
        )

    scalar, vector = _both(run)
    assert scalar == vector
    assert scalar[2] > 0 and scalar[3] > 0


@pytest.mark.parametrize(
    "kwargs",
    [{"congestion": CongestionConfig()}, {"routing": "minimal"}],
    ids=["congestion", "routing"],
)
def test_bulk_vetoes_congestion_and_routing(kwargs):
    job = Job(get_machine("perlmutter-cpu"), 2, "one_sided", **kwargs)
    assert not perf.bulk_enabled(job)
    with pytest.raises(RuntimeError, match="bulk_enabled"):
        FabricPath(job.fabric, job.endpoints[0], job.endpoints[1])


def _dyadic_machine(latency_q, isend_q, irecv_q, endpoints):
    """Two endpoints, one link, every cost a small multiple of 2**-22 s.

    Dyadic costs add without rounding, so deliveries land *exactly* on
    receive-post times and the bulk replay must break those ties the way
    the scalar heap does.  ``eager_threshold=64`` makes 128 B a
    rendezvous size.
    """
    q = 2.0 ** -22
    link = LinkParams(latency=latency_q * q, bandwidth=2.0 ** 28)
    topo = TopologySpec("dyadic", loopback=link)
    topo.add_link("a", "b", link)
    costs = dataclasses.replace(
        get_machine("perlmutter-cpu").runtimes["two_sided"],
        isend=isend_q * q, irecv=irecv_q * q, recv_match=q, sync_enter=q,
        wait_per_req=0.0, copy_per_byte=0.0, eager_threshold=64.0,
    )
    return MachineModel(
        name="dyadic", description="exact-tie costs", topology=topo,
        compute_endpoints=list(endpoints), runtimes={"two_sided": costs},
        cores_per_endpoint=2, mem_bandwidth_per_endpoint=1e11,
    )


@pytest.mark.parametrize("endpoints", ["ab", "a"], ids=["link", "loopback"])
def test_two_sided_batch_parity_under_exact_ties(endpoints):
    for lat, isend, irecv, nbytes, n in itertools.product(
        [0, 1, 2], [0, 1, 2], [0, 1, 2], [64, 128], [1, 2, 3]
    ):
        def run():
            machine = _dyadic_machine(lat, isend, irecv, endpoints)
            program = build_flood_program("two_sided", nbytes, n, iters=2)
            res = run_program(machine, program)
            return res.result.results, res.result.per_rank, res.job.fabric.link_stats()

        scalar, vector = _both(run)
        assert scalar == vector, (lat, isend, irecv, nbytes, n)
