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

from repro import faults, obs, perf
from repro.cluster import Cluster
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
from repro.workloads.hashtable.runner import build_hashtable_program, generate_keys
from repro.workloads.hashtable.table import TableGeometry
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


# ---------------------------------------------------------------------------
# atomic hashtable insert epoch: private-heap replay
# ---------------------------------------------------------------------------

DRAGONFLY = "perlmutter-cpu-x8@dragonfly(4,2,2)"


def _hashtable_program(backend, cfg, nranks):
    geom = TableGeometry.for_inserts(
        nranks, cfg.total_inserts, load_factor=cfg.load_factor
    )
    keys = generate_keys(cfg, nranks)
    return build_hashtable_program(backend, geom, keys, None, cfg.sync_window, nranks)


def _hashtable_run(machine_factory, backend, nranks, inserts, placement):
    """Everything an insert epoch writes: the workload result, then one
    observed run's rank results and counters, the four spaces, the atomic
    units, the copy engines, fabric totals, links and metric snapshot."""
    cfg = HashTableConfig(total_inserts=inserts, seed=3)
    res = run_hashtable(machine_factory(), backend, cfg, nranks, placement=placement)
    with obs.observe() as session:
        run = run_program(
            machine_factory(), _hashtable_program(backend, cfg, nranks),
            placement=placement,
        )
    job, chan = run.job, run.chan
    return (
        res.time,
        res.per_rank,
        res.extras["collisions"],
        res.extras["values"],
        [a.tolist() for a in res.extras["chains"]],
        [a.tolist() for a in res.extras["heaps"]],
        run.result.results,
        run.result.per_rank,
        {s: [chan.array(s, r).tolist() for r in range(nranks)] for s in chan.wins},
        {s: win._atomic_next_free for s, win in chan.wins.items()},
        [ctx._copy_next_free for ctx in job.contexts],
        job.fabric.total_messages,
        job.fabric.total_bytes,
        job.fabric.link_stats(),
        session.metrics.snapshot(),
    )


# (backend, machine, placement, ranks); P=128 x 8000 inserts is fig09's case.
HASHTABLE_CASES = [
    *[("one_sided", "perlmutter-cpu", "block", p) for p in (1, 2, 3, 8, 128)],
    # copy_per_byte > 0: published elements wait on the target's copy engine.
    *[("one_sided", "summit-cpu", "block", p) for p in (2, 3, 8)],
    # Multi-hop routes plus injection ports.
    *[("one_sided", DRAGONFLY, "block", p) for p in (1, 2, 3, 8, 128)],
    *[("shmem", "perlmutter-gpu", "spread", p) for p in (1, 2, 3)],
    # P=6 spans both sockets: requests cross the X-Bus.
    *[("shmem", "summit-gpu", "spread", p) for p in (1, 2, 3, 6)],
    *[("stream_triggered", "perlmutter-gpu", "spread", p) for p in (1, 2, 3)],
    ("stream_triggered", "summit-gpu", "spread", 6),
]


@pytest.mark.parametrize(
    "backend,machine,placement,nranks",
    HASHTABLE_CASES,
    ids=[f"{b}-{m}-P{p}" for b, m, _pl, p in HASHTABLE_CASES],
)
def test_hashtable_epoch_parity(backend, machine, placement, nranks):
    if nranks == 128:
        inserts = 8000 if machine == "perlmutter-cpu" else 2000
    else:
        inserts = 150 * nranks + 7
    scalar, vector = _both(
        lambda: _hashtable_run(
            lambda: get_machine(machine), backend, nranks, inserts, placement
        )
    )
    assert scalar == vector


def _dyadic_atomic_machine(lat, fetch, apply, put, flush, wake, copy, endpoints):
    """Full mesh (or one loopback endpoint), every cost a small multiple of
    2**-22 s: requests from symmetric ranks land on one target at the same
    float, so the replay must break the tie the way the scalar heap does."""
    q = 2.0 ** -22
    link = LinkParams(latency=lat * q, bandwidth=2.0 ** 28)
    topo = TopologySpec("dyadic", loopback=link)
    for a, b in itertools.combinations("abcd", 2):
        topo.add_link(a, b, link)
    costs = dataclasses.replace(
        get_machine("perlmutter-cpu").runtimes["one_sided"],
        fetch_op=fetch * q, atomic_apply=apply * q, put=put * q,
        flush=flush * q, sync_enter=wake * q, wait_per_req=0.0,
        copy_per_byte=copy * q / 16,
    )
    return MachineModel(
        name="dyadic", description="exact-tie costs", topology=topo,
        compute_endpoints=list(endpoints), runtimes={"one_sided": costs},
        cores_per_endpoint=4, mem_bandwidth_per_endpoint=1e11,
    )


@pytest.mark.parametrize("endpoints", ["abcd", "a"], ids=["mesh", "loopback"])
def test_hashtable_epoch_parity_under_exact_ties(endpoints):
    for lat, fetch, apply, put, flush, wake, copy in itertools.product(
        [1, 2], [0, 1], [1, 2], [0, 1], [0, 1], [0, 1], [0, 1]
    ):
        def run():
            machine = _dyadic_atomic_machine(
                lat, fetch, apply, put, flush, wake, copy, endpoints
            )
            cfg = HashTableConfig(total_inserts=40, load_factor=1.0, seed=1)
            res = run_program(
                machine, _hashtable_program("one_sided", cfg, 4), placement="spread"
            )
            return (
                res.result.results,
                res.result.per_rank,
                {s: [res.chan.array(s, r).tolist() for r in range(4)]
                 for s in res.chan.wins},
                res.job.fabric.link_stats(),
            )

        scalar, vector = _both(run)
        assert scalar == vector, (lat, fetch, apply, put, flush, wake, copy)


def test_hashtable_takes_the_bulk_path():
    """fig09's P=128 case costs a few events per rank in bulk and the
    full per-insert event chain in scalar, so a silent fallback cannot
    pass as a speed-up."""
    nranks, inserts = 128, 8000
    program = _hashtable_program("one_sided", HashTableConfig(total_inserts=inserts), nranks)

    def run():
        return run_program(get_machine("perlmutter-cpu"), program, placement="block").result

    scalar, bulk = _both(run)
    assert bulk.events_processed < 20 * nranks
    assert scalar.events_processed > 5 * inserts
    assert bulk.results == scalar.results


def _cluster_hashtables(inserts):
    """Two hashtable jobs co-scheduled on one simulator and fabric."""
    cluster = Cluster(DRAGONFLY)
    for name in ("a", "b"):
        program = _hashtable_program(
            "one_sided", HashTableConfig(total_inserts=inserts, seed=len(name)), 4
        )

        def make(job, program=program):
            chan = job.channel(program.spec)
            return lambda ctx: lower_rank(ctx, chan, program, {})

        cluster.submit(name, make, nranks=4, runtime="one_sided")
    out = cluster.run()
    return {k: (r.results, r.per_rank, r.events_processed) for k, r in out.items()}


@pytest.mark.parametrize("setting", ["faults", "tracer", "congestion", "cluster"])
def test_hashtable_epoch_stays_scalar(setting):
    """Each setting breaks the closed-epoch contract — per-message fault
    draws, per-message trace records, per-message ECN decisions, another
    job's events on the shared heap — so the epoch runs scalar, with the
    same result either way."""
    inserts = 300
    cfg = HashTableConfig(total_inserts=inserts, seed=4)
    program = _hashtable_program("one_sided", cfg, 4)

    def run():
        if setting == "cluster":
            return _cluster_hashtables(inserts)
        if setting == "congestion":
            job = Job(
                get_machine(DRAGONFLY), 4, "one_sided", placement="block",
                congestion=CongestionConfig(ecn_threshold=1e-6),
            )
            result = job.run(lower_rank, job.channel(program.spec), program, {})
            return result.results, result.per_rank, result.events_processed
        if setting == "faults":
            # Not clean (an outage window), but it opens long after the run.
            scope = faults.inject(faults.FaultPlan.uniform(down=((1.0, 2.0),)))
        else:
            scope = obs.observe(obs.Obs(trace=True))
        with scope:
            result = run_program(get_machine("perlmutter-cpu"), program).result
        return result.results, result.per_rank, result.events_processed

    scalar, vector = _both(run)
    assert scalar == vector
    events = [v[2] for v in vector.values()] if setting == "cluster" else [vector[2]]
    assert all(n > 5 * inserts for n in events)
