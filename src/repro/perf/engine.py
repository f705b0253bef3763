"""Exact bulk evaluation of homogeneous message batches.

The scalar path walks every message through the event heap: a ``put`` is a
timeout, a fabric delivery event, a land callback, a copy-visibility
timeout and a completion event — five heap operations and several Python
frames per message.  For the paper's hot loops (flood rounds, hashtable
epochs: up to 1e6 messages per synchronisation, all the same size on the
same route) that dispatch overhead *is* the simulator's runtime.

This module evaluates such a batch in one pass: a tight loop that performs
**the identical sequence of float operations** the scalar event chain
would have performed — channel reservations, copy-engine serialisation,
counter increments — but without touching the heap.  Only the batch's
boundary events (sender resume, batch completion, receiver wake) are
materialised, via :meth:`Simulator.at_time`, at the exact times the
scalar chain would have produced.

Why a Python loop and not a closed-form numpy kernel?  Exactness.  The
acceptance bar is *byte-identical* results, and IEEE-754 addition does not
associate: ``base + n * step`` differs from ``n`` repeated ``+= step`` by
ulps that compound over a million messages, and ``now + (T - now)`` (how
the scalar heap lands an event at ``T``) is itself not ``T``.  So the
engine replays the scalar arithmetic verbatim — per-message state updates
in issue order — and numpy serves as storage and binary search
(:func:`numpy.searchsorted` over arrival schedules), not as the
arithmetic engine.  What is eliminated is the per-message *event machinery*
(heap pushes/pops, Event/Request allocation, generator suspensions), which
is where the time went.

Exactness contract (enforced by :func:`repro.perf.bulk_enabled` plus the
construction of the call sites):

* no fault injection on the job (loss/jitter draws are per-message);
* tracer disabled (per-message records cannot be batched);
* no congestion control and no routing policy on the fabric (ECN marks,
  backoffs and adaptive path choices are per-message decisions;
  :class:`FabricPath` refuses such a fabric);
* the batch is homogeneous: one (src, dst) route, one size, one verb —
  or, for a private-heap replay, closed: nothing outside the replay can
  schedule an event while it runs (the atomic insert epoch checks that
  the simulator heap is otherwise empty and the channel's windows have
  no write watchers when its last rank reaches the opening barrier).

Call sites: one-sided ``put_batch`` and shmem ``put_signal_batch``
floods, CAS streams (:mod:`repro.perf.atomics`), the two-sided
``Isend``/``Irecv`` batch (:mod:`repro.perf.pt2pt`: eager sizes by
closed recurrences, rendezvous sizes by a private-heap replay of the
interleaved RTS/CTS/data reservations in scalar event order), and the
job-wide atomic insert epoch behind ``Emitter.atomic_epoch``
(:mod:`repro.perf.atomic_epoch`: every rank's CAS / FAA / swap /
publish chain replayed on one private heap in scalar event order).

Under that contract the bulk path is not an approximation — every float
written into channel ``_next_free`` state, every counter, every metrics
observation is the one the scalar path would have written.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.context import RankContext
    from repro.net.fabric import Fabric

__all__ = ["FabricPath", "bulk_visible_last", "drain_wait_until_all", "BatchRendezvous", "rendezvous"]


class FabricPath:
    """A pre-resolved ``src -> dst`` path through a pristine fabric.

    :meth:`plan` freezes the per-message constants for one homogeneous
    size into a :class:`_TransferPlan`, whose ``time``/``times`` replicate
    :meth:`repro.net.fabric.Fabric.transfer` — reservations, counters,
    metrics — and return the simulated time at which the delivery event
    would have been *processed*: the scalar path schedules it via
    ``succeed(delay=arrival - now)``, so the heap time is
    ``now + (arrival - now)``, which can differ from ``arrival`` by one
    ulp.  Everything downstream of a delivery (copy engines, atomic
    units, signal waits) keys off that heap time, so that is what we
    return.
    """

    __slots__ = ("fabric", "src", "route", "inj", "hops")

    def __init__(self, fabric: "Fabric", src: str, dst: str):
        if fabric.faults is not None:
            raise RuntimeError(
                "bulk engine engaged on a faulty fabric — bulk_enabled() "
                "must gate every call site"
            )
        if fabric.cc is not None or fabric.routing is not None:
            raise RuntimeError(
                "bulk engine engaged on a fabric with a routing policy or "
                "congestion control — bulk_enabled() must gate every call site"
            )
        self.fabric = fabric
        self.src = src
        self.route = fabric.topology.route(src, dst)
        self.inj = fabric._injection.get(src)
        self.hops = [
            fabric._links[frozenset((u, v))].channel(u, v)
            for u, v in self.route.hops
        ]

    def plan(self, nbytes: float, atomic: bool = False) -> "_TransferPlan":
        """Freeze per-message constants for one homogeneous message size."""
        return _TransferPlan(self, nbytes, atomic)

    def transfer_time(self, nbytes: float, now: float, atomic: bool = False) -> float:
        return self.plan(nbytes, atomic).time(now)

    def transfer_times(self, nbytes: float, issue: list[float]) -> list[float]:
        """Delivery heap times for one homogeneous batch, in issue order."""
        return self.plan(nbytes).times(issue)


class _TransferPlan:
    """One (path, size, atomic?) combination with all constants hoisted.

    Per-sub-channel occupancy ``max(gap, nbytes * G)``, hop latency and
    the tail time ``nbytes * route.G`` are pure functions of frozen
    parameters, so computing them once per batch instead of once per
    message yields the identical floats.  Mutable state — ``_next_free``,
    byte counters, histograms — is updated message-by-message in issue
    order, exactly as the scalar path would.
    """

    __slots__ = ("fabric", "src", "nbytes", "loopback", "hop_data", "occ", "lat", "tail")

    def __init__(self, path: FabricPath, nbytes: float, atomic: bool):
        route = path.route
        self.fabric = path.fabric
        self.src = path.src
        self.nbytes = nbytes
        self.tail = nbytes * route.G
        self.loopback = route.nhops == 0
        if self.loopback:
            self.hop_data = []
            self.occ = max(route.gap, nbytes * route.G)
            self.lat = route.latency
        else:
            chans = ([path.inj] if path.inj is not None else []) + path.hops
            self.hop_data = []
            for ch in chans:
                p = ch.params
                gap = p.effective_atomic_gap if atomic else p.gap
                self.hop_data.append(
                    (ch._next_free, max(gap, nbytes * p.G), p.latency, ch)
                )
            self.occ = 0.0
            self.lat = 0.0

    def time(self, now: float) -> float:
        """One message: full per-message replication (state + counters)."""
        fabric = self.fabric
        nbytes = self.nbytes
        if self.loopback:
            lnf = fabric._loopback_next_free
            free = lnf.get(self.src, 0.0)
            start = now if now >= free else free  # max(now, free)
            lnf[self.src] = start + self.occ
            arrival = start + self.lat + self.tail
        else:
            t = now
            for nf, occ, lat, ch in self.hop_data:
                if len(nf) == 1:
                    f = nf[0]
                    start = t if t >= f else f  # max(earliest, next_free)
                    nf[0] = start + occ
                else:
                    idx = min(range(len(nf)), key=nf.__getitem__)
                    f = nf[idx]
                    start = t if t >= f else f
                    nf[idx] = start + occ
                ch.bytes_carried += nbytes
                ch.messages_carried += 1
                wh = ch.wait_hist
                if wh is not None:
                    wh.observe(start - t)
                t = start + lat
            arrival = t + self.tail
        fabric.total_messages += 1
        fabric.total_bytes += nbytes
        if fabric._m_bytes is not None:
            fabric._m_messages.inc()
            fabric._m_bytes.inc(nbytes)
            fabric._m_timeline.observe(arrival, nbytes)
        return now + (arrival - now)

    def times(self, issue: list[float]) -> list[float]:
        """Delivery heap times for the whole batch, in issue order.

        When metrics or wait histograms are attached (an obs session is
        active) every message runs the full :meth:`time` replication;
        otherwise the reservation recurrence runs in a tight loop and the
        float accumulators (``bytes_carried``, ``total_bytes``) are
        advanced afterwards by the same per-message ``+=`` sequence —
        each accumulator sees the identical ordered additions either way,
        so the totals are bit-exact.
        """
        fabric = self.fabric
        if fabric._m_bytes is not None or any(
            ch.wait_hist is not None for *_rest, ch in self.hop_data
        ):
            return [self.time(t) for t in issue]
        nbytes = self.nbytes
        n = len(issue)
        out = [0.0] * n
        tail = self.tail
        if self.loopback:
            lnf = fabric._loopback_next_free
            free = lnf.get(self.src, 0.0)
            occ = self.occ
            lat = self.lat
            for k in range(n):
                now = issue[k]
                start = now if now >= free else free
                free = start + occ
                arrival = start + lat + tail
                out[k] = now + (arrival - now)
            lnf[self.src] = free
        else:
            hop_data = self.hop_data
            if len(hop_data) == 1 and len(hop_data[0][0]) == 1:
                # Single hop, single sub-channel: the flood fast path.
                nf, occ, lat, _ch = hop_data[0]
                f = nf[0]
                for k in range(n):
                    now = issue[k]
                    start = now if now >= f else f
                    f = start + occ
                    arrival = start + lat + tail
                    out[k] = now + (arrival - now)
                nf[0] = f
            else:
                for k in range(n):
                    now = issue[k]
                    t = now
                    for nf, occ, lat, _ch in hop_data:
                        if len(nf) == 1:
                            f = nf[0]
                            start = t if t >= f else f
                            nf[0] = start + occ
                        else:
                            idx = min(range(len(nf)), key=nf.__getitem__)
                            f = nf[idx]
                            start = t if t >= f else f
                            nf[idx] = start + occ
                        t = start + lat
                    arrival = t + tail
                    out[k] = now + (arrival - now)
            for *_rest, ch in hop_data:
                bc = ch.bytes_carried
                for _ in range(n):
                    bc += nbytes
                ch.bytes_carried = bc
                ch.messages_carried += n
        fabric.total_messages += n
        tb = fabric.total_bytes
        for _ in range(n):
            tb += nbytes
        fabric.total_bytes = tb
        return out


def bulk_visible_last(target_ctx: "RankContext", nbytes: float, deliver: list[float]) -> float:
    """Visibility time of the *last* write in a batch of RMA puts.

    Replicates, per message, ``RankContext.charge_copy`` at the delivery
    heap time followed by the scalar land callback's ``if delay > 0``
    visibility timeout.  Mutates the target's ``_copy_next_free`` exactly
    as the scalar sequence of land callbacks would have.
    """
    copy = nbytes * target_ctx.costs.copy_per_byte
    if copy <= 0:
        last = deliver[0]
        for v in deliver:
            if v > last:
                last = v
        return last
    cnf = target_ctx._copy_next_free
    last = deliver[0]
    for h in deliver:
        start = h if h > cnf else cnf  # max(now, _copy_next_free)
        finish = start + copy
        cnf = finish
        delay = finish - h
        v = h + delay if delay > 0 else h
        if v > last:
            last = v
    target_ctx._copy_next_free = cnf
    return last


def drain_wait_until_all(
    ctx: "RankContext",
    arrivals: np.ndarray,
    base: int,
    value: int,
    t_entry: float,
    *,
    signal_value: int = 1,
) -> float:
    """Completion time of ``ShmemContext.wait_until_all`` on one signal slot.

    Mini-simulates the scalar polling loop against a known arrival
    schedule: the signal word starts at ``base`` and gains ``signal_value``
    at each time in ``arrivals`` (sorted, the batch's delivery heap times).
    The scalar loop checks first (free), then per round wakes at the next
    write *strictly after* its clock, pays ``poll_slot`` per watched slot
    (one here), and re-checks counting every arrival at-or-before the new
    clock; a loop that ever blocked pays ``wait_wakeup`` once at the end.
    All additions replicate the scalar ``timeout`` chain (and its
    ``recheck > 0`` / ``wait_wakeup > 0`` guards) in order.
    """
    poll = ctx.costs.poll_slot  # recheck cost: poll_slot * len(idxs), one idx
    arr = arrivals.tolist()  # Python floats: identical doubles, cheap compares
    n = len(arr)
    t = t_entry
    # i = number of arrivals at-or-before the clock (searchsorted "right");
    # it is also the index of the next write strictly after the clock, so
    # one pointer serves both the signal count and the wake target, and
    # the post-wake recount is a short linear advance (the clock moved to
    # arr[i] + poll, at most a few slots ahead).
    i = int(np.searchsorted(arrivals, t, side="right"))
    blocked = False
    while base + i * signal_value < value:
        blocked = True
        if i >= n:
            raise AssertionError(
                "bulk wait_until_all: arrival schedule exhausted before the "
                "signal target was reached (sender/receiver batch mismatch?)"
            )
        t = arr[i]
        if poll > 0:
            t = t + poll
        i += 1
        while i < n and arr[i] <= t:
            i += 1
    if blocked and ctx.costs.wait_wakeup > 0:
        t = t + ctx.costs.wait_wakeup
    return t


class BatchRendezvous:
    """Handoff of a batch's record between its two sides.

    One side publishes a record (the shmem sender: the arrival schedule
    and base signal; the two-sided batch: issue and delivery times, or
    one side's entry time) under a key such as
    ``(src_rank, dst_rank, iteration)``; a side that got there first
    either parks on :meth:`waiter` and is woken by the publish, or polls
    and publishes its own record.  Records are consumed by the first
    matching poll — one batch, one consumer.
    """

    __slots__ = ("_records", "_waiters")

    def __init__(self):
        self._records: dict = {}
        self._waiters: dict = {}

    def publish(self, key, *record) -> None:
        self._records[key] = record
        ev = self._waiters.pop(key, None)
        if ev is not None:
            ev.succeed()

    def poll(self, key):
        """Consume and return the record for ``key``, or None."""
        return self._records.pop(key, None)

    def waiter(self, key, sim):
        ev = sim.event()
        self._waiters[key] = ev
        return ev


def rendezvous(channel) -> BatchRendezvous:
    """The (lazily created) per-transport-channel batch rendezvous."""
    rv = getattr(channel, "_bulk_rendezvous", None)
    if rv is None:
        rv = channel._bulk_rendezvous = BatchRendezvous()
    return rv
