"""Exact bulk replay of a job-wide atomic insert epoch (paper §III-C).

The hashtable's sender's-control insert epoch is ``barrier, inserts,
barrier`` on every rank, where an insert is a chain of blocking remote
atomics — CAS on the home slot, and on a collision FAA on the overflow
counter, a swap of the chain head and a ``publish`` (put +
``flush_local``) of the element.  Which ops follow depends on the values
the CAS/FAA/swap return, so the op stream exists only at run time; on
the scalar path every atomic and every publish costs up to six heap
events, each dispatched through a generator chain several frames deep.

:func:`atomic_epoch` is the lowering of the IR Emitter's
``atomic_epoch(fn)`` verb.  ``fn(verbs)`` is a generator function that
uses only ``verbs.rank`` and the verbs ``cas``/``faa``/``swap``/
``publish``; the algorithm is written once and both paths run it:

* **scalar**: the opening barrier, ``yield from fn(verbs)`` with the
  verbs lowered through the Emitter, the per-rank elapsed time, the
  trailing barrier — the exact sequence the body used to spell out.
* **bulk**: the engine steps the P ``fn`` generators itself and replays
  every scalar event on a private heap of ``(time, seq, kind, rank)``:

  - a blocking atomic: issue timeout (``fetch_op``), 16 B request
    delivery, the target atomic unit's timeout, the apply on the real
    window buffer and the 8 B response, the completion event and the
    waiter's ``sync_enter + wait_per_req`` wake-up;
  - a publish: put timeout, delivery, the target's ``charge_copy`` and
    visibility, the ``flush_local`` timeout and, when the flush had to
    wait, the put completion and its ``AllOf``.

  ``seq`` is handed out in the order the scalar path calls
  ``Simulator._schedule``, starting from barrier-release order, so
  exact time ties resolve as the scalar heap resolves them; every
  transfer is costed by :meth:`repro.perf.engine._TransferPlan.time`.
  Each rank then resumes once, via :meth:`Simulator.trigger_at`, at its
  scalar epoch-end time and in the private heap's pop order, and runs
  the real trailing barrier.

The choice is made once, when the last rank arrives at the opening
barrier, before any rank proceeds — there is never a mid-epoch
fallback.  The bulk path engages only for a closed epoch:

* :func:`repro.perf.bulk_enabled` (no faults, no tracer, no congestion
  control or routing policy);
* no window of the channel has write watchers;
* the simulator heap holds no other event — every rank of the job is
  parked at the barrier and nothing outside the epoch (another job on a
  shared simulator, a straggling completion) can interleave with it.

Under that contract window buffers, atomic units (``_atomic_next_free``),
copy engines, ``OpCounter`` fields, fabric totals, link stats, wait
histograms and obs metrics come out bit-identical to the scalar path,
and the ``ir.ops.*`` counts are unchanged: the epoch counts its barriers
and atomics under their own kinds and does not count itself.
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from math import inf

import numpy as np

from repro.comm.base import CommError
from repro.perf.config import bulk_enabled
from repro.perf.engine import FabricPath

__all__ = ["AtomicVerbs", "atomic_epoch"]

# Verb tokens a bulk-stepped body yields.
_CAS, _FAA, _SWAP, _PUB = range(4)

# Private-heap event kinds (the scalar chain's events, one each).
(
    _ISSUE, _REQ, _APPLY, _RESP, _DONE, _WAKE,
    _PUT, _DELIV, _VIS, _FLUSH, _PDONE, _ALLOF,
) = range(12)


class AtomicVerbs:
    """The restricted emitter an epoch body sees: its rank and the four
    atomic verbs, lowered through the IR Emitter (scalar path)."""

    __slots__ = ("rank", "cas", "faa", "swap", "publish")

    def __init__(self, em, rank: int):
        self.rank = rank
        self.cas = em.cas
        self.faa = em.faa
        self.swap = em.swap
        self.publish = em.publish


class _BulkVerbs:
    """The same verbs for the bulk replay: each counts its op kind as the
    Emitter would, then yields a token and returns what the engine sends."""

    __slots__ = ("rank", "_wins", "_counts")

    def __init__(self, rank: int, wins: dict, counts: dict):
        self.rank = rank
        self._wins = wins
        self._counts = counts

    def cas(self, space, dst, offset, compare, value):
        counts = self._counts
        counts["AtomicCas"] = counts.get("AtomicCas", 0) + 1
        return (yield (_CAS, self._wins[space], dst, offset, compare, value))

    def faa(self, space, dst, offset, value):
        counts = self._counts
        counts["AtomicFaa"] = counts.get("AtomicFaa", 0) + 1
        return (yield (_FAA, self._wins[space], dst, offset, value, None))

    def swap(self, space, dst, offset, value):
        counts = self._counts
        counts["AtomicSwap"] = counts.get("AtomicSwap", 0) + 1
        return (yield (_SWAP, self._wins[space], dst, offset, value, None))

    def publish(self, space, dst, values, *, offset=0):
        counts = self._counts
        counts["AtomicPublish"] = counts.get("AtomicPublish", 0) + 1
        return (yield (_PUB, self._wins[space], dst, offset, values, None))


class _Epoch:
    """One epoch of one channel: arrivals, the decision, the parked ranks."""

    __slots__ = ("arrived", "bulk", "parked")

    def __init__(self):
        self.arrived = 0
        self.bulk = False
        self.parked: list = []


def _closed(job, channel) -> bool:
    """May this epoch be replayed in bulk?  Asked at the last arrival."""
    return (
        bulk_enabled(job)
        and not any(w for win in channel.wins.values() for w in win._watchers)
        and job.sim.peek() == inf
    )


def atomic_epoch(ep, em, fn):
    """Barrier, ``fn(verbs)``, barrier; returns ``(fn's result, elapsed)``.

    ``ep`` is the rank's atomic-domain endpoint and ``em`` its Emitter
    (which counts the barriers and, on the scalar path, the atomics).
    """
    ctx = ep.ctx
    channel = ep.channel
    epoch = getattr(channel, "_atomic_epoch", None)
    if epoch is None:
        epoch = channel._atomic_epoch = _Epoch()
    epoch.arrived += 1
    if epoch.arrived == ctx.size:
        channel._atomic_epoch = None
        epoch.bulk = _closed(ctx.job, channel)
    yield from em.barrier()
    t0 = ctx.sim.now
    if epoch.bulk:
        wake = ctx.sim.event()
        epoch.parked.append((ctx, fn, wake))
        if len(epoch.parked) == ctx.size:
            _replay(ctx.job, channel.wins, epoch.parked, em.counts)
        result = yield wake
    else:
        result = yield from fn(AtomicVerbs(em, ctx.rank))
    elapsed = ctx.sim.now - t0
    yield from em.barrier()
    return result, elapsed


def _replay(job, wins: dict, parked: list, counts: dict) -> None:
    """Run every parked rank's body to completion on a private heap and
    schedule each rank's wake at its scalar epoch-end time."""
    sim = job.sim
    if sim.peek() != inf:
        raise AssertionError("bulk atomic epoch: the simulator heap is not idle")
    nranks = job.nranks
    costs = job.costs
    fetch_op = costs.fetch_op
    apply_cost = costs.atomic_apply
    wakeup = costs.sync_enter + costs.wait_per_req
    put_cost = costs.put
    flush = costs.flush
    copy_per_byte = costs.copy_per_byte
    contexts = job.contexts
    counters = [ctx.counter for ctx in contexts]
    fabric = job.fabric
    eps = job.endpoints

    paths: dict = {}
    plans: dict = {}  # (src, dst, nbytes, atomic) -> _TransferPlan.time

    def new_plan(key):
        src, dst, nbytes, atomic = key
        path = paths.get((src, dst))
        if path is None:
            path = paths[(src, dst)] = FabricPath(fabric, src, dst)
        fn = plans[key] = path.plan(nbytes, atomic).time
        return fn

    gens = [None] * nranks
    ops = [None] * nranks  # the token of each rank's op in flight
    vals = [None] * nranks  # the old value an atomic returns
    put_done = [False] * nranks
    flushing = [False] * nranks
    results = [None] * nranks
    finals: list = []
    heap: list = []
    seq = nranks  # seqs 0..P-1: the ranks' barrier releases

    def step(r, value, now, sq):
        """Resume rank ``r``'s body; returns its next op's first event."""
        nonlocal seq
        try:
            tok = gens[r].send(value)
        except StopIteration as stop:
            results[r] = stop.value
            finals.append((now, sq, r))
            return None
        verb, win, dst, offset, a, _b = tok
        if not 0 <= dst < nranks:
            raise CommError(f"atomic-epoch target {dst} out of range")
        c = counters[r]
        if verb == _PUB:
            values = np.asarray(a, dtype=win.dtype)
            if values.ndim != 1:
                values = values.ravel()
            nbytes = len(values) * win.dtype.itemsize
            ops[r] = (verb, win, dst, offset, values, nbytes)
            # put + flush_local
            c.operations += 2
            c.messages += 1
            c.bytes_sent += nbytes
            c.syncs += 1
            item = (now + put_cost, seq, _PUT, r)
        else:
            if not 0 <= offset < win.count:
                raise CommError(
                    f"atomic offset {offset} out of bounds ({win.count})"
                )
            ops[r] = tok
            # the atomic + the blocking ctx.wait on it
            c.operations += 2
            c.atomics += 1
            c.syncs += 1
            item = (now + fetch_op, seq, _ISSUE, r)
        seq += 1
        return item

    for sq, (ctx, fn, _wake) in enumerate(parked):
        r = ctx.rank
        gens[r] = fn(_BulkVerbs(r, wins, counts))
        item = step(r, None, sim.now, sq)
        if item is not None:
            heappush(heap, item)

    item = heappop(heap) if heap else None
    while item is not None:
        now, sq, kind, r = item
        nxt = None
        if kind == _ISSUE:
            key = (eps[r], eps[ops[r][2]], 16.0, True)
            f = plans.get(key) or new_plan(key)
            nxt = (f(now), seq, _REQ, r)
            seq += 1
        elif kind == _REQ:
            _v, win, dst = ops[r][:3]
            anf = win._atomic_next_free
            free = anf[dst]
            start = now if now >= free else free
            finish = start + apply_cost
            anf[dst] = finish
            nxt = (now + (finish - now), seq, _APPLY, r)
            seq += 1
        elif kind == _APPLY:
            verb, win, dst, offset, a, b = ops[r]
            buf = win.buffers[dst]
            old = buf[offset].item()
            if verb == _CAS:
                if old == a:
                    buf[offset] = b
            elif verb == _FAA:
                buf[offset] = old + a
            else:
                buf[offset] = a
            vals[r] = old
            key = (eps[dst], eps[r], 8.0, False)
            f = plans.get(key) or new_plan(key)
            nxt = (f(now), seq, _RESP, r)
            seq += 1
        elif kind == _RESP:
            nxt = (now, seq, _DONE, r)
            seq += 1
        elif kind == _DONE:
            if wakeup > 0:
                nxt = (now + wakeup, seq, _WAKE, r)
                seq += 1
            else:
                nxt = step(r, vals[r], now, sq)
        elif kind == _WAKE:
            nxt = step(r, vals[r], now, sq)
        elif kind == _PUT:
            _v, _w, dst, _o, _values, nbytes = ops[r]
            key = (eps[r], eps[dst], nbytes, False)
            f = plans.get(key) or new_plan(key)
            heappush(heap, (f(now), seq, _DELIV, r))
            put_done[r] = False
            nxt = (now + flush, seq + 1, _FLUSH, r)
            seq += 2
        elif kind == _DELIV or kind == _VIS:
            _v, win, dst, offset, values, nbytes = ops[r]
            copy = nbytes * copy_per_byte if kind == _DELIV else 0.0
            if copy > 0:
                tctx = contexts[dst]
                cnf = tctx._copy_next_free
                start = now if now >= cnf else cnf
                finish = start + copy
                tctx._copy_next_free = finish
                delay = finish - now
            else:
                delay = 0.0
            if delay > 0:
                nxt = (now + delay, seq, _VIS, r)
                seq += 1
            else:
                win._apply_write(dst, offset, values)
                put_done[r] = True
                if flushing[r]:
                    nxt = (now, seq, _PDONE, r)
                    seq += 1
        elif kind == _FLUSH:
            if put_done[r]:
                nxt = step(r, None, now, sq)
            else:
                flushing[r] = True
        elif kind == _PDONE:
            nxt = (now, seq, _ALLOF, r)
            seq += 1
        else:  # _ALLOF
            flushing[r] = False
            nxt = step(r, None, now, sq)
        if nxt is not None:
            item = heappushpop(heap, nxt)
        elif heap:
            item = heappop(heap)
        else:
            item = None

    wakes = {ctx.rank: ev for ctx, _fn, ev in parked}
    finals.sort()
    for when, _sq, r in finals:
        sim.trigger_at(wakes[r], when, results[r])
