"""Exact bulk replay of two-sided ``Isend``/``Irecv`` batches.

The two-sided batch pattern is ``Isend`` x n + ``Waitall`` on the sender
against ``Irecv`` x n + ``Waitall`` on the receiver, one (src, dst, tag)
envelope, one size.  The scalar path costs each message a sender timeout,
a delivery event, a match, a completion event (and, for rendezvous sizes,
RTS, CTS and data deliveries); this module produces the same floats with
none of that event machinery:

* **eager** (``nbytes <= eager_threshold``): closed recurrences.  The
  sender's issue times are ``t += isend``, its delivery heap times come
  from :meth:`repro.perf.engine.FabricPath.transfer_times`, and its
  ``Waitall`` never blocks (eager sends complete at issue).  The receiver
  posts at ``p += irecv`` (all at entry when ``irecv == 0``), matches the
  j-th delivery with the j-th receive at the later of the two, and
  completes at ``m + (recv_match + charge_copy)``, advancing the copy
  engine in match order.
* **rendezvous**: RTS (forward, 0 B), CTS (reverse, 0 B) and data
  (forward, ``nbytes``) reservations interleave on shared channels, so the
  batch is replayed on a small private heap of ``(time, seq, kind, k, j)``
  whose ``seq`` is handed out in exactly the order the scalar path calls
  ``Simulator._schedule``; time ties therefore resolve as the scalar heap
  resolves them, and every reservation is costed with
  :meth:`_TransferPlan.time` in scalar order.

Each side resumes once, at its scalar completion time.  ``Waitall`` only
blocks on requests still *untriggered* when it runs: an eager send is
triggered at issue, a receive at its match (eager) or data delivery
(rendezvous), even though its completion event is processed later.

Contract (beyond :func:`repro.perf.bulk_enabled`): the batch owns its
envelope and its path for its duration — no other traffic on the pair's
channels and no other receives on the receiver's matching engine — and
both sides' entry events predate the batch (the barrier-bracketed flood).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.perf.engine import FabricPath, rendezvous

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.context import RankContext

__all__ = ["send_batch", "recv_batch"]

# Private-heap event kinds (the scalar chain's events, one each).
_S, _R, _RTS, _CTS, _DATA, _COMP, _SD, _SALL, _RALL, _SFIN, _RFIN = range(11)


def send_batch(ctx: "RankContext", channel, dst: int, it: int, n: int, nbytes):
    """Sender half: ``n`` deferred ``Isend`` + the commit ``Waitall``."""
    rv = rendezvous(channel)
    key = (ctx.rank, dst, it)
    if nbytes <= ctx.costs.eager_threshold:
        t_entry = ctx.sim.now
        issue, deliver, t_done = _eager_send(ctx, ctx.job.contexts[dst], n, nbytes)
        rv.publish(key, t_entry, issue, deliver)
        yield ctx.sim.at_time(t_done)
        return
    yield from _meet(ctx, rv, key, "send", n, nbytes)


def recv_batch(ctx: "RankContext", channel, src: int, it: int, n: int, nbytes):
    """Receiver half: ``n`` ``Irecv`` + ``Waitall`` against the sender's batch."""
    rv = rendezvous(channel)
    key = (src, ctx.rank, it)
    if nbytes <= ctx.costs.eager_threshold:
        t_entry = ctx.sim.now
        rec = rv.poll(key)
        sender_first = rec is not None
        if rec is None:
            yield rv.waiter(key, ctx.sim)
            rec = rv.poll(key)
        t_send, issue, deliver = rec
        t_done = _eager_recv(ctx, n, nbytes, t_entry, sender_first, t_send, issue, deliver)
        yield ctx.sim.at_time(t_done)
        return
    yield from _meet(ctx, rv, key, "recv", n, nbytes)


def _meet(ctx, rv, key, role: str, n: int, nbytes):
    """Rendezvous-size batch: the side that arrives second replays it.

    The first side publishes its entry time and parks on an event; the
    second replays the whole batch and wakes both sides at their scalar
    completion times, scheduled in scalar heap order.
    """
    other = rv.poll(("recv" if role == "send" else "send", key))
    wake = ctx.sim.event()
    if other is None:
        rv.publish((role, key), ctx.sim.now, n, wake)
        yield wake
        return
    t_other, n_other, wake_other = other
    if n_other != n:
        raise AssertionError(
            f"two-sided bulk batch: sender and receiver disagree on its size "
            f"({n_other} vs {n})"
        )
    job = ctx.job
    if role == "send":
        sctx, rctx = ctx, job.contexts[key[1]]
        t_send, t_recv = ctx.sim.now, t_other
        s_wake, r_wake = wake, wake_other
    else:
        sctx, rctx = job.contexts[key[0]], ctx
        t_send, t_recv = t_other, ctx.sim.now
        s_wake, r_wake = wake_other, wake
    s_final, r_final = _replay_rendezvous(
        sctx, rctx, n, nbytes, t_send, t_recv, sender_first=role == "recv"
    )
    for (when, _seq), ev in sorted(
        [(s_final, s_wake), (r_final, r_wake)], key=lambda pair: pair[0]
    ):
        ctx.sim.trigger_at(ev, when)
    yield wake


def _count_sends(sctx, n: int, nbytes) -> None:
    """The sender's ``OpCounter`` after ``n`` ``Isend`` + one ``Waitall``."""
    c = sctx.counter
    c.operations += n + 1
    c.messages += n
    c.syncs += 1
    bs = c.bytes_sent
    for _ in range(n):
        bs += nbytes
    c.bytes_sent = bs


def _count_recvs(rctx, n: int, nbytes) -> None:
    """The receiver's counters and matches after ``n`` ``Irecv`` (each
    matched to one arrival) + one ``Waitall``."""
    c = rctx.counter
    c.operations += n + 1
    c.syncs += 1
    c.recv_messages += n
    br = c.bytes_received
    for _ in range(n):
        br += nbytes
    c.bytes_received = br
    rctx.engine.matched_count += n


def _eager_send(sctx, rctx, n: int, nbytes):
    """Counters, issue times, delivery heap times and the commit time."""
    costs = sctx.costs
    _count_sends(sctx, n, nbytes)
    isend = costs.isend
    t = sctx.sim.now
    issue = [0.0] * n
    for k in range(n):
        t = t + isend
        issue[k] = t
    deliver = FabricPath(sctx.fabric, sctx.endpoint, rctx.endpoint).transfer_times(
        nbytes, issue
    )
    # Eager sends are triggered at issue: the Waitall never blocks.
    post = costs.wait_per_req * n + 0.0
    return issue, deliver, (t + post if post > 0 else t)


def _step_before(t: list[float], p: list[float], a: int, b: int, sender_first: bool) -> bool:
    """Is sender step ``a`` processed before receiver step ``b``?

    Step ``a`` runs at ``t[a]`` (``t[0]`` = entry), step ``b`` at ``p[b]``.
    At equal times the heap orders them by the seqs handed out when each
    was scheduled — in the previous step of its own chain — so the
    question recurses one step back until the entry events, which both
    predate the batch and are ordered by which side reached it first.
    """
    while True:
        if t[a] != p[b]:
            return t[a] < p[b]
        if a == 0 or b == 0:
            return sender_first if a == b else a == 0
        a -= 1
        b -= 1


def _eager_recv(rctx, n, nbytes, t_entry, sender_first, t_send, issue, deliver):
    """Receiver counters, matches and copies; returns its resume time."""
    costs = rctx.costs
    _count_recvs(rctx, n, nbytes)
    irecv = costs.irecv
    # Deliveries are processed in heap order; equal times keep issue order.
    order = sorted(range(n), key=deliver.__getitem__)
    hs = [deliver[k] for k in order]
    if irecv > 0:
        p = [t_entry] * (n + 1)
        for b in range(1, n + 1):
            p[b] = p[b - 1] + irecv
        w = p[n]  # Waitall runs in the step that posts the last receive
        done = bisect_left(hs, w)
        t = [t_send] + issue
        while done < n and hs[done] == w and _step_before(
            t, p, order[done] + 1, n - 1, sender_first
        ):
            done += 1
    else:
        p = None
        w = t_entry  # every receive posted, and the Waitall run, at entry
        done = bisect_left(hs, w)
    copy = nbytes * costs.copy_per_byte
    rm = costs.recv_match
    cnf = rctx._copy_next_free
    last = w
    for j in range(n):
        h = hs[j]
        post = p[j + 1] if p is not None else w
        m = h if h >= post else post
        if copy > 0:
            start = m if m >= cnf else cnf
            cnf = start + copy
            comp = m + (rm + (cnf - m))
        else:
            comp = m + (rm + 0.0)
        if j >= done and comp > last:
            last = comp
    rctx._copy_next_free = cnf
    if done < n:  # blocked on the receives still unmatched at the Waitall
        post = costs.wait_per_req * n + costs.sync_enter
        base = last
    else:
        post = costs.wait_per_req * n + 0.0
        base = w
    return base + post if post > 0 else base


def _replay_rendezvous(sctx, rctx, n, nbytes, t_send, t_recv, *, sender_first):
    """Replay an RTS/CTS batch on a private heap in scalar event order.

    Returns each side's ``(resume time, seq)``: the event in whose
    processing the side continues past its ``Waitall``.
    """
    fwd = FabricPath(sctx.fabric, sctx.endpoint, rctx.endpoint)
    rts_time = fwd.plan(0.0).time
    data_time = fwd.plan(nbytes).time
    cts_time = FabricPath(sctx.fabric, rctx.endpoint, sctx.endpoint).plan(0.0).time
    scosts, rcosts = sctx.costs, rctx.costs
    isend, irecv = scosts.isend, rcosts.irecv
    copy = nbytes * rcosts.copy_per_byte
    rm = rcosts.recv_match
    cnf = rctx._copy_next_free

    entries = [(t_send, _S), (t_recv, _R)]
    if not sender_first:
        entries.reverse()
    heap = [(t, seq, kind, 0, 0) for seq, (t, kind) in enumerate(entries)]
    heapify(heap)
    seq = 2
    posted: deque[int] = deque()
    unexpected: deque[int] = deque()
    ndata = 0  # data deliveries processed = sends and receives triggered
    s_wait = r_wait = None  # requests a blocked Waitall still waits on
    finals: dict[int, tuple[float, int]] = {}

    def post_recv(now, j):
        nonlocal seq
        if unexpected:
            heappush(heap, (cts_time(now), seq, _CTS, unexpected.popleft(), j))
            seq += 1
        else:
            posted.append(j)

    def waitall(now, sq, side, costs):
        """Returns the pending count, or records the unblocked resume."""
        nonlocal seq
        pending = n - ndata
        if pending:
            return pending
        post = costs.wait_per_req * n + 0.0
        if post > 0:
            heappush(heap, (now + post, seq, _SFIN + side, 0, 0))
            seq += 1
        else:
            finals[side] = (now, sq)
        return None

    def resume(now, sq, side, costs):
        nonlocal seq
        post = costs.wait_per_req * n + costs.sync_enter
        if post > 0:
            heappush(heap, (now + post, seq, _SFIN + side, 0, 0))
            seq += 1
        else:
            finals[side] = (now, sq)

    while heap:
        now, sq, kind, k, j = heappop(heap)
        if kind == _S:
            if k:
                heappush(heap, (rts_time(now), seq, _RTS, k, 0))
                seq += 1
            if k < n:
                heappush(heap, (now + isend, seq, _S, k + 1, 0))
                seq += 1
            else:
                s_wait = waitall(now, sq, 0, scosts)
        elif kind == _R:
            if irecv > 0:
                if k:
                    post_recv(now, k)
                if k < n:
                    heappush(heap, (now + irecv, seq, _R, k + 1, 0))
                    seq += 1
                    continue
            else:
                for b in range(1, n + 1):
                    post_recv(now, b)
            r_wait = waitall(now, sq, 1, rcosts)
        elif kind == _RTS:
            if posted:
                heappush(heap, (cts_time(now), seq, _CTS, k, posted.popleft()))
                seq += 1
            else:
                unexpected.append(k)
        elif kind == _CTS:
            heappush(heap, (data_time(now), seq, _DATA, k, j))
            seq += 1
        elif kind == _DATA:
            if copy > 0:
                start = now if now >= cnf else cnf
                cnf = start + copy
                delay = rm + (cnf - now)
            else:
                delay = rm + 0.0
            ndata += 1
            # The receive completes after its delay, the send at once;
            # only a Waitall already blocked on them observes either.
            if r_wait is not None:
                heappush(heap, (now + delay, seq, _COMP, k, j))
            seq += 1
            if s_wait is not None:
                heappush(heap, (now, seq, _SD, k, j))
            seq += 1
        elif kind == _COMP:
            r_wait -= 1
            if not r_wait:
                heappush(heap, (now, seq, _RALL, 0, 0))
                seq += 1
        elif kind == _SD:
            s_wait -= 1
            if not s_wait:
                heappush(heap, (now, seq, _SALL, 0, 0))
                seq += 1
        elif kind == _SALL:
            resume(now, sq, 0, scosts)
        elif kind == _RALL:
            resume(now, sq, 1, rcosts)
        else:  # _SFIN / _RFIN
            finals[kind - _SFIN] = (now, sq)
    rctx._copy_next_free = cnf
    _count_sends(sctx, n, nbytes)
    _count_recvs(rctx, n, nbytes)
    return finals[0], finals[1]
