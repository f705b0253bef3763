"""The discrete-event simulation core.

:class:`Simulator` owns virtual time and an event heap.  All timing in the
reproduction — link traversal, MPI op overheads, GPU kernel slices — is
expressed as events scheduled here, so a whole multi-rank run is
deterministic and produces *virtual* seconds, independent of host speed.

Determinism contract: two runs with the same program and the same RNG seeds
produce identical event orderings.  Ties in time are broken by insertion
sequence number.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Any

from repro.sim.event import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import Process

__all__ = ["Simulator"]


class Simulator:
    """Event heap + virtual clock.

    Usage::

        sim = Simulator()
        sim.process(my_generator_fn(sim))
        sim.run()
        print(sim.now)
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self._running = False
        self.event_count: int = 0  # processed events, for instrumentation

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction helpers ------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def at_time(self, when: float, value: Any = None) -> Event:
        """An event that fires at the *absolute* simulated time ``when``.

        Unlike ``timeout(when - now)``, the event is enqueued at exactly
        ``when`` — ``now + (when - now)`` can differ from ``when`` by one
        ulp, which matters to the bulk-transfer engine
        (:mod:`repro.perf`): its batch completions must land on the very
        float the scalar path's event chain would have produced.
        """
        ev = Event(self)
        self.trigger_at(ev, when, value)
        return ev

    def trigger_at(self, event: Event, when: float, value: Any = None) -> None:
        """Succeed an existing untriggered ``event`` at absolute time ``when``.

        The :meth:`at_time` counterpart for an event a process is already
        waiting on: the bulk engine wakes a parked batch side at its exact
        completion time, in the heap order the scalar chain would have
        produced.
        """
        if event.triggered:
            raise SimulationError(f"event {event!r} already triggered")
        event._ok = True
        event._value = value
        self._schedule(event, at=when)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Launch a generator as a simulation process."""
        return Process(self, generator, name=name)

    # -- scheduling ------------------------------------------------------------

    def _schedule(
        self, event: Event, delay: float = 0.0, *, at: float | None = None
    ) -> None:
        if at is None:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            when = self._now + delay
        else:
            if at < self._now:
                raise SimulationError(
                    f"cannot schedule into the past (at={at} < now={self._now})"
                )
            when = at
        heapq.heappush(self._heap, (when, self._seq, event))
        self._seq += 1

    # -- execution -------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event. Raises IndexError if none remain."""
        when, _, event = heapq.heappop(self._heap)
        self._now = when
        self.event_count += 1
        event._process()

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(
        self, until: float | Event | None = None, *, max_events: int | None = None
    ) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        ``until`` may be:

        * ``None`` — run to quiescence;
        * a float — advance the clock to exactly that time, processing every
          event scheduled before it;
        * an :class:`Event` — run until that event is processed and return its
          value (raising if it failed).

        ``max_events`` bounds the number of events processed by *this call*
        — a guard against livelocked programs (e.g. two processes waking
        each other forever); exceeding it raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        budget_start = self.event_count
        self._running = True

        def check_budget() -> None:
            if (
                max_events is not None
                and self.event_count - budget_start >= max_events
            ):
                raise SimulationError(
                    f"event budget exhausted: processed {max_events} events "
                    f"without completing (livelock? t={self._now:.3e}s)"
                )

        try:
            if until is None:
                while self._heap:
                    check_budget()
                    self.step()
                return None
            if isinstance(until, Event):
                sentinel = until
                if sentinel.sim is not self:
                    raise SimulationError("'until' event belongs to another simulator")
                done: list[Any] = []

                def _mark(ev: Event) -> None:
                    done.append(ev)

                if sentinel.processed:
                    done.append(sentinel)
                else:
                    sentinel.add_callback(_mark)
                while not done:
                    if not self._heap:
                        raise SimulationError(
                            "simulation ran to quiescence before 'until' event fired "
                            "(deadlock: a process is waiting for a message that will "
                            "never arrive?)"
                        )
                    check_budget()
                    self.step()
                if not sentinel.ok:
                    raise sentinel.value
                return sentinel.value
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"cannot run until {deadline} < current time {self._now}"
                )
            while self._heap and self._heap[0][0] <= deadline:
                check_budget()
                self.step()
            self._now = deadline
            return None
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6e}s queued={len(self._heap)}>"
