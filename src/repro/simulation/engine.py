"""The discrete-event simulation environment.

:class:`Environment` is a clock plus a calendar of timed callbacks: a binary
heap of ``(time, priority, insertion index, callback)`` entries.  Entries run
in time order, then :data:`URGENT` before :data:`NORMAL`, then in insertion
order, so a run is fully deterministic for a given model and seed.

Everything that moves in the client-agent-server model is such a callback:
clients submit at arrival dates, monitors report periodically, servers wake
up at fluid completions and fault windows open and close.  A periodic loop
is a callback that reschedules itself.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

from ..errors import EmptySchedule

__all__ = ["Environment", "URGENT", "NORMAL"]

#: Priority of entries that run before normal ones at the same time.
URGENT = 0
#: Priority of ordinary entries.
NORMAL = 1


class Environment:
    """Execution environment of a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (defaults to ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._seq = 0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = NORMAL
    ) -> None:
        """Call ``callback()`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, callback))
        self._seq += 1

    def stop(self) -> None:
        """Make the current :meth:`run` return after the running callback."""
        self._stopped = True

    def peek(self) -> float:
        """Time of the next entry, or ``inf`` if the calendar is empty."""
        return self._queue[0][0] if self._queue else math.inf

    def step(self) -> None:
        """Advance the clock to the next entry and run its callback.

        Raises
        ------
        EmptySchedule
            If the calendar is empty.
        """
        try:
            self._now, _, _, callback = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("the event calendar is empty") from None
        callback()

    def run(self, until: Optional[float] = None) -> None:
        """Run entries until the calendar empties, :meth:`stop` is called, or
        the clock would pass ``until``.

        Entries due exactly at ``until`` still run; the clock then reads
        ``until`` unless the run was stopped earlier.
        """
        at = math.inf if until is None else float(until)
        if at < self._now:
            raise ValueError(
                f"until ({at}) must not be earlier than the current time ({self._now})"
            )
        self._stopped = False
        queue = self._queue
        while queue and queue[0][0] <= at:
            self.step()
            if self._stopped:
                return
        if at < math.inf:
            self._now = at

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._queue)}>"
