"""Discrete-event simulation substrate.

This package holds the event calendar and the fluid processor-sharing models
that the rest of the library builds upon:

* :class:`Environment` — a clock plus a calendar of timed callbacks, ordered
  by time, then priority (:data:`URGENT` before :data:`NORMAL`), then
  insertion;
* :class:`ProcessorSharingQueue`, :class:`FluidNetwork` — the egalitarian
  time-sharing model of the paper (Section 2.3), implemented in *virtual
  time* with heap-based event scheduling (O(log J) per event; see
  :mod:`repro.simulation.fluid`);
* :class:`RandomStreams` — reproducible named random streams.
"""

from .engine import NORMAL, URGENT, Environment
from .fluid import (
    EPSILON,
    FluidEvent,
    FluidNetwork,
    FluidStage,
    FluidTaskState,
    ProcessorSharingQueue,
    PSJob,
)
from .rng import RandomStreams

__all__ = [
    "Environment",
    "URGENT",
    "NORMAL",
    "EPSILON",
    "PSJob",
    "ProcessorSharingQueue",
    "FluidStage",
    "FluidTaskState",
    "FluidEvent",
    "FluidNetwork",
    "RandomStreams",
]
