"""Outside-in instrumentation of the simulator's layers for the traced run.

:func:`instrument` patches the entry points of each layer with span-recording
(or, on the hottest paths, count-only) wrappers and restores the originals on
exit.  Nothing under ``src/`` changes: the wrappers sit on the classes the
public API builds.

Spans (coarse boundaries, one span per call):

========================  ===============================================
span                      wrapped entry point
========================  ===============================================
``cell``                  ``GridMiddleware.run`` (opens a new cell id)
``engine``                ``Environment.run``
``agent``                 ``Agent.schedule`` (heuristic scoring inside)
``monitor``               ``Agent.receive_load_report``
``server.submit``         ``ComputeServer.submit``
``fluid.truth``           ``ComputeServer._advance`` / ``_refresh_cpu_capacity``
``htm.predict``           ``HistoricalTraceManager.predict``
``htm.whatif``            ``FluidNetwork.run_to_completion`` under ``predict``
``htm.sync``              ``HistoricalTraceManager.commit`` / ``notify_*`` /
                          ``clear_server``
``store.put`` / ``.get``  ``CampaignStore.put`` / ``CampaignStore.get``
========================  ===============================================

Counted only (a span per call would dominate what it measures):
``Environment.step`` and ``FluidNetwork.advance_to``, the latter split into
what-if advances (under ``predict``) and ground-truth advances (outside any
HTM span).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Tuple

from repro.core.htm import HistoricalTraceManager
from repro.platform.agent import Agent
from repro.platform.middleware import GridMiddleware
from repro.platform.server import ComputeServer
from repro.simulation.engine import Environment
from repro.simulation.fluid import FluidNetwork
from repro.store.cache import CampaignStore

from .spans import SpanRecorder

__all__ = ["Counts", "instrument", "LAYER_SPANS"]

#: Which spans' self time makes up each reported layer.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "engine": ("engine",),
    "fluid_truth": ("fluid.truth", "server.submit"),
    "monitor": ("monitor",),
    "agent": ("agent",),
    "htm_predict": ("htm.predict", "htm.whatif"),
    "htm_sync": ("htm.sync",),
    "store": ("store.put", "store.get"),
    "middleware": ("cell",),
    "campaign": ("campaign",),
}


class Counts:
    """Plain-int counters bumped by the count-only wrappers."""

    def __init__(self) -> None:
        self.engine_events = 0
        self.truth_advances = 0
        self.whatif_advances = 0
        self.whatif_runs = 0
        self.whatif_tasks = 0
        self.store_hits = 0
        #: Nesting depth of HTM predict / write-path spans.
        self.in_predict = 0
        self.in_sync = 0


def _patch(patches: List[Tuple[type, str, object]], owner: type, name: str, value) -> None:
    patches.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, value)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, counts: Counts) -> Iterator[None]:
    """Install every wrapper for the duration of the ``with`` block."""
    patches: List[Tuple[type, str, object]] = []
    rec = recorder
    try:
        # ---- campaign cells ------------------------------------------------
        middleware_run = GridMiddleware.run

        def cell_run(self, *args, **kwargs):
            rec.cell += 1
            index = rec.open("cell")
            try:
                return middleware_run(self, *args, **kwargs)
            finally:
                rec.close(index)

        _patch(patches, GridMiddleware, "run", cell_run)

        # ---- DES engine ----------------------------------------------------
        _patch(patches, Environment, "run", rec.wrap("engine", Environment.run))
        env_step = Environment.step

        def step(self):
            counts.engine_events += 1
            return env_step(self)

        _patch(patches, Environment, "step", step)

        # ---- agent, heuristics and the monitor bus -------------------------
        _patch(patches, Agent, "schedule", rec.wrap("agent", Agent.schedule))
        _patch(
            patches, Agent, "receive_load_report",
            rec.wrap("monitor", Agent.receive_load_report),
        )

        # ---- ground-truth servers ------------------------------------------
        _patch(patches, ComputeServer, "submit", rec.wrap("server.submit", ComputeServer.submit))
        for name in ("_advance", "_refresh_cpu_capacity"):
            _patch(patches, ComputeServer, name, rec.wrap("fluid.truth", ComputeServer.__dict__[name]))

        # ---- HTM read path -------------------------------------------------
        htm_predict = HistoricalTraceManager.predict

        def predict(self, *args, **kwargs):
            counts.in_predict += 1
            index = rec.open("htm.predict")
            try:
                return htm_predict(self, *args, **kwargs)
            finally:
                rec.close(index)
                counts.in_predict -= 1

        _patch(patches, HistoricalTraceManager, "predict", predict)

        # ---- HTM write path ------------------------------------------------
        for name in ("commit", "notify_completion", "notify_failure", "clear_server"):
            original = HistoricalTraceManager.__dict__[name]

            def sync(self, *args, _original=original, **kwargs):
                counts.in_sync += 1
                index = rec.open("htm.sync")
                try:
                    return _original(self, *args, **kwargs)
                finally:
                    rec.close(index)
                    counts.in_sync -= 1

            _patch(patches, HistoricalTraceManager, name, sync)

        # ---- fluid core: what-if runs spanned, advances counted ------------
        run_to_completion = FluidNetwork.run_to_completion

        def whatif(self, *args, **kwargs):
            if not counts.in_predict:
                return run_to_completion(self, *args, **kwargs)
            counts.whatif_runs += 1
            index = rec.open("htm.whatif")
            try:
                completions = run_to_completion(self, *args, **kwargs)
            finally:
                rec.close(index)
            counts.whatif_tasks += len(completions)
            return completions

        _patch(patches, FluidNetwork, "run_to_completion", whatif)
        advance_to = FluidNetwork.advance_to

        def advance(self, now):
            if counts.in_predict:
                counts.whatif_advances += 1
            elif not counts.in_sync:
                counts.truth_advances += 1
            return advance_to(self, now)

        _patch(patches, FluidNetwork, "advance_to", advance)

        # ---- campaign store --------------------------------------------------
        _patch(patches, CampaignStore, "put", rec.wrap("store.put", CampaignStore.put))
        store_get = CampaignStore.get

        def get(self, key):
            index = rec.open("store.get")
            try:
                entry = store_get(self, key)
            finally:
                rec.close(index)
            if entry is not None:
                counts.store_hits += 1
            return entry

        _patch(patches, CampaignStore, "get", get)
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
