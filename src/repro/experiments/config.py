"""Experiment configuration.

The paper's evaluation (Section 5) fixes a handful of protocol parameters
that this module centralises:

* 500-task metatasks;
* two Poisson arrival rates per experiment set.  The scanned PDF does not
  show the numeric means; they are inferred here (see EXPERIMENTS.md) from
  the published makespans — roughly ``500 × 20 s ≈ 10 000 s`` for the "low
  rate" tables (5 and 7) and ``500 × 15 s ≈ 7 600 s`` for the "high rate"
  tables (6 and 8) — and from the stability limit of the aggregate service
  capacity of each server set;
* the heuristics compared: NetSolve's MCT and the three HTM heuristics.

:class:`ExperimentScale` lets tests and the quickstart run the very same
experiments at a fraction of the size.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from ..platform.middleware import MiddlewareConfig

__all__ = [
    "TASKS_PER_METATASK",
    "LOW_RATE_MEAN_S",
    "HIGH_RATE_MEAN_S",
    "PAPER_HEURISTIC_ORDER",
    "ExperimentScale",
    "ExperimentConfig",
    "FULL_SCALE",
    "SMOKE_SCALE",
    "BENCH_SCALE",
    "SCALES",
    "config_field",
    "field_roles",
    "number_determining_fields",
    "execution_only_fields",
]

#: Number of tasks per metatask in the paper's experiments.
TASKS_PER_METATASK = 500

#: Mean inter-arrival time of the "low rate" experiments (Tables 5 and 7).
LOW_RATE_MEAN_S = 20.0

#: Mean inter-arrival time of the "high rate" experiments (Tables 6 and 8).
HIGH_RATE_MEAN_S = 15.0

#: Column order used by every reproduced table.
PAPER_HEURISTIC_ORDER: Tuple[str, ...] = ("mct", "hmct", "mp", "msf")


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs of an experiment (full paper scale vs. quick smoke runs)."""

    name: str
    #: Number of tasks per metatask.
    task_count: int = TASKS_PER_METATASK
    #: Number of distinct metatasks (second experiment set uses 3).
    metatask_count: int = 3
    #: Number of repeated executions per (metatask, heuristic) pair.
    repetitions: int = 1

    def scaled(self, factor: float) -> "ExperimentScale":
        """Return a scale with the task count multiplied by ``factor``."""
        return replace(self, task_count=max(1, int(self.task_count * factor)))


#: The paper's scale: 500-task metatasks.
FULL_SCALE = ExperimentScale(name="full", task_count=TASKS_PER_METATASK, metatask_count=3, repetitions=1)

#: A fast scale for unit/integration tests (seconds, not minutes).
SMOKE_SCALE = ExperimentScale(name="smoke", task_count=60, metatask_count=2, repetitions=1)

#: A middle scale between fidelity and wall-clock time (``--scale bench`` and
#: :mod:`repro.api`).
BENCH_SCALE = ExperimentScale(name="bench", task_count=200, metatask_count=2, repetitions=1)

#: Named scales, as accepted by the CLI's ``--scale`` and ``repro.api``.
SCALES = {"full": FULL_SCALE, "smoke": SMOKE_SCALE, "bench": BENCH_SCALE}


def config_field(
    *,
    number_determining: bool,
    default: Any = MISSING,
    default_factory: Any = MISSING,
    encode: Optional[str] = None,
    group: Optional[str] = None,
    gate: bool = False,
) -> Any:
    """Declare one :class:`ExperimentConfig` field and its fingerprint role.

    This is the *declarative* form of the fingerprint contract that used to
    live in docstrings: ``number_determining=True`` fields participate in
    :func:`repro.results.config_fingerprint` (they change the numbers a run
    produces), ``False`` fields are execution-only (``--jobs``-like knobs
    that may never fragment the cell cache).  The FP-FIELD lint rule fails
    any field declared without this helper, and the fingerprint derives its
    include/exclude sets from the metadata at runtime — the two can no
    longer drift apart.

    ``encode`` names the canonical JSON encoding of the field's value
    (``"asdict"`` for nested dataclasses, ``"list"`` for tuples).  ``group``
    nests the field under a sub-mapping of the fingerprint payload, and
    ``gate=True`` marks the field whose non-``None`` value switches that
    whole group on (the sequential-stopping knobs only count once armed, so
    fixed-repetition fingerprints stay byte-identical across versions).
    """
    metadata: Dict[str, Any] = {"number_determining": bool(number_determining)}
    if encode is not None:
        metadata["fingerprint_encode"] = encode
    if group is not None:
        metadata["fingerprint_group"] = group
    if gate:
        metadata["fingerprint_gate"] = True
    kwargs: Dict[str, Any] = {"metadata": metadata}
    if default is not MISSING:
        kwargs["default"] = default
    if default_factory is not MISSING:
        kwargs["default_factory"] = default_factory
    return field(**kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one of the paper's experiments.

    Every field declares whether it is **number-determining** (participates
    in the configuration fingerprint records and cache cells are addressed
    by) or **execution-only** (may change how work is executed, never what
    numbers come out) via :func:`config_field` — see its docstring for the
    contract, and ``tests/store/test_fingerprint.py`` for the guard pinning
    both sides of the boundary.
    """

    scale: ExperimentScale = config_field(
        number_determining=True, default=FULL_SCALE, encode="asdict"
    )
    seed: int = config_field(number_determining=True, default=2003)
    low_rate_s: float = config_field(
        number_determining=True, default=LOW_RATE_MEAN_S
    )
    high_rate_s: float = config_field(
        number_determining=True, default=HIGH_RATE_MEAN_S
    )
    heuristics: Tuple[str, ...] = config_field(
        number_determining=True, default=PAPER_HEURISTIC_ORDER, encode="list"
    )
    reference: str = config_field(number_determining=True, default="mct")
    middleware: MiddlewareConfig = config_field(
        number_determining=True, default=MiddlewareConfig(), encode="asdict"
    )
    #: Worker processes used by the campaign engine (1 = in-process serial).
    #: Seeds derive from cell coordinates, so any value yields the same table.
    jobs: int = config_field(number_determining=False, default=1)
    #: Streaming result observers (:class:`repro.results.CampaignObserver`)
    #: attached to every campaign run with this configuration.  Execution-only
    #: — observers never influence the numbers and are excluded from the
    #: configuration fingerprint stamped on records.
    observers: Tuple = config_field(number_determining=False, default=())
    #: Campaign store (:class:`repro.store.CampaignStore`, or a directory
    #: path) consulted before simulating each cell and appended to as cells
    #: complete.  Execution-only, like ``jobs``: a store can skip work, never
    #: change numbers, so it is excluded from the configuration fingerprint —
    #: cold and warm runs stamp identical hashes.
    store: Optional[object] = config_field(number_determining=False, default=None)
    #: Sequential stopping target: when set, campaigns run repetition rounds
    #: until the relative 95% CI half-width of every (heuristic, metatask)
    #: group's ``ci_metric`` drops to this value (or ``ci_max_reps`` is hit).
    #: **Number-determining** — it changes how many cells run — so it
    #: participates in the configuration fingerprint, unlike ``jobs``; the
    #: whole ``sequential`` group only counts once armed (gate), so every
    #: pre-existing fixed-repetition fingerprint is unchanged.
    ci_target: Optional[float] = config_field(
        number_determining=True, default=None, group="sequential", gate=True
    )
    #: Record metric the stopping rule watches (a per-run metric name).
    ci_metric: str = config_field(
        number_determining=True, default="sum_flow", group="sequential"
    )
    #: Confidence level of the stopping rule's intervals.
    ci_confidence: float = config_field(
        number_determining=True, default=0.95, group="sequential"
    )
    #: Floor on repetitions before the rule may stop (t intervals over 2
    #: values are too wide to trust a stop decision on).
    ci_min_reps: int = config_field(
        number_determining=True, default=3, group="sequential"
    )
    #: Repetition budget: a non-converging campaign stops here with a note.
    ci_max_reps: int = config_field(
        number_determining=True, default=32, group="sequential"
    )

    def with_scale(self, scale: ExperimentScale) -> "ExperimentConfig":
        """Return a copy using a different scale."""
        return replace(self, scale=scale)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Return a copy using a different root seed."""
        return replace(self, seed=seed)

    def with_jobs(self, jobs: int) -> "ExperimentConfig":
        """Return a copy using a different campaign parallelism level."""
        return replace(self, jobs=jobs)

    def with_store(self, store) -> "ExperimentConfig":
        """Return a copy attached to a campaign store (or a store path)."""
        return replace(self, store=store)

    def with_ci_target(self, ci_target: Optional[float], **knobs) -> "ExperimentConfig":
        """Return a copy with a sequential stopping target (``None`` disables).

        Extra keyword arguments set the other stopping knobs, e.g.
        ``config.with_ci_target(0.05, ci_max_reps=16)``.
        """
        return replace(self, ci_target=ci_target, **knobs)

    def middleware_for(self, heuristic: str, seed_offset: int = 0) -> MiddlewareConfig:
        """Middleware configuration for a given heuristic run."""
        return replace(self.middleware, seed=self.seed + seed_offset)


def field_roles(config_class: type = ExperimentConfig) -> Dict[str, bool]:
    """``field name → number_determining`` over a config dataclass.

    The runtime face of the FP-FIELD contract: a field added without a
    :func:`config_field` declaration has no ``number_determining`` metadata
    and raises here (and in :func:`repro.results.config_fingerprint`)
    instead of silently landing on either side of the fingerprint boundary.
    """
    roles: Dict[str, bool] = {}
    for config_field_ in fields(config_class):
        try:
            roles[config_field_.name] = bool(
                config_field_.metadata["number_determining"]
            )
        except KeyError:
            raise TypeError(
                f"config field {config_field_.name!r} does not declare its "
                "fingerprint role — define it with "
                "config_field(number_determining=...)"
            ) from None
    return roles


def number_determining_fields(config_class: type = ExperimentConfig) -> Tuple[str, ...]:
    """The fields that participate in the configuration fingerprint."""
    return tuple(
        name for name, determining in field_roles(config_class).items() if determining
    )


def execution_only_fields(config_class: type = ExperimentConfig) -> Tuple[str, ...]:
    """The fields excluded from the fingerprint (may never fragment the cache)."""
    return tuple(
        name
        for name, determining in field_roles(config_class).items()
        if not determining
    )
