"""Configuration-manager simulator: executes adaptation traces.

The static region of a PR system runs configuration-management software
(paper Sec. III-A) that, on every adaptation event, works out which
regions must be rewritten and streams the partial bitstreams through the
ICAP.  This module simulates that loop over a partitioned design:

* per-region *loaded content* is tracked across the whole trace (unlike
  the analytic pairwise proxy of Eq. 7, stale content persists, so a
  region revisited with unchanged content costs nothing);
* each rewrite costs the region's frame span, converted to seconds by an
  :class:`~repro.runtime.icap.IcapModel`;
* statistics (per-transition frames, totals, worst case, per-region
  rewrite counts) feed the runtime examples and the validation tests
  that compare trace behaviour against the analytic cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.result import PartitioningScheme
from .icap import CUSTOM_DMA_CONTROLLER, IcapModel


class TraceError(ValueError):
    """Raised when a trace references unknown configurations."""


@dataclass(frozen=True)
class TransitionRecord:
    """What one adaptation event cost."""

    step: int
    from_configuration: str | None
    to_configuration: str
    regions_rewritten: tuple[str, ...]
    frames: int
    seconds: float


@dataclass
class RuntimeStats:
    """Aggregates over an executed trace."""

    transitions: int = 0
    total_frames: int = 0
    total_seconds: float = 0.0
    worst_frames: int = 0
    worst_seconds: float = 0.0
    rewrites_by_region: dict[str, int] = field(default_factory=dict)

    def record(self, rec: TransitionRecord) -> None:
        self.transitions += 1
        self.total_frames += rec.frames
        self.total_seconds += rec.seconds
        if rec.frames > self.worst_frames:
            self.worst_frames = rec.frames
        if rec.seconds > self.worst_seconds:
            self.worst_seconds = rec.seconds
        for name in rec.regions_rewritten:
            self.rewrites_by_region[name] = self.rewrites_by_region.get(name, 0) + 1

    @property
    def mean_frames(self) -> float:
        return self.total_frames / self.transitions if self.transitions else 0.0


class ConfigurationManager:
    """Replays configuration requests against a partitioned design.

    The manager owns the per-region loaded state.  ``goto`` performs one
    adaptation: every region whose required content differs from what is
    loaded is rewritten (a region not used by the target keeps its stale
    content -- rewriting it would waste time, matching the LENIENT cost
    policy).  The first ``goto`` after construction models the initial
    full configuration: by default it is *not* charged (the full
    bitstream loads at power-up), controllable via ``charge_initial``.
    """

    def __init__(
        self,
        scheme: PartitioningScheme,
        icap: IcapModel = CUSTOM_DMA_CONTROLLER,
        charge_initial: bool = False,
    ):
        self._scheme = scheme
        self._icap = icap
        self._charge_initial = charge_initial
        self._loaded: list[str | None] = [None] * len(scheme.regions)
        self._current: str | None = None
        self._step = 0
        self.stats = RuntimeStats()
        self.history: list[TransitionRecord] = []
        self._config_names = {c.name for c in scheme.design.configurations}

    # ------------------------------------------------------------------
    @property
    def current_configuration(self) -> str | None:
        return self._current

    @property
    def loaded_contents(self) -> tuple[str | None, ...]:
        """Per-region loaded partition labels (None = never configured)."""
        return tuple(self._loaded)

    # ------------------------------------------------------------------
    def goto(self, configuration_name: str) -> TransitionRecord:
        """Adapt to a configuration, rewriting regions as needed."""
        if configuration_name not in self._config_names:
            raise TraceError(f"unknown configuration {configuration_name!r}")
        required = self._scheme.activity(configuration_name)
        rewritten: list[str] = []
        frames = 0
        initial = self._current is None
        for idx, (region, need) in enumerate(
            zip(self._scheme.regions, required)
        ):
            if need is None:
                continue  # stale content is fine; the target ignores it
            if self._loaded[idx] == need:
                continue
            self._loaded[idx] = need
            if initial and not self._charge_initial:
                continue
            rewritten.append(region.name)
            frames += region.frames

        seconds = sum(
            self._icap.time_for_frames(
                next(r.frames for r in self._scheme.regions if r.name == name)
            )
            for name in rewritten
        )
        record = TransitionRecord(
            step=self._step,
            from_configuration=self._current,
            to_configuration=configuration_name,
            regions_rewritten=tuple(rewritten),
            frames=frames,
            seconds=seconds,
        )
        self._step += 1
        if not initial or self._charge_initial:
            self.stats.record(record)
        self.history.append(record)
        self._current = configuration_name
        return record

    def run(self, trace: Iterable[str]) -> RuntimeStats:
        """Execute a whole trace of configuration names."""
        for name in trace:
            self.goto(name)
        return self.stats


def replay(
    scheme: PartitioningScheme,
    trace: Sequence[str],
    icap: IcapModel = CUSTOM_DMA_CONTROLLER,
) -> RuntimeStats:
    """One-shot trace execution (fresh manager)."""
    return ConfigurationManager(scheme, icap=icap).run(trace)


def compare_schemes_on_trace(
    schemes: Iterable[PartitioningScheme],
    trace: Sequence[str],
    icap: IcapModel = CUSTOM_DMA_CONTROLLER,
) -> dict[str, RuntimeStats]:
    """Replay the same trace over several schemes."""
    return {s.strategy: replay(s, trace, icap) for s in schemes}
