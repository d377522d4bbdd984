"""Declarative simulation plans — the single payload of the runtime layer.

A :class:`SimulationPlan` captures *what* to simulate (process, initial
configuration, stopping condition, repetitions) and under *which model
axes* (scheduler, adversary, faults, randomness regime, horizon)
without committing to *how* — the execution strategy is resolved by
:func:`repro.engine.runtime.resolve_backend` from the backend registry's
capability declarations and cost model.

This is what lets the asynchronous scheduler and the §5 adversaries be
first-class experiment axes: a sweep or a CLI invocation builds one plan
per measurement and the runtime picks the fastest registered backend that
can honour every axis (lock-step ensembles and fused kernels included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from ..core.configuration import Configuration
from ..processes.base import AgentProcess
from .rng import RandomSource
from .stopping import StoppingCondition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine ↔ adversary)
    from ..adversary.adversary import Adversary, AdversarySchedule
    from ..faults import FaultModel, FaultSchedule
    from .metrics import MetricRecorder

__all__ = ["SCHEDULERS", "RNG_MODES", "SimulationPlan"]

#: Supported scheduler axes: the paper's round-synchronous model and the
#: one-node-per-tick companion model from the gossip literature.
SCHEDULERS = ("synchronous", "asynchronous")

#: Randomness regimes: one shared stream ("batched", fastest) or one
#: spawned child stream per replica ("per-replica": the sequential loop
#: once per stream, whichever backend name runs it).
RNG_MODES = ("batched", "per-replica")

#: A process instance, or a zero-argument factory building one (the
#: sequential backends call the factory once per replica, so processes
#: with mutable internals stay independent across repetitions).
ProcessSource = Union[AgentProcess, Callable[[], AgentProcess]]


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to execute one (possibly repeated) measurement.

    Fields
    ------
    process:
        An :class:`~repro.processes.base.AgentProcess` or a zero-argument
        factory.  Ensemble backends share one instance across lock-step
        replicas; sequential backends build a fresh one per repetition
        when a factory is given.
    initial:
        Start configuration (shared by every replica).
    stop:
        Stopping condition; ``None`` means consensus.  Ignored by
        adversarial plans, whose stopping criterion is the §5 stable
        regime (``stable_fraction`` / ``stable_rounds``).
    repetitions:
        Number of independent replicas to measure.
    scheduler:
        ``"synchronous"`` (the paper's model) or ``"asynchronous"``
        (one uniformly random node activated per tick).
    adversary:
        ``None``, or an :class:`~repro.adversary.adversary.Adversary` /
        :class:`~repro.adversary.adversary.AdversarySchedule` for §5
        robust runs (synchronous scheduler only).
    faults:
        ``None``, or a :class:`~repro.faults.FaultModel` /
        :class:`~repro.faults.FaultSchedule` injecting crash-stop,
        crash-recovery or message-loss node faults (synchronous
        scheduler only; mutually exclusive with ``adversary``).
    rng / rng_mode:
        Seed material and the randomness regime (:data:`RNG_MODES`).
    recorder:
        Optional per-round metric recorder; supported by every
        synchronous non-adversarial backend and by the lock-step
        asynchronous ones.
    max_rounds:
        Horizon in scheduler units: rounds under ``"synchronous"``,
        *ticks* under ``"asynchronous"``.  ``None`` picks the engine's
        generous default.
    check_every:
        Stopping-check stride for asynchronous plans (default: ``n``).
    backend:
        A registered backend name, or one of the resolution aliases
        (``"auto"``, ``"sequential-auto"``, ``"ensemble-auto"``,
        ``"kernel-auto"``) — see :func:`repro.engine.runtime.resolve_backend`.
    stable_fraction / stable_rounds:
        The §5 stable-regime thresholds (adversarial plans only).
    raise_on_limit:
        Whether synchronous non-adversarial runs raise
        :class:`~repro.engine.simulator.RoundLimitExceeded` when a replica
        exhausts the horizon (asynchronous and adversarial runs always
        report instead of raising).
    """

    process: ProcessSource
    initial: Configuration
    stop: "StoppingCondition | None" = None
    repetitions: int = 1
    scheduler: str = "synchronous"
    adversary: "Adversary | AdversarySchedule | None" = None
    faults: "FaultModel | FaultSchedule | None" = None
    rng: RandomSource = None
    rng_mode: str = "batched"
    recorder: "MetricRecorder | None" = None
    max_rounds: "int | None" = None
    check_every: "int | None" = None
    backend: str = "auto"
    stable_fraction: float = 0.95
    stable_rounds: int = 3
    raise_on_limit: bool = True

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if self.check_every is not None and self.check_every < 1:
            raise ValueError("check_every must be positive")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; pick one of {SCHEDULERS}"
            )
        if self.rng_mode not in RNG_MODES:
            raise ValueError(
                f"unknown rng_mode {self.rng_mode!r}; pick one of {RNG_MODES}"
            )
        if self.adversary is not None and self.scheduler != "synchronous":
            raise ValueError(
                "adversarial plans use the synchronous scheduler (the §5 "
                "fault model corrupts after each synchronous round)"
            )
        if self.faults is not None:
            if self.scheduler != "synchronous":
                raise ValueError(
                    "fault injection is defined on the synchronous round "
                    "model (crash/loss masks gate each synchronous update)"
                )
            if self.adversary is not None:
                raise ValueError(
                    "faults and adversary are mutually exclusive plan axes; "
                    "run them in separate plans"
                )
            from ..faults import as_fault_schedule

            as_fault_schedule(self.faults)  # type-check eagerly
        if not 0.5 < self.stable_fraction <= 1.0:
            raise ValueError("stable_fraction must lie in (0.5, 1]")
        if self.stable_rounds < 1:
            raise ValueError("stable_rounds must be positive")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")

    def spawn_process(self) -> AgentProcess:
        """A process instance for one replica (fresh when given a factory)."""
        if isinstance(self.process, AgentProcess):
            return self.process
        return self.process()

    def schedule(self) -> "AdversarySchedule":
        """The plan's adversary normalised to an :class:`AdversarySchedule`."""
        from ..adversary.adversary import AdversarySchedule

        if self.adversary is None:
            raise ValueError("plan has no adversary")
        if isinstance(self.adversary, AdversarySchedule):
            return self.adversary
        return AdversarySchedule(self.adversary)

    def fault_schedule(self) -> "FaultSchedule | None":
        """The plan's ``faults`` axis normalised to a live schedule.

        Trivial schedules (all rates zero) collapse to ``None`` so the
        engines take the exact fault-free path — the rate-0 bit-for-bit
        contract.
        """
        from ..faults import as_fault_schedule

        return as_fault_schedule(self.faults)

    def describe(self) -> str:
        """A short human-readable summary (used in resolution errors)."""
        axes = [
            f"scheduler={self.scheduler}",
            f"repetitions={self.repetitions}",
            f"rng_mode={self.rng_mode}",
        ]
        if self.adversary is not None:
            axes.append(f"adversary={self.adversary!r}")
        if self.faults is not None:
            axes.append(f"faults={self.faults!r}")
        if self.recorder is not None:
            axes.append("recorder=yes")
        return ", ".join(axes)
