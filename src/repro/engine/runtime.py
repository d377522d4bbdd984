"""Unified execution runtime: a backend registry behind every engine.

The execution paths (sequential runs, lock-step ensembles, fused
kernels, the asynchronous scheduler, the §5 adversary runners) sit
behind one layer instead of string-prefix parsing duplicated across the
batch helpers, the sweep harness and the CLI:

* a :class:`SimulationPlan` (see :mod:`repro.engine.plan`) declares the
  measurement and its model axes;
* every execution strategy is a :class:`Backend` registered with a
  :class:`BackendSpec` declaring its capabilities (scheduler kind,
  adversary support, count-chain tractability requirement) and a cost
  model;
* :func:`resolve_backend` picks the cheapest registered backend whose
  capabilities cover the plan — ``"auto"`` is an explicit, testable cost
  decision instead of a hand-rolled ``startswith`` chain;
* :func:`execute` runs the plan and returns a uniform
  :class:`ExecutionResult` (per-replica first-passage times, stop masks,
  final counts, plus the family's raw result object).

Every backend runs in the calling process, and the study layer above
runs its cells one after another
(:class:`repro.study.scheduler.CellScheduler`).  Cells are seeded from
their index, never from execution order.

Each family has one per-replica loop.  ``rng_mode="per-replica"``
plans, and batched plans of processes without a vectorized
``update_ensemble``, run the sequential engine once per spawned stream
(:func:`~repro.engine.ensemble.run_replicas`,
:func:`~repro.adversary.robust_runner.run_with_adversary_replicas`)
under whichever backend name resolved; the lock-step ensembles and the
kernels advance batched plans only.  So per-replica samples are the same
on every name by construction, and a per-replica run holds one
replica's state at a time.

Writing a new backend
---------------------

A backend is any object with a ``spec``, ``supports``/``eligible``,
``cost`` and ``execute`` — duck-typed against the :class:`Backend`
protocol::

    class MyBackend:
        spec = BackendSpec(
            name="my-backend",
            kind="ensemble",
            scheduler="synchronous",
            adversary=False,
            representation="agent",
            requires_counts_tractable=False,
            description="my strategy",
        )

        def supports(self, plan):          # can it run this plan at all?
            return plan.scheduler == "synchronous" and plan.adversary is None

        def eligible(self, plan):          # may "auto" pick it?
            return self.supports(plan)

        def cost(self, plan):              # estimated element-ops, lower wins
            return plan.repetitions * plan.initial.num_nodes

        def execute(self, plan):
            ...
            return ExecutionResult(plan=plan, backend=self.spec.name, ...)

    register_backend(MyBackend())

After registration the backend is resolvable by name everywhere a plan is
executed (``repeat_first_passage``, ``run_study`` and every front door
over it, the CLI — whose ``--backend`` choices are derived from this
registry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..processes.base import ACAgentProcess
from .asynchronous import (
    AsyncEnsembleResult,
    _default_tick_limit,
    run_asynchronous,
    run_asynchronous_ensemble,
)
from .ensemble import _stack_counts, run_ensemble, run_replicas
from .kernels import (
    async_kernel_eligible,
    kernel_eligible,
    run_fused_agent_ensemble,
    run_fused_asynchronous_ensemble,
)
from .plan import SimulationPlan
from .rng import per_replica_generators
from .simulator import _counts_tractable, default_round_limit

__all__ = [
    "Backend",
    "BackendSpec",
    "ExecutionResult",
    "backend_choices",
    "backend_names",
    "backend_specs",
    "degradation_ladder",
    "execute",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

#: Default horizon of the §5 robust runner (kept in sync with
#: :func:`repro.adversary.robust_runner.run_with_adversary`).
_ADVERSARY_DEFAULT_HORIZON = 50_000

# ---------------------------------------------------------------------------
# Cost model.
#
# Costs are crude *relative* estimates in "array elements touched over the
# whole run" — they only need to rank strategies, not predict wall time.
# The constants encode the measured regimes of BENCH_engine.json: python
# dispatch overhead per interpreter round (what the lock-step ensembles
# amortise) and the multinomial-vs-gather per-element gap (why the counts
# chain wins at small k).

#: Interpreter overhead of one per-replica python round, in element units.
_SEQ_OVERHEAD = 400.0
#: Interpreter overhead of one vectorized whole-ensemble round.
_ROUND_OVERHEAD = 400.0
#: A count-chain element costs ~a quarter of an agent-gather element.
_COUNTS_FACTOR = 0.25
#: A fused-kernel counts element: the switch-and-redistribute chain draws
#: a binomial alongside the multinomial, so it sits slightly above the
#: plain count chain — AC-processes keep resolving to ``ensemble-counts``
#: and the kernel wins exactly where it is the only counts-shaped option.
_KERNEL_FACTOR = 0.35
#: Discount on an ensemble backend's replica-by-replica runs.  They run
#: the same loop as the sequential backend; the discount only keeps
#: per-replica plans resolving to the ensemble names existing stores
#: recorded.
_ENSEMBLE_LOOP_FACTOR = 0.9


def _sync_horizon(plan: SimulationPlan) -> float:
    """Expected synchronous rounds actually executed (for amortisation).

    Calibrated against measured first-passage round counts rather than
    worst-case limits: consensus-type runs finish in ``O(log n)`` rounds
    with a width-driven ``√k`` term for many-color starts (≈16 rounds at
    ``n = 10⁴, k = 2``; ≈21 at ``n = 2048, k = 8``; ≈110 at
    ``k = 1024``).  The previous ``6√n + 48`` overestimated these by
    6–40×, which inflated every synchronous cost uniformly.
    """
    n = plan.initial.num_nodes
    k = plan.initial.num_slots
    if plan.adversary is not None:
        limit = plan.max_rounds or _ADVERSARY_DEFAULT_HORIZON
    else:
        limit = plan.max_rounds if plan.max_rounds is not None else default_round_limit(n)
    return float(min(limit, 2.0 * np.log(n) + 3.0 * np.sqrt(k) + 8.0))


def _async_horizon(plan: SimulationPlan) -> float:
    """Expected asynchronous ticks actually executed."""
    n = plan.initial.num_nodes
    limit = plan.max_rounds if plan.max_rounds is not None else _default_tick_limit(n)
    return float(min(limit, n * (6.0 * np.sqrt(n) + 48.0)))


# ---------------------------------------------------------------------------
# Spec, protocol, result.


@dataclass(frozen=True)
class BackendSpec:
    """Declared capabilities of one registered execution strategy."""

    #: Registry key (also the user-facing ``backend=`` name).
    name: str
    #: Execution family: ``"sequential"`` | ``"ensemble"`` | ``"kernel"``.
    kind: str
    #: Scheduler this backend implements (one of :data:`~repro.engine.plan.SCHEDULERS`).
    scheduler: str
    #: True when the backend runs §5 adversarial plans (and only those).
    adversary: bool
    #: State representation: ``"agent"`` or ``"counts"``.
    representation: str
    #: True when ``auto`` must additionally verify count-chain tractability.
    requires_counts_tractable: bool
    #: One-line summary (surfaced by the CLI and the ROADMAP table).
    description: str
    #: True when the backend honours the plan's ``faults=`` axis
    #: (crash/recovery/message-loss injection).
    faults: bool = False


class Backend(Protocol):
    """The protocol every registered execution strategy implements."""

    spec: BackendSpec

    def supports(self, plan: SimulationPlan) -> bool:
        """Whether this backend can execute ``plan`` at all."""

    def eligible(self, plan: SimulationPlan) -> bool:
        """Whether cost-based resolution may pick this backend for ``plan``."""

    def cost(self, plan: SimulationPlan) -> float:
        """Relative cost estimate (element-ops); lower wins resolution."""

    def execute(self, plan: SimulationPlan) -> "ExecutionResult":
        """Run the plan and return its uniform result."""


@dataclass
class ExecutionResult:
    """Uniform outcome of :func:`execute`, whatever the backend family.

    ``times`` holds the per-replica first-passage measurement in
    ``unit`` — synchronous rounds, asynchronous ticks, or rounds-to-
    stabilisation for adversarial plans; ``stopped`` whether the plan's
    criterion fired (stopping condition, or the §5 stable regime).
    ``raw`` keeps the family's full result object
    (:class:`~repro.engine.ensemble.EnsembleResult`,
    :class:`~repro.engine.asynchronous.AsyncEnsembleResult`, or
    :class:`~repro.adversary.robust_runner.RobustEnsembleResult`) for
    consumers that need more than the first-passage view.
    """

    plan: SimulationPlan
    backend: str
    unit: str
    times: np.ndarray
    stopped: np.ndarray
    final_counts: "np.ndarray | None"
    raw: object = field(repr=False, default=None)

    @property
    def repetitions(self) -> int:
        return int(self.times.size)

    @property
    def all_stopped(self) -> bool:
        return bool(np.all(self.stopped))


# ---------------------------------------------------------------------------
# Registry.

_REGISTRY: "dict[str, Backend]" = {}

#: Resolution aliases: family-restricted cost-model picks.  ``None``
#: means "any family" (the fully automatic decision).
_ALIAS_FAMILIES = {
    "auto": None,
    "sequential-auto": "sequential",
    "ensemble-auto": "ensemble",
    "kernel-auto": "kernel",
}


def register_backend(backend: Backend, replace_existing: bool = False) -> Backend:
    """Add a backend to the registry under ``backend.spec.name``."""
    name = backend.spec.name
    if name in _ALIAS_FAMILIES:
        raise ValueError(f"{name!r} is a reserved resolution alias")
    if name in _REGISTRY and not replace_existing:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look a backend up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {', '.join(_REGISTRY)}; "
            f"aliases: {', '.join(_ALIAS_FAMILIES)}"
        ) from None


def backend_names() -> "tuple[str, ...]":
    """Registered backend names, in registration (preference) order."""
    return tuple(_REGISTRY)


def backend_specs() -> "tuple[BackendSpec, ...]":
    """The capability declarations of every registered backend."""
    return tuple(backend.spec for backend in _REGISTRY.values())


def backend_choices() -> "tuple[str, ...]":
    """Every name a plan's ``backend`` field accepts (registry + aliases)."""
    return tuple(_ALIAS_FAMILIES) + tuple(_REGISTRY)


def resolve_backend(plan: SimulationPlan) -> Backend:
    """The explicit backend decision: capabilities filter, cost ranks.

    A concrete registry name must support the plan or resolution raises
    with the mismatch; an alias picks the cheapest eligible backend of
    its family (``"auto"`` across all families).
    """
    name = plan.backend
    if name not in _ALIAS_FAMILIES:
        backend = get_backend(name)
        if not backend.supports(plan):
            raise backend.rejection(plan)
        return backend
    family = _ALIAS_FAMILIES[name]
    candidates = [
        backend
        for backend in _REGISTRY.values()
        if (family is None or backend.spec.kind == family)
        and backend.eligible(plan)
    ]
    if not candidates:
        raise ValueError(
            f"no registered backend can execute this plan via {name!r} "
            f"({plan.describe()}); registered: {', '.join(_REGISTRY)}"
        )
    costs = [backend.cost(plan) for backend in candidates]
    return candidates[int(np.argmin(costs))]


def execute(plan: SimulationPlan) -> ExecutionResult:
    """Resolve the plan's backend and run it."""
    return resolve_backend(plan).execute(plan)


#: The sequential backend each ensemble or kernel backend degrades to
#: when the vectorized path keeps failing (e.g. it OOMs).
_SEQUENTIAL_FALLBACKS = {
    "ensemble-agent": "agent",
    "ensemble-counts": "counts",
    "ensemble-async": "async",
    "ensemble-adversary-agent": "adversary",
    "ensemble-adversary-counts": "adversary",
    "kernel-agent": "agent",
    "kernel-async": "async",
}


def degradation_ladder(name: str) -> "tuple[str, ...]":
    """Backends to fall back to when ``name`` keeps failing transiently.

    The capability ladder runs ``ensemble-* → sequential`` and
    ``kernel-* → sequential``: the vectorized path drops to the
    one-replica-at-a-time sequential engine.  Sequential backends have
    nothing below them — the ladder is empty — and an unknown name
    degrades nowhere rather than raising (degradation is best-effort by
    definition).
    """
    sequential = _SEQUENTIAL_FALLBACKS.get(name)
    return (sequential,) if sequential else ()


# ---------------------------------------------------------------------------
# Backend implementations.


class _BackendBase:
    """Shared plumbing: spec storage, default eligibility, rejections."""

    def __init__(self, spec: BackendSpec):
        self.spec = spec

    def _faults_supported(self, plan: SimulationPlan) -> bool:
        """Capability gate for the plan's ``faults=`` axis."""
        if plan.faults is None:
            return True
        if not self.spec.faults:
            return False
        if self.spec.representation == "counts":
            schedule = plan.fault_schedule()
            if schedule is not None and not schedule.supports_counts:
                return False
        return True

    def eligible(self, plan: SimulationPlan) -> bool:
        if not self.supports(plan):
            return False
        if not self.spec.requires_counts_tractable:
            return True
        process = plan.spawn_process()
        if self.spec.adversary:
            from ..adversary.robust_runner import _counts_chain_tractable

            return _counts_chain_tractable(
                process, plan.initial, plan.schedule().adversary
            )
        return _counts_tractable(process, plan.initial)

    def rejection(self, plan: SimulationPlan) -> Exception:
        """The error raised when this backend is named but unsupported."""
        spec = self.spec
        if spec.representation == "counts" and not isinstance(
            plan.spawn_process(), ACAgentProcess
        ):
            return TypeError(
                f"backend {spec.name!r} needs an AC-process; "
                f"{plan.spawn_process().name} is not one"
            )
        wants = "adversarial" if spec.adversary else "non-adversarial"
        return ValueError(
            f"backend {spec.name!r} ({spec.scheduler}, {wants}) cannot "
            f"execute this plan ({plan.describe()}); pick one of "
            f"{', '.join(backend_choices())}"
        )

    def __repr__(self) -> str:
        return f"<backend {self.spec.name!r}: {self.spec.description}>"


class SyncBackend(_BackendBase):
    """Synchronous rounds: ``agent``/``counts`` and their ``ensemble-*`` twins.

    Sequential names run :func:`repro.engine.ensemble.run_replicas`: the
    sequential loop once per replica, each on its own spawned stream,
    fresh process instances from factories.  Ensemble names advance
    batched plans of vectorizable processes lock-step
    (:func:`repro.engine.ensemble.run_ensemble`); every other plan they
    get runs through the same :func:`run_replicas` loop, so per-replica
    samples are the same on every name by construction.
    """

    def supports(self, plan: SimulationPlan) -> bool:
        if plan.scheduler != "synchronous" or plan.adversary is not None:
            return False
        if not self._faults_supported(plan):
            return False
        if self.spec.representation == "counts":
            return isinstance(plan.spawn_process(), ACAgentProcess)
        return True

    def cost(self, plan: SimulationPlan) -> float:
        process = plan.spawn_process()
        if self.spec.representation == "counts":
            per = _COUNTS_FACTOR * plan.initial.num_slots
            batched = plan.rng_mode == "batched"
        else:
            per = float(plan.initial.num_nodes)
            batched = plan.rng_mode == "batched" and process.has_vectorized_ensemble
        if self.spec.kind == "sequential":
            per_round = plan.repetitions * (per + _SEQ_OVERHEAD)
        elif batched:
            per_round = plan.repetitions * per + _ROUND_OVERHEAD
        else:
            per_round = (
                plan.repetitions * (per + _SEQ_OVERHEAD) * _ENSEMBLE_LOOP_FACTOR
            )
        return per_round * _sync_horizon(plan)

    def execute(self, plan: SimulationPlan) -> ExecutionResult:
        common = dict(
            rng=plan.rng,
            stop=plan.stop,
            max_rounds=plan.max_rounds,
            backend=self.spec.representation,
            raise_on_limit=plan.raise_on_limit,
            recorder=plan.recorder,
            faults=plan.faults,
        )
        if self.spec.kind == "sequential":
            result = run_replicas(
                plan.spawn_process, plan.initial, plan.repetitions, **common
            )
        else:
            result = run_ensemble(
                plan.spawn_process(), plan.initial, plan.repetitions,
                rng_mode=plan.rng_mode, **common,
            )
        return ExecutionResult(
            plan=plan,
            backend=self.spec.name,
            unit="rounds",
            times=result.times,
            stopped=result.stopped,
            final_counts=result.final_counts,
            raw=result,
        )


class AsyncSequentialBackend(_BackendBase):
    """One :func:`run_asynchronous` per replica — the async reference path."""

    def supports(self, plan: SimulationPlan) -> bool:
        return (
            plan.scheduler == "asynchronous"
            and plan.adversary is None
            and plan.recorder is None
        )

    def cost(self, plan: SimulationPlan) -> float:
        process = plan.spawn_process()
        per = (
            float(process.samples_per_round)
            if process.has_sample_update
            else float(plan.initial.num_nodes)
        )
        return plan.repetitions * (per + _SEQ_OVERHEAD) * _async_horizon(plan)

    def execute(self, plan: SimulationPlan) -> ExecutionResult:
        generators = per_replica_generators(plan.rng, plan.repetitions)
        ticks = np.empty(plan.repetitions, dtype=np.int64)
        stopped = np.zeros(plan.repetitions, dtype=bool)
        finals = []
        name = plan.spawn_process().name
        for index, generator in enumerate(generators):
            result = run_asynchronous(
                plan.spawn_process(),
                plan.initial,
                rng=generator,
                stop=plan.stop,
                max_ticks=plan.max_rounds,
                check_every=plan.check_every,
            )
            ticks[index] = result.ticks
            stopped[index] = result.stopped
            finals.append(result.final.counts_array())
        final_counts = _stack_counts(finals)
        raw = AsyncEnsembleResult(
            process_name=name,
            num_nodes=plan.initial.num_nodes,
            ticks=ticks,
            stopped=stopped,
            final_counts=final_counts,
            stop_label=plan.stop.label if plan.stop is not None else "consensus",
        )
        return ExecutionResult(
            plan=plan,
            backend=self.spec.name,
            unit="ticks",
            times=ticks,
            stopped=stopped,
            final_counts=final_counts,
            raw=raw,
        )


class AsyncEnsembleBackend(_BackendBase):
    """Lock-step async replicas (:func:`run_asynchronous_ensemble`)."""

    def supports(self, plan: SimulationPlan) -> bool:
        return (
            plan.scheduler == "asynchronous"
            and plan.adversary is None
            and plan.rng_mode == "batched"
        )

    def cost(self, plan: SimulationPlan) -> float:
        process = plan.spawn_process()
        if process.has_sample_update:
            per_tick = 4.0 * plan.repetitions + 8.0
        else:
            per_tick = plan.repetitions * (
                plan.initial.num_nodes + _SEQ_OVERHEAD
            )
        return per_tick * _async_horizon(plan)

    def execute(self, plan: SimulationPlan) -> ExecutionResult:
        result = run_asynchronous_ensemble(
            plan.spawn_process(),
            plan.initial,
            plan.repetitions,
            rng=plan.rng,
            stop=plan.stop,
            max_ticks=plan.max_rounds,
            check_every=plan.check_every,
            recorder=plan.recorder,
        )
        return ExecutionResult(
            plan=plan,
            backend=self.spec.name,
            unit="ticks",
            times=result.ticks,
            stopped=result.stopped,
            final_counts=result.final_counts,
            raw=result,
        )


class KernelSyncBackend(_BackendBase):
    """The fused agent kernel (:mod:`repro.engine.kernels.sync`).

    Runs the agent-level ensemble as its exact switch-and-redistribute
    counts lumping — identical in distribution to ``ensemble-agent`` at
    the counts chain's per-round cost.  Batched-only by construction: the
    lumping reorders stream consumption, so ``"per-replica"`` plans stay
    on the bit-for-bit engines.
    """

    def supports(self, plan: SimulationPlan) -> bool:
        return (
            plan.scheduler == "synchronous"
            and plan.adversary is None
            and plan.faults is None
            and plan.rng_mode == "batched"
            and kernel_eligible(plan.spawn_process(), plan.initial)
        )

    def cost(self, plan: SimulationPlan) -> float:
        per_round = (
            plan.repetitions * _KERNEL_FACTOR * plan.initial.num_slots
            + _ROUND_OVERHEAD
        )
        return per_round * _sync_horizon(plan)

    def rejection(self, plan: SimulationPlan) -> Exception:
        process = plan.spawn_process()
        if not kernel_eligible(process, plan.initial):
            return TypeError(
                f"backend 'kernel-agent' needs a switch-and-redistribute "
                f"kernel form (AgentProcess.kernel_switch_law); "
                f"{process.name} does not declare one for this configuration"
            )
        if plan.rng_mode != "batched":
            return ValueError(
                "backend 'kernel-agent' is batched-only: the lumped chain "
                "reorders stream consumption, so per-replica exact streams "
                "run on the agent/counts engines"
            )
        return super().rejection(plan)

    def execute(self, plan: SimulationPlan) -> ExecutionResult:
        result = run_fused_agent_ensemble(
            plan.spawn_process(),
            plan.initial,
            plan.repetitions,
            rng=plan.rng,
            stop=plan.stop,
            max_rounds=plan.max_rounds,
            rng_mode=plan.rng_mode,
            raise_on_limit=plan.raise_on_limit,
            recorder=plan.recorder,
        )
        return ExecutionResult(
            plan=plan,
            backend=self.spec.name,
            unit="rounds",
            times=result.times,
            stopped=result.stopped,
            final_counts=result.final_counts,
            raw=result,
        )


class KernelAsyncBackend(_BackendBase):
    """The wavefront async kernel (:mod:`repro.engine.kernels.asynchronous`).

    Same semantics as ``ensemble-async`` — bit-for-bit for processes whose
    sample rule draws no extra randomness — with the per-tick Python loop
    replaced by conflict-free wavefront batches.
    """

    def supports(self, plan: SimulationPlan) -> bool:
        return (
            plan.scheduler == "asynchronous"
            and plan.adversary is None
            and plan.rng_mode == "batched"
            and async_kernel_eligible(plan.spawn_process())
        )

    def cost(self, plan: SimulationPlan) -> float:
        # Measured ~2× under ensemble-async's 4R+8 per-tick slope: the
        # wavefront amortises the tick loop but pays scatter bookkeeping.
        per_tick = 2.0 * plan.repetitions + 8.0
        return per_tick * _async_horizon(plan)

    def rejection(self, plan: SimulationPlan) -> Exception:
        process = plan.spawn_process()
        if not async_kernel_eligible(process):
            return TypeError(
                f"backend 'kernel-async' needs a pure per-sample rule "
                f"(AgentProcess.update_from_samples); {process.name} does "
                "not expose one"
            )
        return super().rejection(plan)

    def execute(self, plan: SimulationPlan) -> ExecutionResult:
        result = run_fused_asynchronous_ensemble(
            plan.spawn_process(),
            plan.initial,
            plan.repetitions,
            rng=plan.rng,
            stop=plan.stop,
            max_ticks=plan.max_rounds,
            check_every=plan.check_every,
            recorder=plan.recorder,
        )
        return ExecutionResult(
            plan=plan,
            backend=self.spec.name,
            unit="ticks",
            times=result.ticks,
            stopped=result.stopped,
            final_counts=result.final_counts,
            raw=result,
        )


class AdversaryBackend(_BackendBase):
    """§5 robust runs: ``adversary`` and the ``ensemble-adversary-*`` names.

    ``adversary`` runs :func:`run_with_adversary_replicas`, one
    :func:`run_with_adversary` per spawned stream.  The ensemble names run
    :func:`run_with_adversary_ensemble`, which advances batched plans
    lock-step and hands every other plan to the same replica loop.
    """

    def supports(self, plan: SimulationPlan) -> bool:
        if (
            plan.scheduler != "synchronous"
            or plan.adversary is None
            or plan.recorder is not None
        ):
            return False
        if self.spec.representation == "counts":
            from ..adversary.robust_runner import _counts_chain_capable

            return plan.rng_mode == "batched" and _counts_chain_capable(
                plan.spawn_process(), plan.initial, plan.schedule().adversary
            )
        return True

    def cost(self, plan: SimulationPlan) -> float:
        process = plan.spawn_process()
        n = plan.initial.num_nodes
        if self.spec.kind == "sequential":
            per_round = plan.repetitions * (n + _SEQ_OVERHEAD)
        elif self.spec.representation == "counts":
            width = plan.schedule().adversary.color_ceiling(plan.initial.num_slots)
            per_round = plan.repetitions * _COUNTS_FACTOR * width + _ROUND_OVERHEAD
        elif plan.rng_mode == "batched" and process.has_vectorized_ensemble:
            per_round = plan.repetitions * n + _ROUND_OVERHEAD
        else:
            per_round = plan.repetitions * (n + _SEQ_OVERHEAD) * _ENSEMBLE_LOOP_FACTOR
        return per_round * _sync_horizon(plan)

    def execute(self, plan: SimulationPlan) -> ExecutionResult:
        from ..adversary.robust_runner import (
            run_with_adversary_ensemble,
            run_with_adversary_replicas,
        )

        common = dict(
            rng=plan.rng,
            max_rounds=plan.max_rounds or _ADVERSARY_DEFAULT_HORIZON,
            stable_fraction=plan.stable_fraction,
            stable_rounds=plan.stable_rounds,
        )
        if self.spec.kind == "sequential":
            result = run_with_adversary_replicas(
                plan.spawn_process, plan.initial, plan.schedule(),
                plan.repetitions, **common,
            )
        else:
            result = run_with_adversary_ensemble(
                plan.spawn_process(), plan.initial, plan.schedule(),
                plan.repetitions, backend=self.spec.representation,
                rng_mode=plan.rng_mode, **common,
            )
        return ExecutionResult(
            plan=plan,
            backend=self.spec.name,
            unit="rounds",
            times=result.rounds,
            stopped=result.stabilized,
            final_counts=None,
            raw=result,
        )


# ---------------------------------------------------------------------------
# Default registry.  Registration order is the resolution tie-break:
# sequential reference paths first, then the ensembles, then the kernels.


def _spec(
    name, kind, scheduler, adversary, representation, tractable, description,
    faults=False,
):
    return BackendSpec(
        name=name,
        kind=kind,
        scheduler=scheduler,
        adversary=adversary,
        representation=representation,
        requires_counts_tractable=tractable,
        description=description,
        faults=faults,
    )


def _register_default_backends() -> None:
    register_backend(SyncBackend(_spec(
        "agent", "sequential", "synchronous", False, "agent", False,
        "one agent-level run per replica (reference path, every process)",
        faults=True,
    )))
    register_backend(SyncBackend(_spec(
        "counts", "sequential", "synchronous", False, "counts", True,
        "one exact count-level run per replica (AC-processes)",
        faults=True,
    )))
    register_backend(AsyncSequentialBackend(_spec(
        "async", "sequential", "asynchronous", False, "agent", False,
        "one one-node-per-tick run per replica (async reference path)",
    )))
    register_backend(AdversaryBackend(_spec(
        "adversary", "sequential", "synchronous", True, "agent", False,
        "one §5 robust run per replica (adversary reference path)",
    )))
    register_backend(SyncBackend(_spec(
        "ensemble-agent", "ensemble", "synchronous", False, "agent", False,
        "(R, n) color matrix, lock-step replicas",
        faults=True,
    )))
    register_backend(SyncBackend(_spec(
        "ensemble-counts", "ensemble", "synchronous", False, "counts", True,
        "(R, k) counts matrix, one broadcast multinomial per round",
        faults=True,
    )))
    register_backend(AsyncEnsembleBackend(_spec(
        "ensemble-async", "ensemble", "asynchronous", False, "agent", False,
        "(R, n) matrix, batch-drawn one-node-per-tick scheduler",
    )))
    register_backend(AdversaryBackend(_spec(
        "ensemble-adversary-agent", "ensemble", "synchronous", True, "agent", False,
        "(R, n) robust runs, vectorized corruption masks",
    )))
    register_backend(AdversaryBackend(_spec(
        "ensemble-adversary-counts", "ensemble", "synchronous", True, "counts", True,
        "(R, k) robust runs, exact count-level corruption laws",
    )))
    register_backend(KernelSyncBackend(_spec(
        "kernel-agent", "kernel", "synchronous", False, "counts", False,
        "fused agent rounds: exact switch-and-redistribute counts lumping",
    )))
    register_backend(KernelAsyncBackend(_spec(
        "kernel-async", "kernel", "asynchronous", False, "agent", False,
        "fused async ticks: conflict-free dependency wavefronts",
    )))

_register_default_backends()
