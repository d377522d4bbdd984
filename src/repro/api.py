"""The public facade: ``repro.api`` — simulate, sweep, study, validate.

Four verbs cover what users do with the library, all declarative and
all funnelled through the same stack (StudySpec → study cells →
:class:`~repro.engine.plan.SimulationPlan` → the backend registry of
:mod:`repro.engine.runtime`):

``simulate(...)``
    One measurement: a named (or given) process on a named workload,
    under any model axes, returning the runtime's uniform
    :class:`~repro.engine.runtime.ExecutionResult`.

``sweep(...)``
    A scaling sweep over ``n`` — the declarative replacement for the
    callable-parameterised harness — returning the familiar
    :class:`~repro.experiments.harness.SweepResult` (tables, power-law
    fits, JSON persistence).

``study(...)``
    A full experiment suite from a :class:`~repro.study.StudySpec` (or a
    TOML path), with a provenance-carrying result store and bit-for-bit
    ``resume=``.

``validate(...)``
    Compile-only: eagerly expand and validate a spec's whole grid
    without running anything — the gate shared by ``repro study
    validate`` and the daemon's ``POST /jobs``.

Everything here is re-exported from the top-level package::

    >>> import repro
    >>> repro.simulate("3-majority", n=256, seed=7).times  # doctest: +SKIP
    array([24])
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core.configuration import Configuration
from .engine.batch import first_passage_plan
from .engine.rng import RandomSource
from .engine.runtime import ExecutionResult, execute
from .engine.stopping import StoppingCondition
from .experiments.harness import SweepResult, sweep_result_from_records
from .experiments.workloads import resolve_workload
from .processes.base import AgentProcess
from .processes.registry import make_process
from .study.compile import build_adversary, parse_stop, validate_study
from .study.runner import run_study
from .study.spec import StudySpec
from .study.store import StudyStore
from .study.toml_io import load_spec

__all__ = ["simulate", "sweep", "study", "validate"]


def _as_process_factory(process) -> "Callable[[], AgentProcess]":
    """Accept a registry name, an instance, or a zero-arg factory."""
    if isinstance(process, str):
        name = process
        return lambda: make_process(name)
    if isinstance(process, AgentProcess):
        return lambda: process
    if callable(process):
        return process
    raise TypeError(
        f"process must be a registry name, an AgentProcess or a factory; "
        f"got {type(process).__name__}"
    )


def _as_stop(stop) -> "StoppingCondition | None":
    if stop is None or isinstance(stop, StoppingCondition):
        return stop
    if isinstance(stop, str):
        return parse_stop(stop)
    raise TypeError(f"stop must be a rule string or StoppingCondition, got {stop!r}")


def _as_adversary(adversary, n: int, colors: int):
    from .adversary.adversary import Adversary, AdversarySchedule

    if adversary is None or isinstance(adversary, (Adversary, AdversarySchedule)):
        return adversary
    return build_adversary(adversary, n, colors)


def _as_faults(faults):
    """Accept a FaultModel/FaultSchedule, a declarative dict, or a CLI string."""
    from .faults import FaultModel, FaultSchedule, build_fault_schedule

    if faults is None or isinstance(faults, (FaultModel, FaultSchedule)):
        return faults
    return build_fault_schedule(faults)


def simulate(
    process,
    *,
    n: int = 1024,
    workload="singletons",
    initial: "Configuration | None" = None,
    seed: RandomSource = None,
    repetitions: int = 1,
    stop="consensus",
    scheduler: str = "synchronous",
    adversary=None,
    faults=None,
    backend: str = "auto",
    rng_mode: str = "batched",
    max_rounds: "int | None" = None,
    recorder=None,
    raise_on_limit: bool = True,
    stable_fraction: float = 0.95,
    stable_rounds: int = 3,
) -> ExecutionResult:
    """Run one measurement and return the runtime's uniform result.

    ``process`` is a registry name (``"3-majority"``), an
    :class:`~repro.processes.base.AgentProcess`, or a factory.
    ``workload`` is a :data:`~repro.experiments.workloads.WORKLOADS`
    name or ``{"name": ..., "kwargs": {...}}`` (ignored when an explicit
    ``initial`` configuration is given).  ``stop`` takes the declarative
    rule strings of :func:`repro.study.compile.parse_stop`; ``adversary``
    a §5 strategy dict like ``{"name": "plant-invalid", "budget": 4}``
    (or an instance); ``faults`` a declarative fault table like
    ``{"crash": 0.01, "recover": 0.1}``, a CLI-style string
    (``"crash:p=0.01,recover=0.1"``), or a
    :class:`~repro.faults.FaultSchedule` / model instance.  Everything
    else is a plan axis with the meanings documented on
    :class:`~repro.engine.plan.SimulationPlan`.
    """
    if initial is None:
        initial = resolve_workload(workload, n)
    plan = first_passage_plan(
        process_factory=_as_process_factory(process),
        initial=initial,
        stop=_as_stop(stop),
        repetitions=repetitions,
        rng=seed,
        max_rounds=max_rounds,
        backend=backend,
        rng_mode=rng_mode,
        scheduler=scheduler,
        adversary=_as_adversary(adversary, initial.num_nodes, initial.num_colors),
        faults=_as_faults(faults),
        recorder=recorder,
        stable_fraction=stable_fraction,
        stable_rounds=stable_rounds,
        raise_on_limit=raise_on_limit,
    )
    return execute(plan)


def sweep(
    process: str,
    n_values: Sequence,
    *,
    repetitions: int = 5,
    seed: int = 0,
    workload="singletons",
    stop: str = "consensus",
    scheduler: str = "synchronous",
    adversary=None,
    faults=None,
    backend: str = "auto",
    rng_mode: str = "batched",
    max_rounds: "int | None" = None,
    predicted: "Callable[[int], float] | None" = None,
    name: "str | None" = None,
    param_name: str = "n",
    raise_on_limit: bool = True,
    stable_fraction: float = 0.95,
    stable_rounds: int = 3,
) -> SweepResult:
    """A declarative consensus-time scaling sweep over ``n``.

    Builds a one-axis :class:`~repro.study.StudySpec` (``n`` sweeps,
    everything else fixed), runs it through :func:`repro.study.run_study`
    and converts the records to a :class:`SweepResult` so the table /
    fit / persistence machinery keeps working unchanged.  ``predicted``
    is the paper-scale column (a presentation concern — evaluated at
    conversion, never stored in provenance); ``adversary`` is the
    declarative dict form, with a missing ``budget`` resolving to the
    [BCN+16] recommended scale *per sweep point*.

    The spec seed derivation matches the historical harness
    (:func:`~repro.engine.rng.derive_seed` per point index), so a sweep
    through this facade reproduces the same samples as the legacy
    :func:`~repro.experiments.harness.sweep_first_passage` call it
    replaces, backend for backend, bit for bit.
    """
    spec = StudySpec(
        name=name or f"sweep {process} over {param_name}",
        seed=seed,
        repetitions=repetitions,
        expansion="grid",
        stable_fraction=stable_fraction,
        stable_rounds=stable_rounds,
        raise_on_limit=raise_on_limit,
        axes={
            "process": [process],
            "workload": [workload],
            "n": [int(n) for n in n_values],
            "scheduler": [scheduler],
            "adversary": [adversary if adversary is not None else "none"],
            "stop": [stop],
            "max_rounds": [max_rounds if max_rounds is not None else "none"],
            "backend": [backend],
            "rng_mode": [rng_mode],
            "faults": [faults if faults is not None else "none"],
        },
    )
    # Imperative sweeps propagate errors: the SweepResult conversion
    # needs every record to carry data, so failure isolation is off.
    store = run_study(spec, on_error="raise")
    return sweep_result_from_records(
        spec.name if name is None else name,
        param_name,
        store.records(),
        predicted if predicted is not None else (lambda n: float("nan")),
        rng_mode=rng_mode,
    )


def _as_spec(spec) -> StudySpec:
    """Accept a StudySpec, a TOML path, or a plain dict."""
    if isinstance(spec, str):
        return load_spec(spec)
    if isinstance(spec, StudySpec):
        return spec
    if isinstance(spec, dict):
        return StudySpec.from_dict(spec)
    raise TypeError(
        f"spec must be a StudySpec, a TOML path or a dict; got "
        f"{type(spec).__name__}"
    )


def validate(spec) -> dict:
    """Compile-only validation of a study spec; nothing runs.

    Accepts the same spec forms as :func:`study` and returns
    :func:`repro.study.compile.validate_study`'s summary — ``name``,
    ``spec_hash``, ``num_cells``, ``repetitions`` and the per-cell
    ``(index, cell_id, label)`` listing.  Invalid specs raise the
    compiler's errors eagerly, for the *whole* grid.
    """
    return validate_study(_as_spec(spec))


def study(
    spec,
    *,
    store_path: "str | None" = None,
    resume: "bool | str" = False,
    max_cells: "int | None" = None,
    progress=None,
    on_error: str = "record",
    max_attempts: "int | None" = None,
    policy=None,
    deadline_s: "float | None" = None,
    workers: "int | None" = None,
    max_inflight: "int | None" = None,
    cache=None,
    stop_event=None,
) -> StudyStore:
    """Run a study from a :class:`StudySpec`, a TOML path, or a dict.

    A thin veneer over :func:`repro.study.run_study` that also accepts
    the on-disk spec forms: a path to a ``.toml`` file or a plain dict
    (e.g. parsed JSON).  See :func:`repro.study.runner.run_study` for
    ``store_path`` / ``resume`` / ``max_cells``, the supervision knobs
    ``on_error`` / ``policy`` / ``max_attempts`` / ``deadline_s``, the
    concurrency knobs ``workers`` / ``max_inflight`` (parallel cell
    scheduling, bit-for-bit equal to sequential), and ``cache`` (the
    shared content-addressed result cache; ``True`` / ``False`` / a
    directory) — in particular, resumed runs complete interrupted
    stores (journal and all) bit-for-bit and re-attempt failed or
    timed-out cells.  ``stop_event`` is the cooperative stop flag of
    :func:`~repro.study.runner.run_study`: setting it checkpoints the
    cell in flight and returns a store with ``interrupted=True``.
    """
    return run_study(
        _as_spec(spec),
        store_path=store_path,
        resume=resume,
        max_cells=max_cells,
        progress=progress,
        on_error=on_error,
        max_attempts=max_attempts,
        policy=policy,
        deadline_s=deadline_s,
        workers=workers,
        max_inflight=max_inflight,
        cache=cache,
        stop_event=stop_event,
    )
