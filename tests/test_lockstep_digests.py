"""Pins the samples of the five lock-step engines.

``ensemble-counts``, ``ensemble-agent`` and ``kernel-agent`` (synchronous)
and ``ensemble-async`` and ``kernel-async`` (asynchronous) advance the
``R`` replicas of a batched plan lock-step from one shared stream.  Each
case below is one batched plan (``R = 4``) that a backend accepts; its
digest is a sha256 of ``(times, stopped, final_counts)`` plus every
recorded series, or the name of the exception the run raises.  The table
in ``tests/data/lockstep_digests.json`` was computed before the engines
shared one round loop, so a change to that loop, to a fault runtime or to
a process's round rule that moves a sample fails here.

The synchronous cross covers every registered process × a narrow start
and a 32-slot one (the kernel compacts columns there when no recorder
runs) × two stopping conditions × {no recorder under four fault
environments, a mean-aggregated recorder, a replica-1 recorder}.  The
asynchronous one covers every process × both starts × the default check
stride and a stride of 7 × no recorder and a mean-aggregated one.  Round
and tick limits are small and raise nothing, so some replicas end at the
limit.
"""

import hashlib
import itertools
import json
import os

import numpy as np

from repro.core import Configuration
from repro.engine import (
    ColorsAtMost,
    Consensus,
    EnsembleMetricRecorder,
    SimulationPlan,
    execute,
    get_backend,
)
from repro.faults import Byzantine, CrashStop, MessageLoss
from repro.processes import make_process

_DIGEST_PATH = os.path.join(
    os.path.dirname(__file__), "data", "lockstep_digests.json"
)

_PROCESSES = (
    "3-majority", "3-majority/resample", "2-choices", "voter",
    "undecided-dynamics", "2-median", "lazy-voter", "h-majority:3",
)
_STARTS = {
    "narrow": lambda: Configuration.balanced(24, 3),
    "wide": lambda: Configuration.singletons(32),
}
_STOPS = {"consensus": Consensus, "colors<=2": lambda: ColorsAtMost(2)}
_FAULTS = {
    "none": lambda: None,
    "crash": lambda: CrashStop(0.01),
    "loss": lambda: MessageLoss(0.2),
    "byzantine": lambda: Byzantine(0.02),
}
_RECORDERS = {
    "none": lambda: None,
    "mean": lambda: EnsembleMetricRecorder(
        ("num_colors", "entropy", "max_support"), aggregate="mean"
    ),
    "replica-1": lambda: EnsembleMetricRecorder(("num_colors", "bias"), replica=1),
}
#: ``recorder|faults`` pairs of the synchronous cross: faults run only
#: without a recorder, which keeps the cross small.
_SYNC_AXES = ("none|none", "none|crash", "none|loss", "none|byzantine",
              "mean|none", "replica-1|none")
_SYNC_ENGINES = ("ensemble-counts", "ensemble-agent", "kernel-agent")
_ASYNC_ENGINES = ("ensemble-async", "kernel-async")
_STRIDES = {"default": None, "every-7": 7}
#: Limits short enough that slow cases stop at them; 999 ticks is a
#: multiple of neither start's node count nor of 7.
_MAX_ROUNDS = 99
_MAX_TICKS = 999


def _plan(case: str) -> SimulationPlan:
    engine, process, start, *rest = case.split("|")
    common = dict(
        process=make_process(process),
        initial=_STARTS[start](),
        repetitions=4,
        rng=31,
        rng_mode="batched",
        backend=engine,
    )
    if engine in _ASYNC_ENGINES:
        stride, recorder = rest
        return SimulationPlan(
            **common,
            stop=Consensus(),
            scheduler="asynchronous",
            check_every=_STRIDES[stride],
            max_rounds=_MAX_TICKS,
            recorder=_RECORDERS[recorder](),
        )
    stop, recorder, faults = rest
    return SimulationPlan(
        **common,
        stop=_STOPS[stop](),
        faults=_FAULTS[faults](),
        max_rounds=_MAX_ROUNDS,
        raise_on_limit=False,
        recorder=_RECORDERS[recorder](),
    )


def _all_cases():
    for engine, process, start, stop, axes in itertools.product(
        _SYNC_ENGINES, _PROCESSES, _STARTS, _STOPS, _SYNC_AXES
    ):
        yield f"{engine}|{process}|{start}|{stop}|{axes}"
    for engine, process, start, stride, recorder in itertools.product(
        _ASYNC_ENGINES, _PROCESSES, _STARTS, _STRIDES, ("none", "mean")
    ):
        yield f"{engine}|{process}|{start}|{stride}|{recorder}"


def _digest_cases():
    """The cases whose backend accepts the plan."""
    return [
        case for case in _all_cases()
        if get_backend(case.split("|")[0]).supports(_plan(case))
    ]


def _digest(case: str) -> str:
    plan = _plan(case)
    try:
        result = execute(plan)
    except Exception as exc:  # pinned as the exception's name
        return f"raises {type(exc).__name__}"
    assert result.backend == plan.backend
    payload = [
        np.asarray(result.times).tolist(),
        np.asarray(result.stopped).tolist(),
        np.asarray(result.final_counts).tolist(),
    ]
    if plan.recorder is not None:
        payload.append(
            {key: np.asarray(series).tolist()
             for key, series in plan.recorder.as_dict().items()}
        )
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def _load_table() -> dict:
    with open(_DIGEST_PATH) as handle:
        return json.load(handle)


def test_digest_table_covers_every_accepted_case():
    assert sorted(_load_table()) == sorted(_digest_cases())


def test_lockstep_digests():
    expected = _load_table()
    moved = [case for case in sorted(expected) if _digest(case) != expected[case]]
    assert not moved, f"{len(moved)} batched plans changed samples: {moved[:10]}"
