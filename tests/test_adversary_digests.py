"""Pins the samples of the §5 adversary ensembles.

:func:`~repro.adversary.run_with_adversary_ensemble` advances the ``R``
replicas of a batched plan lock-step from one shared stream, on colors
(``backend="agent"``) or on counts (``"counts"``); a plan the batched
agent path cannot take runs one sequential run per spawned stream.  Each
case below is one call; its digest is a sha256 of ``(rounds, stabilized,
winning_color, winning_fraction, winner_is_valid)`` plus the backend and
RNG regime that ran, or the name of the exception the call raises.  The
table in ``tests/data/adversary_digests.json`` was computed before the
two ensembles moved onto the shared lock-step loop, so a change to that
loop, to a corruption law or to a process's round rule that moves a
sample fails here.  Its 28 agent rows of Undecided dynamics under
boost-runner-up (every start and schedule but the windowed one from the
stable start) were recomputed once boost-runner-up ranked only decided
nodes: before, they pinned the ``ValueError`` its ranking raised on the
undecided nodes' negative color.

The main cross covers every registered process × four starts (one already
in the stable regime) × four adversaries (one windowed) × both backends ×
two stable regimes × a short and a long horizon.  Boost-runner-up moves
two nodes a round, so on 24 and 32 nodes it keeps every replica below the
0.95 regime; over the long horizon some of those stalls reach consensus
on a resurrected color and resurrect past the adversary's static color
ceiling (3-Majority on the narrow start, on both backends).  The edge
cross runs horizons 0, 1, 2 and 50 with a single replica and with seven.
"""

import hashlib
import itertools
import json
import os

import numpy as np

from repro.adversary import (
    AdversarySchedule,
    BoostRunnerUp,
    PlantInvalid,
    RandomNoise,
    run_with_adversary_ensemble,
)
from repro.core import Configuration
from repro.processes import make_process

_DIGEST_PATH = os.path.join(
    os.path.dirname(__file__), "data", "adversary_digests.json"
)

_PROCESSES = (
    "3-majority", "3-majority/resample", "2-choices", "voter",
    "undecided-dynamics", "2-median", "lazy-voter", "h-majority:3",
)
_STARTS = {
    "narrow": lambda: Configuration.balanced(24, 3),
    "wide": lambda: Configuration.singletons(32),
    "stable": lambda: Configuration([39, 1, 0]),
    "binary": lambda: Configuration.balanced(40, 2),
}
#: Each adversary is built from the start, so the planted color is one
#: the start does not support.
_ADVERSARIES = {
    "plant-invalid": lambda initial: PlantInvalid(1, initial.num_slots),
    "boost-runner-up": lambda initial: BoostRunnerUp(2),
    "random-noise": lambda initial: RandomNoise(1, 3),
    "boost-window": lambda initial: AdversarySchedule(
        BoostRunnerUp(2), start=2, stop=9
    ),
}
_BACKENDS = ("agent", "counts")
_STABLE = {"0.9x1": (0.9, 1), "0.95x3": (0.95, 3)}
_MAIN_HORIZONS = (7, 150)
_EDGE_HORIZONS = (0, 1, 2, 50)
_EDGE_REPETITIONS = (1, 7)


def _all_cases():
    for backend, process, start, adversary, stable, horizon in itertools.product(
        _BACKENDS, _PROCESSES, _STARTS, _ADVERSARIES, _STABLE, _MAIN_HORIZONS
    ):
        yield f"{backend}|{process}|{start}|{adversary}|{stable}|{horizon}|4"
    for backend, process, adversary, horizon, repetitions in itertools.product(
        _BACKENDS, ("3-majority", "voter"), _ADVERSARIES,
        _EDGE_HORIZONS, _EDGE_REPETITIONS,
    ):
        yield f"{backend}|{process}|stable|{adversary}|0.9x1|{horizon}|{repetitions}"


def _digest(case: str) -> str:
    backend, process, start, adversary, stable, horizon, repetitions = case.split("|")
    initial = _STARTS[start]()
    stable_fraction, stable_rounds = _STABLE[stable]
    try:
        result = run_with_adversary_ensemble(
            make_process(process),
            initial,
            _ADVERSARIES[adversary](initial),
            int(repetitions),
            rng=24,
            max_rounds=int(horizon),
            stable_fraction=stable_fraction,
            stable_rounds=stable_rounds,
            backend=backend,
        )
    except Exception as exc:  # pinned as the exception's name
        return f"raises {type(exc).__name__}"
    payload = [
        result.backend,
        result.rng_mode,
        np.asarray(result.rounds).tolist(),
        np.asarray(result.stabilized).tolist(),
        np.asarray(result.winning_color).tolist(),
        np.asarray(result.winning_fraction).tolist(),
        np.asarray(result.winner_is_valid).tolist(),
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def _load_table() -> dict:
    with open(_DIGEST_PATH) as handle:
        return json.load(handle)


def test_digest_table_covers_every_case():
    assert sorted(_load_table()) == sorted(_all_cases())


def test_adversary_digests():
    expected = _load_table()
    moved = [case for case in sorted(expected) if _digest(case) != expected[case]]
    assert not moved, f"{len(moved)} adversary plans changed samples: {moved[:10]}"
