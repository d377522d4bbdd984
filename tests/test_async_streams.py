"""Pins that the asynchronous scheduler keeps its samples.

:func:`~repro.engine.asynchronous.run_asynchronous` draws a check
stride's activated nodes and sample ids in one bounded ``integers`` call
instead of two calls per tick.  That keeps every stream because numpy's
bounded integer draws do not depend on how values are grouped into calls:
each value takes its bits from the bit generator in turn, and the 32-bit
half-word buffer lives in the bit generator's state, not in the call.
The tests below pin

* that fact itself, on every numpy bit generator, so a numpy release
  that changes it fails here before a stored sample moves silently;
* results digests ``(times, stopped, final_counts)`` of per-replica
  asynchronous plans for every registered process and of batched
  ``ensemble-async`` plans on the two full-round processes, computed on
  the per-tick loop before the block draw
  (``tests/data/async_digests.json``).
"""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from repro.core import Configuration
from repro.engine import Consensus, SimulationPlan, execute
from repro.processes import make_process

_DIGEST_PATH = os.path.join(os.path.dirname(__file__), "data", "async_digests.json")

_BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.SFC64,
    np.random.MT19937,
)
_RANGES = (2, 3, 7, 64, 1000, 2**31 - 1, 2**32)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("n", _RANGES)
@pytest.mark.parametrize("full_round", [False, True], ids=["node", "round"])
def test_tick_draws_equal_one_block_and_any_split(bit_generator, n, full_round):
    """Per-tick ``integers(n)`` + sample draws == one block == split blocks."""
    samples = 3
    ticks = 11
    # A full round draws (n, s) ids per tick; the rows are capped so the
    # test stays small at n = 2^32 (the values do not depend on the shape).
    rows = min(n, 16) if full_round else None
    shape = (rows, samples) if full_round else samples
    width = rows * samples if full_round else samples

    ticked = np.random.Generator(bit_generator(20170729))
    expected = np.array([
        np.concatenate((
            [ticked.integers(n)], ticked.integers(0, n, size=shape).ravel(),
        ))
        for _ in range(ticks)
    ])

    blocked = np.random.Generator(bit_generator(20170729))
    block = blocked.integers(0, n, size=(ticks, 1 + width))
    assert np.array_equal(block, expected)
    assert _same_state(blocked.bit_generator.state, ticked.bit_generator.state)

    total = ticks * (1 + width)
    cuts = np.random.default_rng(n).choice(np.arange(1, total), size=5, replace=False)
    bounds = [0, *sorted(int(c) for c in cuts), total]
    split = np.random.Generator(bit_generator(20170729))
    parts = [split.integers(0, n, size=hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts).reshape(ticks, 1 + width), expected)
    assert _same_state(split.bit_generator.state, ticked.bit_generator.state)


_PROCESSES = (
    "3-majority", "3-majority/resample", "2-choices", "voter",
    "undecided-dynamics", "2-median", "lazy-voter", "h-majority:3",
)
_INITIALS = {
    "singletons": lambda: Configuration.singletons(12),
    "balanced": lambda: Configuration.balanced(16, 2),
}
#: ``(check_every, max_rounds)``: the default stride, a stride of 7, and
#: a tick limit that ends inside a stride (41 = 3·12 + 5 = 2·16 + 9).
_STRIDES = {
    "default": (None, None),
    "every-7": (7, None),
    "mid-stride-limit": (None, 41),
}


def _digest_cases():
    for process, initial, stride in itertools.product(_PROCESSES, _INITIALS, _STRIDES):
        yield f"per-replica|{process}|{initial}|{stride}"
    for process, initial in itertools.product(
        ("undecided-dynamics", "2-median"), _INITIALS
    ):
        yield f"ensemble-async|{process}|{initial}|default"


def _run(case):
    mode, process, initial, stride = case.split("|")
    check_every, max_rounds = _STRIDES[stride]
    plan = SimulationPlan(
        process=lambda: make_process(process),
        initial=_INITIALS[initial](),
        stop=Consensus(),
        repetitions=3,
        scheduler="asynchronous",
        rng=23,
        rng_mode="per-replica" if mode == "per-replica" else "batched",
        max_rounds=max_rounds,
        check_every=check_every,
        backend="auto" if mode == "per-replica" else mode,
    )
    return execute(plan)


def _digest(result) -> str:
    payload = [
        [int(t) for t in result.times],
        [bool(s) for s in result.stopped],
        np.asarray(result.final_counts).tolist(),
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def test_digest_table_covers_every_case():
    with open(_DIGEST_PATH) as handle:
        table = json.load(handle)
    assert sorted(table) == sorted(_digest_cases())


@pytest.mark.parametrize("case", list(_digest_cases()))
def test_async_results_digest(case):
    with open(_DIGEST_PATH) as handle:
        expected = json.load(handle)[case]
    result = _run(case)
    assert result.backend == ("async" if case.startswith("per-replica") else "ensemble-async")
    assert _digest(result) == expected
