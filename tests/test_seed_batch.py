"""The batch cell-seed derivation, pinned against numpy.

``engine/rng._child_seeds(seed, count)`` derives every cell seed of a
compile in one vectorized pass of numpy's ``SeedSequence`` algorithm.
It must equal the numpy-backed ``derive_seed(seed, i)`` for each index,
for seeds of any width: the entropy words past the pool's four change
the hash constant the children start from.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import StudySpec
from repro.engine.rng import _child_seeds, derive_seed
from repro.study import compile_study

#: Seeds of exactly 0 to 256 bits, the width drawn first (uniformly) so
#: every word count, 1 to 8 entropy words, is drawn often.
_SEEDS = st.sampled_from(range(257)).flatmap(
    lambda bits: st.integers(2**bits >> 1, 2**bits - 1)
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=_SEEDS, count=st.integers(0, 300))
@example(seed=0, count=300)
@example(seed=2**32 - 1, count=300)
@example(seed=2**32, count=300)
@example(seed=2**128, count=300)
def test_batch_seeds_equal_derive_seed(seed, count):
    seeds = _child_seeds(seed, count)
    assert seeds == [derive_seed(seed, i) for i in range(count)]
    assert all(type(value) is int for value in seeds)


def test_a_compile_seeds_every_cell_with_derive_seed():
    spec = StudySpec(
        name="wide seed",
        seed=2**40,
        repetitions=2,
        axes={"process": ["voter", "3-majority"], "n": [8, 16, 24]},
    )
    cells = compile_study(spec)
    assert len(cells) == 6
    for cell in cells:
        seed = derive_seed(spec.seed, cell.index)
        assert cell.params["seed"] == cell.plan.rng == seed
