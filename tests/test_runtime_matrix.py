"""Cross-backend equivalence matrix through the unified runtime.

The load-bearing reproducibility contract of the runtime layer: with
``rng_mode="per-replica"`` every backend name runs the same sequential
loop on the same spawned child stream per replica, so the sequential
names, the ensemble names and the plan-resolved ``"auto"`` decision
produce **bit-for-bit identical** first-passage samples — on 3-Majority
and Voter (count-level chain) and 2-Choices (agent-level) alike.  The
asynchronous and adversarial plan axes are pinned against their
sequential reference runners the same way.

Marked ``bench_smoke`` so ``scripts/check.sh``'s dedicated ``plan-matrix``
step can select exactly this matrix.
"""

import numpy as np
import pytest

from repro.adversary import PlantInvalid, run_with_adversary
from repro.core import Configuration
from repro.engine import (
    Consensus,
    SimulationPlan,
    execute,
    resolve_backend,
    run_asynchronous,
    run_asynchronous_ensemble,
    spawn_generators,
)
from repro.faults import (
    Byzantine,
    CrashRecovery,
    CrashStop,
    FaultSchedule,
    MessageLoss,
)
from repro.processes import ThreeMajority, TwoChoices, Voter

pytestmark = pytest.mark.bench_smoke

SEED = 20170729

CASES = [
    pytest.param(
        ThreeMajority, Configuration.balanced(240, 3), "counts", id="3-majority"
    ),
    pytest.param(
        TwoChoices, Configuration.biased(120, 4, 24), "agent", id="2-choices"
    ),
    pytest.param(Voter, Configuration.balanced(160, 4), "counts", id="voter"),
]


def _plan(factory, initial, backend, **overrides):
    kwargs = dict(
        process=factory,
        initial=initial,
        stop=Consensus(),
        repetitions=5,
        rng=SEED,
        rng_mode="per-replica",
        max_rounds=20_000,
        backend=backend,
    )
    kwargs.update(overrides)
    return SimulationPlan(**kwargs)


@pytest.mark.parametrize("factory, initial, representation", CASES)
def test_per_replica_cross_backend_equivalence(factory, initial, representation):
    """sequential == ensemble == auto, bitwise."""
    reference = execute(_plan(factory, initial, "sequential-auto"))
    assert reference.backend == representation
    assert reference.unit == "rounds"
    for backend in ("ensemble-auto", "auto"):
        result = execute(_plan(factory, initial, backend))
        assert np.array_equal(result.times, reference.times), backend
        assert np.array_equal(result.stopped, reference.stopped), backend
        assert np.array_equal(result.final_counts, reference.final_counts), backend
        # Every backend agrees with the reference's representation choice.
        assert resolve_backend(
            _plan(factory, initial, backend)
        ).spec.representation == representation, backend


def test_auto_resolution_is_cost_model_not_string_parsing():
    """The plan-resolved names behind the matrix, made explicit."""
    initial = Configuration.balanced(240, 3)
    assert resolve_backend(_plan(ThreeMajority, initial, "auto")).spec.name == (
        "ensemble-counts"
    )
    assert resolve_backend(
        _plan(ThreeMajority, initial, "sequential-auto")
    ).spec.name == "counts"
    wide = Configuration.singletons(8192)  # beyond the count-chain slot limit
    assert resolve_backend(_plan(ThreeMajority, wide, "auto")).spec.name == (
        "ensemble-agent"
    )


def test_async_plan_matches_sequential_runner():
    initial = Configuration.balanced(128, 2)
    budget = 4000
    plan = _plan(
        ThreeMajority,
        initial,
        "async",
        repetitions=4,
        scheduler="asynchronous",
        max_rounds=budget,
        rng_mode="batched",
    )
    result = execute(plan)
    assert result.unit == "ticks"
    reference = [
        run_asynchronous(ThreeMajority(), initial, rng=g, max_ticks=budget)
        for g in spawn_generators(SEED, 4)
    ]
    assert np.array_equal(result.times, [r.ticks for r in reference])
    assert np.array_equal(result.stopped, [r.stopped for r in reference])

    ensemble_plan = _plan(
        ThreeMajority,
        initial,
        "ensemble-async",
        repetitions=4,
        scheduler="asynchronous",
        max_rounds=budget,
        rng_mode="batched",
    )
    ensemble = execute(ensemble_plan)
    direct = run_asynchronous_ensemble(
        ThreeMajority(), initial, 4, rng=SEED, max_ticks=budget
    )
    assert np.array_equal(ensemble.times, direct.ticks)
    # The cost model sends repeated async measurements to the fused
    # wavefront kernel, which is bit-for-bit the ensemble engine for
    # draw-free sample rules — since the fixed-sample tie-break
    # (footnote 1) that now includes 3-Majority itself.
    auto = _plan(
        ThreeMajority, initial, "auto", repetitions=4,
        scheduler="asynchronous", max_rounds=budget, rng_mode="batched",
    )
    assert resolve_backend(auto).spec.name == "kernel-async"
    kernel = execute(auto)
    assert kernel.unit == "ticks"
    assert np.array_equal(kernel.times, direct.ticks)
    assert np.array_equal(kernel.final_counts, direct.final_counts)
    voter_auto = _plan(
        Voter, initial, "auto", repetitions=4,
        scheduler="asynchronous", max_rounds=budget, rng_mode="batched",
    )
    assert resolve_backend(voter_auto).spec.name == "kernel-async"
    voter_kernel = execute(voter_auto)
    voter_engine = run_asynchronous_ensemble(
        Voter(), initial, 4, rng=SEED, max_ticks=budget
    )
    assert np.array_equal(voter_kernel.times, voter_engine.ticks)
    assert np.array_equal(voter_kernel.final_counts, voter_engine.final_counts)


def test_adversary_plan_matches_sequential_runner():
    initial = Configuration.balanced(200, 3)
    adversary = PlantInvalid(2, invalid_color=8)
    base = dict(
        repetitions=5,
        adversary=adversary,
        max_rounds=3000,
        stable_fraction=0.9,
        stop=None,
    )
    reference = [
        run_with_adversary(
            ThreeMajority(), initial, adversary, rng=g,
            max_rounds=3000, stable_fraction=0.9,
        )
        for g in spawn_generators(SEED, 5)
    ]
    rounds = [r.rounds for r in reference]
    sequential = execute(_plan(ThreeMajority, initial, "adversary", **base))
    assert sequential.unit == "rounds"
    assert np.array_equal(sequential.times, rounds)
    assert np.array_equal(
        sequential.raw.winning_color, [r.winning_color for r in reference]
    )
    result = execute(
        _plan(ThreeMajority, initial, "ensemble-adversary-agent", **base)
    )
    assert np.array_equal(result.times, rounds)
    assert np.array_equal(
        result.raw.winner_is_valid, [r.winner_is_valid for r in reference]
    )
    # Batched auto resolution lands on the §5 count-level fast path.
    auto = _plan(
        ThreeMajority, initial, "auto", rng_mode="batched", **base
    )
    assert resolve_backend(auto).spec.name == "ensemble-adversary-counts"
    assert execute(auto).all_stopped


@pytest.mark.parametrize(
    "faults",
    [
        pytest.param(CrashStop(0.0), id="crash-stop-0"),
        pytest.param(CrashRecovery(0.0, 0.0), id="crash-recovery-0"),
        pytest.param(MessageLoss(0.0), id="loss-0"),
        pytest.param(Byzantine(0.0), id="byzantine-0"),
        pytest.param(Byzantine(0.0, color=1), id="byzantine-0-pinned"),
        pytest.param(FaultSchedule(()), id="empty-schedule"),
        pytest.param(
            FaultSchedule((CrashStop(0.0), MessageLoss(0.0), Byzantine(0.0))),
            id="all-zero-schedule",
        ),
    ],
)
@pytest.mark.parametrize("factory, initial, representation", CASES)
def test_rate_zero_faults_reproduce_baseline(
    factory, initial, representation, faults
):
    """Every fault model at rate 0 is bit-for-bit the fault-free run.

    Trivial schedules collapse to ``None`` at plan-resolution time, so
    the engines take the unmodified path and consume zero extra rng
    draws — on every backend of the matrix.
    """
    for backend in ("sequential-auto", "ensemble-auto", "auto"):
        baseline = execute(_plan(factory, initial, backend))
        faulted = execute(_plan(factory, initial, backend, faults=faults))
        assert np.array_equal(faulted.times, baseline.times), backend
        assert np.array_equal(faulted.stopped, baseline.stopped), backend
        assert np.array_equal(
            faulted.final_counts, baseline.final_counts
        ), backend


@pytest.mark.parametrize("factory, initial, representation", CASES)
def test_active_faults_cross_backend_equivalence(
    factory, initial, representation
):
    """Per-replica fault runs are bitwise identical across all backends."""
    faults = FaultSchedule((CrashRecovery(0.02, 0.3), MessageLoss(0.05)))
    reference = execute(
        _plan(factory, initial, "sequential-auto", faults=faults)
    )
    assert reference.backend == representation
    for backend in ("ensemble-auto", "auto"):
        result = execute(_plan(factory, initial, backend, faults=faults))
        assert np.array_equal(result.times, reference.times), backend
        assert np.array_equal(result.stopped, reference.stopped), backend
        assert np.array_equal(
            result.final_counts, reference.final_counts
        ), backend


@pytest.mark.parametrize(
    "byzantine",
    [
        pytest.param(Byzantine(0.04), id="uniform"),
        pytest.param(Byzantine(0.04, color=0), id="pinned-color"),
    ],
)
@pytest.mark.parametrize("factory, initial, representation", CASES)
def test_active_byzantine_cross_backend_equivalence(
    factory, initial, representation, byzantine
):
    """Byzantine rewrites are bitwise identical across all backends.

    The replacement draw is the delicate part: agent-level engines narrow
    an int64 draw to the state dtype and count-level engines spend a
    multinomial per round, both *round-deterministically* (whenever the
    model is active, hit or not) — so sequential and ensemble runs stay
    on the same stream.  Stacking a crash model on top checks
    the claim/rewrite split inside one schedule.

    Hostile rewrites re-seed dead colors forever, so consensus (or any
    fixed plurality) may simply be unreachable — the drift-free Voter
    never shakes 4 % uniform noise.  The runs are therefore compared
    over a *fixed horizon* (``raise_on_limit=False``): every backend
    simulates exactly the same 300 faulted rounds and the final count
    vectors must agree bit for bit, which pins the rng discipline just
    as hard as a first-passage comparison.
    """
    faults = FaultSchedule((CrashRecovery(0.02, 0.3), byzantine))
    horizon = dict(faults=faults, max_rounds=300, raise_on_limit=False)
    reference = execute(
        _plan(factory, initial, "sequential-auto", **horizon)
    )
    assert reference.backend == representation
    for backend in ("ensemble-auto", "auto"):
        result = execute(_plan(factory, initial, backend, **horizon))
        assert np.array_equal(result.times, reference.times), backend
        assert np.array_equal(result.stopped, reference.stopped), backend
        assert np.array_equal(
            result.final_counts, reference.final_counts
        ), backend


def test_kernel_backends_exercised():
    """Both kernel backends resolve by name and run their batched plans."""
    sync_result = execute(_plan(
        TwoChoices, Configuration.biased(120, 4, 24), "kernel-agent",
        rng_mode="batched",
    ))
    async_result = execute(_plan(
        Voter, Configuration.balanced(128, 2), "kernel-async",
        repetitions=4, scheduler="asynchronous", max_rounds=4000,
        rng_mode="batched",
    ))
    assert sync_result.backend == "kernel-agent"
    assert async_result.backend == "kernel-async"


def test_kernel_agent_statistically_matches_sequential():
    """KS-style cross-validation: the lumped chain's first-passage sample
    is drawn from the same distribution as the per-replica agent runs."""
    from scipy.stats import ks_2samp

    initial = Configuration.biased(120, 4, 24)
    kernel = execute(_plan(
        TwoChoices, initial, "kernel-agent",
        repetitions=160, rng_mode="batched",
    ))
    sequential = execute(_plan(
        TwoChoices, initial, "agent", repetitions=160,
        rng_mode="per-replica", rng=SEED + 1,
    ))
    assert kernel.all_stopped and sequential.all_stopped
    statistic = ks_2samp(kernel.times, sequential.times)
    assert statistic.pvalue > 1e-3, (
        f"kernel-agent first-passage sample diverges from the sequential "
        f"reference (KS p={statistic.pvalue:.2e}, "
        f"means {kernel.times.mean():.2f} vs {sequential.times.mean():.2f})"
    )


def test_per_replica_plans_never_resolve_to_kernels():
    """The exact-stream contract: kernels are batched-only, so the whole
    per-replica matrix above runs on the established engines."""
    for factory, initial, scheduler in [
        (ThreeMajority, Configuration.balanced(240, 3), "synchronous"),
        (TwoChoices, Configuration.biased(120, 4, 24), "synchronous"),
        (ThreeMajority, Configuration.balanced(128, 2), "asynchronous"),
    ]:
        plan = _plan(
            factory, initial, "auto",
            scheduler=scheduler,
            max_rounds=20_000 if scheduler == "synchronous" else 4000,
        )
        assert plan.rng_mode == "per-replica"
        assert resolve_backend(plan).spec.kind != "kernel", factory
    # Naming a kernel backend outright raises rather than silently
    # changing the stream contract.
    with pytest.raises(ValueError, match="batched-only"):
        resolve_backend(
            _plan(TwoChoices, Configuration.biased(120, 4, 24), "kernel-agent")
        )
    with pytest.raises(ValueError):
        resolve_backend(_plan(
            ThreeMajority, Configuration.balanced(128, 2), "kernel-async",
            scheduler="asynchronous",
        ))

