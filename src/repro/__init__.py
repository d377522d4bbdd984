"""repro — a reproduction of *"Ignore or Comply? On Breaking Symmetry in
Consensus"* (Berenbrink, Clementi, Elsässer, Kling, Mallmann-Trenn,
Natale; PODC 2017, arXiv:1702.04921).

The library implements the paper's consensus dynamics (Voter, 2-Choices,
3-Majority, general h-Majority, plus the related 2-Median and
Undecided-State dynamics), its anonymous-consensus-process comparison
framework (majorization, protocol dominance, Strassen couplings), the
coalescing-random-walks duality, dynamic adversaries, crash / recovery /
message-loss fault injection, and a benchmark harness that validates
every theorem, lemma and counterexample in the paper.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.

Quickstart
----------
The public facade is :mod:`repro.api` — three declarative verbs behind
which every execution strategy (vectorized ensembles, fused kernels,
async scheduler, §5 adversaries) is an axis, not an import:

>>> import repro
>>> repro.simulate("3-majority", n=256, seed=7).times      # doctest: +SKIP
array([24])
>>> repro.sweep("voter", [64, 128, 256], repetitions=5, seed=1)  # doctest: +SKIP
>>> repro.study("studies/consensus_scaling.toml")          # doctest: +SKIP

Whole experiment suites are :class:`~repro.study.StudySpec` files —
declarative TOML artifacts you can save, diff, hash, resume and share
(see ``studies/`` and ``python -m repro study --help``).
"""

from .core import (
    ACProcessFunction,
    Configuration,
    HMajorityFunction,
    ThreeMajorityFunction,
    VoterFunction,
    appendix_b_counterexample,
    majorizes,
    strassen_coupling,
    verify_dominance_exhaustive,
)
from .engine import (
    ColorsAtMost,
    Consensus,
    EnsembleMetricRecorder,
    MaxSupportAbove,
    MetricRecorder,
    SimulationResult,
    consensus_time,
    reduction_time,
    run,
    run_ensemble,
    symmetry_breaking_time,
)
from .faults import (
    CrashRecovery,
    CrashStop,
    FaultSchedule,
    MessageLoss,
)
from .processes import (
    HMajority,
    ThreeMajority,
    TwoChoices,
    TwoMedian,
    UndecidedDynamics,
    Voter,
    make_process,
)

__version__ = "1.1.0"

from . import api
from .api import simulate, study, sweep, validate
from .study import (
    RunRecord,
    StoreCorruptError,
    StudySpec,
    StudyStore,
    compile_study,
    load_spec,
    load_study_store,
    run_study,
    save_spec,
    study_report,
)

__all__ = [
    "CrashRecovery",
    "CrashStop",
    "FaultSchedule",
    "MessageLoss",
    "RunRecord",
    "StoreCorruptError",
    "StudySpec",
    "StudyStore",
    "api",
    "compile_study",
    "load_spec",
    "load_study_store",
    "run_study",
    "save_spec",
    "simulate",
    "study",
    "study_report",
    "sweep",
    "ACProcessFunction",
    "ColorsAtMost",
    "Configuration",
    "Consensus",
    "EnsembleMetricRecorder",
    "HMajority",
    "HMajorityFunction",
    "MaxSupportAbove",
    "MetricRecorder",
    "SimulationResult",
    "ThreeMajority",
    "ThreeMajorityFunction",
    "TwoChoices",
    "TwoMedian",
    "UndecidedDynamics",
    "Voter",
    "VoterFunction",
    "__version__",
    "appendix_b_counterexample",
    "consensus_time",
    "majorizes",
    "make_process",
    "reduction_time",
    "run",
    "run_ensemble",
    "strassen_coupling",
    "symmetry_breaking_time",
    "validate",
    "verify_dominance_exhaustive",
]
