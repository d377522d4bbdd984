"""The :class:`ExecutionPolicy` — supervision rules for cell execution.

A study cell can fail three ways, and each deserves different handling:

* **transient** faults of the execution substrate — a ``MemoryError``,
  an ``OSError`` — recover on retry (with backoff, so a struggling
  machine gets air) and, failing that, on a *degraded* backend further
  down the capability ladder;
* **fatal** configuration errors — ``ValueError`` and friends raised at
  plan-compile or backend-resolution time — are deterministic, so every
  retry would waste the same wall time and fail the same way: fail fast;
* **unknown** errors (anything else, e.g.
  :class:`~repro.engine.simulator.RoundLimitExceeded` on a stochastic
  run) keep the historical behaviour: retry on a jittered sub-seed.

The policy is a plain dataclass of plain values, so it rides a
:class:`~repro.study.spec.StudySpec` as an optional ``[execution]`` TOML
table with the same default-elision contract as the faults axis: a
policy equal to the defaults serialises to *nothing*, keeping every
pre-existing ``spec_hash`` (and therefore every existing store and cell
id) valid.  The policy itself never enters cell params — it changes how
cells are *supervised*, never what they *measure*.

Backoff is deterministic: the delay before retry ``attempt`` is
``backoff_s * 2**(attempt-1)`` capped at ``backoff_max_s`` and jittered
into ``[1-jitter, 1+jitter]`` by a uniform variate derived from
``(cell seed, attempt)`` via :func:`~repro.engine.rng.derive_seed` — a
re-run of the same study sleeps the same schedule.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Mapping

from ..engine.rng import derive_seed

__all__ = [
    "POLICY_KEYS",
    "CellDeadlineExceeded",
    "ExecutionPolicy",
    "as_execution_policy",
    "backoff_delay",
    "canonical_policy_value",
    "classify_error",
    "encode_policy_value",
    "resolve_policy",
]

#: Canonical key order with default values (mirrors ``FAULT_KEYS``).
POLICY_KEYS = (
    ("deadline_s", None),
    ("max_attempts", 2),
    ("backoff_s", 0.05),
    ("backoff_max_s", 30.0),
    ("jitter", 0.5),
    ("degrade", True),
)

#: Exception types whose failures are infrastructure, not model, errors:
#: a retry (or a degraded backend) can genuinely succeed.
TRANSIENT_ERRORS = (MemoryError, OSError)

#: Deterministic configuration errors: retrying replays the same failure.
FATAL_ERRORS = (
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    IndexError,
    NotImplementedError,
    ZeroDivisionError,
)


class CellDeadlineExceeded(RuntimeError):
    """A cell attempt ran past its :attr:`ExecutionPolicy.deadline_s`.

    Raised by the runner's deadline helper (never by the engines themselves);
    the cell lands in the store as ``status="timeout"`` and ``resume``
    re-attempts it like any other non-ok cell.
    """

    def __init__(self, deadline_s: float):
        super().__init__(
            f"cell exceeded its {deadline_s:g}s execution deadline"
        )
        self.deadline_s = deadline_s


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the runner supervises one cell (see the module docstring).

    All-default instances are the implicit policy of every pre-existing
    spec: two attempts, no deadline, degradation on — exactly the PR 6
    retry behaviour plus the new escape hatches.
    """

    #: Wall-clock budget per *attempt*, seconds; ``None`` = unlimited.
    #: A timed-out cell is recorded as ``status="timeout"`` without
    #: further in-run attempts (a hang would burn the budget again);
    #: ``resume`` re-attempts it.
    deadline_s: "float | None" = None
    #: Total attempts per cell (first attempt included).
    max_attempts: int = 2
    #: Base backoff delay before the first retry, seconds.
    backoff_s: float = 0.05
    #: Cap on the exponentially-growing backoff delay, seconds.
    backoff_max_s: float = 30.0
    #: Multiplicative jitter half-width in ``[0, 1]``: the delay is
    #: scaled into ``[1-jitter, 1+jitter]`` deterministically.
    jitter: float = 0.5
    #: Re-resolve down the capability ladder (ensemble/kernel →
    #: sequential) when transient retries exhaust.
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("execution.deadline_s must be positive")
        if int(self.max_attempts) < 1:
            raise ValueError("execution.max_attempts must be positive")
        object.__setattr__(self, "max_attempts", int(self.max_attempts))
        if self.backoff_s < 0:
            raise ValueError("execution.backoff_s must be non-negative")
        if self.backoff_max_s < 0:
            raise ValueError("execution.backoff_max_s must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("execution.jitter must lie in [0, 1]")


def canonical_policy_value(value) -> "dict | None":
    """Normalise a declarative execution value to its canonical dict.

    Accepts ``None``, an :class:`ExecutionPolicy`, or a mapping with any
    subset of the canonical keys.  A value equal to the all-defaults
    policy collapses to ``None`` — same supervision, same encoding, same
    ``spec_hash`` — mirroring the rate-0 collapse of the faults axis.
    """
    if value is None:
        return None
    if isinstance(value, ExecutionPolicy):
        items = {key: getattr(value, key) for key, _default in POLICY_KEYS}
    else:
        try:
            items = dict(value)
        except (TypeError, ValueError):
            raise TypeError(
                f"execution must be a table or ExecutionPolicy, got {value!r}"
            ) from None
    known = {key for key, _default in POLICY_KEYS}
    unknown = set(items) - known
    if unknown:
        raise KeyError(
            f"unknown execution keys {sorted(unknown)}; known keys are "
            f"{sorted(known)}"
        )
    out = {}
    for key, default in POLICY_KEYS:
        raw = items.get(key, default)
        if key == "max_attempts":
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise TypeError(
                    f"execution.max_attempts must be an int, got {raw!r}"
                )
        elif key == "degrade":
            if not isinstance(raw, bool):
                raise TypeError(
                    f"execution.degrade must be a bool, got {raw!r}"
                )
        elif key == "deadline_s" and raw in (None, "none"):
            raw = None
        else:
            # Checked, not coerced: float(True) or float("5") would hash
            # and run as a number the spec never wrote.
            if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
                raise TypeError(f"execution.{key} must be a number, got {raw!r}")
            raw = float(raw)
        out[key] = raw
    ExecutionPolicy(**out)  # validation lives in one place
    if out == dict(POLICY_KEYS):
        return None
    return out


def encode_policy_value(value) -> "dict | None":
    """JSON/TOML-friendly form: drop default-valued keys; defaults vanish."""
    value = canonical_policy_value(value)
    if value is None:
        return None
    return {
        key: value[key]
        for key, default in POLICY_KEYS
        if value[key] != default
    }


def as_execution_policy(value) -> ExecutionPolicy:
    """Compile a declarative execution value into a live policy."""
    if isinstance(value, ExecutionPolicy):
        return value
    value = canonical_policy_value(value)
    if value is None:
        return ExecutionPolicy()
    return ExecutionPolicy(**value)


def resolve_policy(
    policy=None,
    spec_value=None,
    *,
    max_attempts: "int | None" = None,
    deadline_s: "float | None" = None,
) -> ExecutionPolicy:
    """The runner's precedence rule: explicit policy > spec table > defaults.

    ``max_attempts`` / ``deadline_s`` are the CLI-flag overrides; they
    patch whichever base policy won.
    """
    base = as_execution_policy(policy if policy is not None else spec_value)
    overrides = {}
    if max_attempts is not None:
        overrides["max_attempts"] = int(max_attempts)
    if deadline_s is not None:
        overrides["deadline_s"] = float(deadline_s)
    return replace(base, **overrides) if overrides else base


def classify_error(exc: BaseException) -> str:
    """``"transient"`` | ``"fatal"`` | ``"unknown"`` (see module docstring).

    An exception type can opt into transience by setting a ``transient``
    class attribute — useful for exceptions that are also ``ValueError``
    subclasses.  The transient check runs first so, e.g., an ``OSError``
    subclass used as a config error would need explicit
    ``transient = False``.
    """
    if getattr(exc, "transient", False):
        return "transient"
    if isinstance(exc, TRANSIENT_ERRORS):
        return "transient"
    if isinstance(exc, FATAL_ERRORS):
        return "fatal"
    return "unknown"


def backoff_delay(policy: ExecutionPolicy, cell_seed: int, attempt: int) -> float:
    """Deterministic jittered delay before retry ``attempt`` (1-based).

    Exponential in the attempt number, capped, and jittered into
    ``[1-jitter, 1+jitter]`` by a uniform variate derived from the cell
    seed — two runs of the same study back off identically, but two
    cells (or two attempts) never sleep in lock-step.
    """
    if attempt < 1:
        return 0.0
    base = min(policy.backoff_s * (2.0 ** (attempt - 1)), policy.backoff_max_s)
    if base == 0.0:
        return 0.0
    uniform = derive_seed(cell_seed, attempt) / float(2**63)
    return base * (1.0 - policy.jitter + 2.0 * policy.jitter * uniform)
