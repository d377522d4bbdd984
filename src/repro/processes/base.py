"""Process interfaces: agent-level dynamics and their AC count-level twins.

The paper's model (Section 2.1) is a complete graph of ``n`` anonymous
nodes evolving in synchronous rounds under Uniform Pull.  The library
offers two execution semantics:

* **agent-level** — the literal protocol: an ``n``-vector of colors, every
  node samples uniform nodes and applies its update rule.  This is the
  only faithful semantics for processes that are *not* anonymous consensus
  processes (2-Choices: keeping one's own color makes the next color
  depend on the current one).
* **count-level** — for AC-processes only: one round is a single draw from
  ``Mult(n, α(c))`` (Section 2.2), which is exact and far cheaper when the
  number of colors is small.

:class:`AgentProcess` is the common interface; :class:`ACAgentProcess`
additionally exposes the process function so engines can pick the cheaper
semantics, and so the framework modules can reason about dominance.

Every uniform-pull process on the complete graph also has a *node rule*,
:meth:`AgentProcess.update_from_samples`: a node's next color as a
function of its own color and the colors of its uniform samples.  Both
round rules default to it: :meth:`~AgentProcess.update` draws an
``(n, s)`` block of sample ids (:func:`sample_uniform_nodes`) and
:meth:`~AgentProcess.update_ensemble` one ``(R, s·n)`` block, then each
applies the rule to every node.  h-Majority, lazy Voter and graph Voter
draw something else and override :meth:`~AgentProcess.update`; a
process with neither raises :class:`NotImplementedError` at its first
round.  The asynchronous scheduler applies the node rule to one
activated node per tick; :meth:`AgentProcess.tick_sample_rows` says
which ids a tick draws for it.
"""

from __future__ import annotations

import numpy as np

from ..core.ac_process import ACProcessFunction
from ..core.configuration import Configuration

__all__ = [
    "AgentProcess",
    "ACAgentProcess",
    "row_gather",
    "sample_uniform_nodes",
    "counts_from_colors",
]


def sample_uniform_nodes(
    n: int, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform Pull on the complete graph: each node draws ``num_samples``
    node ids independently and uniformly at random (with replacement,
    self-samples allowed — matching ``α^{V}_i = c_i / n``).

    Returns an ``(n, num_samples)`` int array of sampled node ids.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    return rng.integers(0, n, size=(n, num_samples))


def counts_from_colors(colors: np.ndarray, num_slots: int) -> np.ndarray:
    """Count vector of a per-node color assignment."""
    return np.bincount(colors, minlength=num_slots).astype(np.int64)


def row_gather(colors: np.ndarray, sampled: np.ndarray) -> np.ndarray:
    """Gather ``colors[r, sampled[r]]`` row-wise via one flat ``take``.

    ``ndarray.take`` on the flattened matrix is several times faster than
    ``np.take_along_axis`` for the ensemble engines' ``(R, c·n)`` sample
    shapes (the ``O(R·n)`` gather is the agent-ensemble hot path), and it
    is a pure indexing change: the rng stream is untouched, so batched
    runs stay reproducible.
    """
    reps, n = colors.shape
    offsets = (np.arange(reps, dtype=sampled.dtype) * n)[:, None]
    return colors.ravel().take(sampled + offsets)


class AgentProcess:
    """A synchronous update rule executed by every node in parallel.

    Subclasses implement the node rule :meth:`update_from_samples`, from
    which both round rules follow, or override :meth:`update`.  Updates
    must be *simultaneous*: every sample observes the pre-round colors.
    """

    #: Human-readable protocol name.
    name: str = "process"
    #: Number of uniform samples each node pulls per round.
    samples_per_round: int = 1
    #: Whether the process is an AC-process in the sense of Definition 1.
    is_anonymous: bool = False
    #: True when the ensemble engine advances batched runs lock-step
    #: through :meth:`update_ensemble` (one shared stream, a handful of
    #: array ops for all replicas); the others run replica by replica
    #: (:func:`repro.engine.ensemble.run_replicas`).  2-Median and
    #: Undecided inherit the batched rule but leave this off: their
    #: batched runs have always gone replica by replica, and keeping that
    #: keeps their stored samples.
    has_vectorized_ensemble: bool = False
    #: True when an asynchronous tick draws only the activated node's
    #: :attr:`samples_per_round` ids before applying
    #: :meth:`update_from_samples`.  The lock-step asynchronous engines
    #: vectorize such ticks across replicas, and the wavefront kernel needs
    #: it.  2-Median and Undecided leave it off although they have a node
    #: rule: their tick has always drawn a full round of ids (and reads the
    #: activated node's row), and keeping that keeps their stored samples.
    has_sample_update: bool = False
    #: True when :meth:`kernel_switch_law` is implemented — the
    #: switch-and-redistribute form consumed by the fused kernels
    #: (:mod:`repro.engine.kernels`).
    has_kernel_form: bool = False
    #: True when dead colors stay dead under this process (``q_i = 0``
    #: whenever ``c_i = 0``), so the fused kernels may compact zero-support
    #: slots out of the counts matrix.  All uniform-pull rules implemented
    #: here qualify (a node can only adopt a color it sampled); a process
    #: with spontaneous mutation would not.
    kernel_absorbing_support: bool = False

    def update(self, colors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One synchronous round; returns the next color vector.

        ``colors`` is an ``n``-vector of color ids.  The input array must
        not be mutated.  The default draws an ``(n, s)`` block of uniform
        sample ids (:func:`sample_uniform_nodes`) and applies
        :meth:`update_from_samples` to every node.
        """
        sampled = sample_uniform_nodes(colors.shape[0], self.samples_per_round, rng)
        return self.update_from_samples(colors, colors[sampled], rng)

    def update_from_samples(
        self, own: np.ndarray, picks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The node rule applied to pre-drawn uniform samples.

        ``own`` holds the updating nodes' current colors (any shape) and
        ``picks`` their sampled colors with a trailing axis of length
        :attr:`samples_per_round`; the result has ``own``'s shape.  Every
        uniform-pull process implements it, and its :meth:`update` is
        :func:`sample_uniform_nodes` followed by this rule.  Processes
        whose round draws anything else (h-Majority's tie-break floats,
        lazy Voter's coin, graph pulls) leave it out.
        """
        raise NotImplementedError(
            f"{self.name} does not expose a per-sample update rule"
        )

    def tick_sample_rows(self, n: int) -> "int | None":
        """Rows of :attr:`samples_per_round` ids one asynchronous tick draws.

        A tick first draws its activated node, then

        * ``1`` row, the node's own samples, with :attr:`has_sample_update`;
        * ``n`` rows, a full round of which the tick reads the activated
          node's row, for the other processes with a node rule
          (2-Median, Undecided);
        * ``None`` when the tick draws anything else: only the full
          :meth:`update` reproduces its draws.

        Either way the tick consumes the stream the historical per-tick
        loop did, which is what lets the scheduler draw a whole check
        stride at once.
        """
        if self.has_sample_update:
            return 1
        if type(self).update_from_samples is not AgentProcess.update_from_samples:
            return n
        return None

    def update_node(
        self, colors: np.ndarray, node: int, rng: np.random.Generator
    ) -> int:
        """The next color of ``node`` alone under one asynchronous tick.

        Draws what :meth:`tick_sample_rows` says a tick draws and applies
        :meth:`update_from_samples` to the node's row only: ``O(1)`` rule
        work for every process with a node rule.  The others run the full
        synchronous :meth:`update` and keep the node's entry, correct for
        every process but ``O(n)`` per tick.
        """
        n = colors.shape[0]
        rows = self.tick_sample_rows(n)
        if rows is None:
            return self.update(colors, rng)[node]
        ids = rng.integers(0, n, size=(rows, self.samples_per_round))
        return self.update_from_samples(
            colors[node], colors[ids[node if rows > 1 else 0]], rng
        )

    def update_ensemble(
        self, colors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One synchronous round for an ``(R, n)`` ensemble of replicas.

        One ``(R, s·n)`` draw of sample ids from the shared stream,
        gathered row-wise (:func:`row_gather`), then the node rule: at
        ``R = 1`` the draws and values of :meth:`update`, and replicas stay
        independent because every row consumes fresh variates.  The
        engines use it only for :attr:`has_vectorized_ensemble` processes.
        """
        reps, n = colors.shape
        samples = self.samples_per_round
        sampled = rng.integers(0, n, size=(reps, samples * n))
        picks = row_gather(colors, sampled).reshape(reps, n, samples)
        return self.update_from_samples(colors, picks, rng)

    def kernel_switch_law(
        self, counts: np.ndarray
    ) -> "tuple[np.ndarray | None, np.ndarray]":
        """The one-round law in switch-and-redistribute form.

        For an ``(R, k)`` counts matrix (each row summing to ``n``), return
        ``(sigma, q)`` where, conditioned on the current fractions
        ``x = c / n``:

        * ``sigma`` — ``(R, k)`` per-class *switch* probability: each node
          of class ``i`` drops its color independently with probability
          ``sigma[r, i]``.  ``None`` means every node redraws (``σ ≡ 1``).
        * ``q`` — ``(R, k)`` *destination* law: every switching node picks
          its new color iid from ``q[r]`` (rows sum to 1).

        On the complete graph under Uniform Pull, each node's samples are
        iid ``x`` and nodes act independently given ``x``, so any rule of
        the form "switch with a class-dependent probability, land by a
        shared law" is *exactly* lumped by
        ``c' = c − Bin(c, σ) + Mult(Σ switchers, q)`` — the counts chain
        the fused kernels run (:mod:`repro.engine.kernels.sync`).  Only
        processes whose agent dynamics genuinely factor this way may set
        :attr:`has_kernel_form`.
        """
        raise NotImplementedError(
            f"{self.name} has no switch-and-redistribute kernel form"
        )

    def kernel_supported(self, config: Configuration) -> bool:
        """Whether the fused kernels may run this process from ``config``.

        Defaults to :attr:`has_kernel_form`; processes whose law is only
        tractable for narrow configurations (enumerated ``α``) override
        with their width limits.
        """
        return self.has_kernel_form

    def initial_colors(self, config: Configuration) -> np.ndarray:
        """Expand a configuration into a per-node assignment for this process.

        Processes with auxiliary per-node state (e.g. Undecided dynamics)
        may override to initialise it.
        """
        return config.to_assignment()

    def configuration_of(self, colors: np.ndarray, num_slots: int) -> Configuration:
        """Project a color vector back to a :class:`Configuration`."""
        return Configuration(counts_from_colors(colors, num_slots))

    def has_converged(self, colors: np.ndarray) -> bool:
        """Default consensus predicate: all nodes share one color."""
        return bool(np.all(colors == colors[0]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ACAgentProcess(AgentProcess):
    """An agent-level process that is also an AC-process.

    Exposes the matching :class:`ACProcessFunction`, enabling

    * exact count-level simulation (``Mult(n, α(c))`` per round), and
    * participation in the dominance / coupling framework.

    The test-suite cross-validates the two semantics against each other:
    for an AC-process the count vector of the agent-level update is
    *identically distributed* to the count-level multinomial draw.
    """

    is_anonymous = True
    # Every AC-process is trivially in switch-and-redistribute form:
    # all nodes redraw (σ ≡ 1) and land by α(x) — Definition 1 verbatim.
    has_kernel_form = True
    kernel_absorbing_support = True

    def __init__(self, process_function: ACProcessFunction):
        self._function = process_function
        self.name = process_function.name

    @property
    def process_function(self) -> ACProcessFunction:
        """The process function ``α`` of Definition 1."""
        return self._function

    def supports_count_backend(self, config: Configuration) -> bool:
        """Whether the exact count-level chain is practical from ``config``.

        Most AC-processes have closed-form ``α`` and always return True;
        processes whose exact ``α`` requires enumeration (h-Majority)
        override this with their width limits.
        """
        return True

    def kernel_switch_law(
        self, counts: np.ndarray
    ) -> "tuple[np.ndarray | None, np.ndarray]":
        """``σ ≡ 1``, ``q = α(x)`` — the AC one-round law (Definition 1)."""
        return None, self._function.probabilities_batch(counts)

    def kernel_supported(self, config: Configuration) -> bool:
        """Kernel tractability coincides with count-chain tractability:
        both need ``α`` evaluable at the configuration's width."""
        return self.has_kernel_form and self.supports_count_backend(config)

    def adoption_probabilities(self, config: Configuration) -> np.ndarray:
        """``α(c)`` for the given configuration."""
        return self._function.probabilities_for(config)

    def step_counts(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Exact count-level round (delegates to the process function)."""
        return self._function.step_counts(counts, rng)

    def step_counts_ensemble(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Exact count-level round for an ``(R, k)`` ensemble of replicas.

        Delegates to the process function's batched sampler: row-wise
        ``α`` (vectorized where a closed form exists) followed by one
        broadcast multinomial draw for the whole ensemble.
        """
        return self._function.step_counts_batch(counts, rng)
