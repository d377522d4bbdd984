"""Graph abstractions with vectorised uniform neighbor sampling.

Only one operation is needed by the Voter / coalescence engines: given a
vector of node ids, draw one uniform neighbor for each — the Uniform Pull
primitive.  :class:`CompleteGraph` implements the paper's setting (where a
"neighbor" is a uniformly random node, self included, matching
``α^V_i = c_i/n``); :class:`ExplicitGraph` wraps an arbitrary undirected
graph (e.g. built by networkx) in CSR adjacency form for O(1) sampling.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "SampleableGraph",
    "CompleteGraph",
    "CycleGraph",
    "ExplicitGraph",
    "random_regular_graph",
]


class SampleableGraph(abc.ABC):
    """A graph exposing batched uniform neighbor sampling."""

    #: Number of nodes.
    num_nodes: int

    @abc.abstractmethod
    def sample_neighbors(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform neighbor per entry of ``nodes`` (vectorised)."""

    def pull_matrix(self, rounds: int, rng: np.random.Generator) -> np.ndarray:
        """Pre-draw pull choices for every node and round.

        Returns ``Y`` of shape ``(rounds, num_nodes)`` with
        ``Y[t, u]`` the node that ``u`` pulls from in round ``t`` — the
        shared-randomness object of the Lemma-4 duality coupling.
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        all_nodes = np.arange(self.num_nodes, dtype=np.int64)
        out = np.empty((rounds, self.num_nodes), dtype=np.int64)
        for t in range(rounds):
            out[t] = self.sample_neighbors(all_nodes, rng)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.num_nodes})"


class CompleteGraph(SampleableGraph):
    """The paper's substrate: every pull hits a uniform node.

    ``include_self=True`` (default) matches the paper's process functions
    exactly (a node can sample itself: ``α^V_i = c_i / n``).  Set it to
    False for the classical graph-theoretic complete graph ``K_n``.
    """

    def __init__(self, num_nodes: int, include_self: bool = True):
        if num_nodes < 1:
            raise ValueError("graph needs at least one node")
        if num_nodes == 1 and not include_self:
            raise ValueError("K_1 without self-loops has no neighbors to pull")
        self.num_nodes = int(num_nodes)
        self.include_self = bool(include_self)

    def sample_neighbors(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = self.num_nodes
        draws = rng.integers(0, n if self.include_self else n - 1, size=nodes.shape)
        if self.include_self:
            return draws
        # Skip-over-self trick: values >= own id shift up by one.
        return draws + (draws >= nodes)


class CycleGraph(SampleableGraph):
    """The n-cycle: each pull picks the left or right neighbor uniformly.

    Included as a high-mixing-time contrast for the duality experiments:
    Lemma 4's *exact* coupling holds on every graph, including ones where
    the coalescence time is far from the complete graph's ``Θ(n)``.

    .. warning::
       For *even* ``n`` the cycle is bipartite and the synchronous Voter
       process can absorb into the alternating 2-coloring, oscillating
       forever without consensus — dually, two coalescing walks started
       at odd distance preserve their distance parity and never meet.
       This is a property of synchronous dynamics on bipartite graphs,
       not a bug; use an odd cycle when consensus must be reachable.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 3:
            raise ValueError("a cycle needs at least three nodes")
        self.num_nodes = int(num_nodes)

    def sample_neighbors(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        steps = rng.choice(np.asarray([-1, 1], dtype=np.int64), size=nodes.shape)
        return (nodes + steps) % self.num_nodes


class ExplicitGraph(SampleableGraph):
    """An arbitrary undirected graph in CSR adjacency form.

    Accepts any connected :class:`networkx.Graph` with nodes relabelled to
    ``0..n-1``; sampling draws a uniform entry of each node's adjacency
    slice.
    """

    def __init__(self, graph: "nx.Graph"):
        import networkx as nx

        if graph.number_of_nodes() < 2:
            raise ValueError("graph needs at least two nodes")
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
        if not nx.is_connected(graph):
            raise ValueError("graph must be connected for consensus to be reachable")
        n = graph.number_of_nodes()
        degrees = np.zeros(n, dtype=np.int64)
        for u in range(n):
            degrees[u] = graph.degree[u]
        if np.any(degrees == 0):
            raise ValueError("isolated nodes cannot pull")
        self.num_nodes = n
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self._offsets[1:])
        self._adjacency = np.empty(int(degrees.sum()), dtype=np.int64)
        cursor = self._offsets[:-1].copy()
        for u, v in graph.edges():
            self._adjacency[cursor[u]] = v
            cursor[u] += 1
            self._adjacency[cursor[v]] = u
            cursor[v] += 1
        self._degrees = degrees

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return int(self._degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Adjacency slice of ``node`` (read-only view)."""
        return self._adjacency[self._offsets[node]: self._offsets[node + 1]]

    def sample_neighbors(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        degs = self._degrees[nodes]
        picks = (rng.random(nodes.shape) * degs).astype(np.int64)
        return self._adjacency[self._offsets[nodes] + picks]


def random_regular_graph(
    num_nodes: int, degree: int, rng: np.random.Generator
) -> ExplicitGraph:
    """A connected random ``degree``-regular graph (networkx-backed).

    Retries the configuration-model draw until connected (a.a.s. immediate
    for ``degree ≥ 3``).
    """
    if degree < 3:
        raise ValueError("use degree >= 3 so the graph is a.a.s. connected")
    import networkx as nx

    for _ in range(64):
        seed = int(rng.integers(2**31 - 1))
        candidate = nx.random_regular_graph(degree, num_nodes, seed=seed)
        if nx.is_connected(candidate):
            return ExplicitGraph(candidate)
    raise RuntimeError("failed to draw a connected random regular graph")
