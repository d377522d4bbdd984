"""Configuration space of anonymous consensus processes.

The system state after any round is described by a vector ``c`` whose
``i``-th component counts the nodes currently supporting color ``i``
(Section 2.1 of the paper).  This module provides :class:`Configuration`,
an immutable, validated wrapper around such a vector, together with the
derived quantities used throughout the paper: the number of remaining
colors, the bias, the sorted tail sums used by vector majorization, and
the squared 2-norm of the fraction vector that appears in the
3-Majority process function (Equation (2)).

Configurations compare with ``>=`` in the majorization preorder, which is
the paper's measure of closeness to consensus: the consensus configuration
majorizes every other configuration, and the ``n``-color (leader election)
configuration is minimal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Configuration"]


def _as_count_array(counts: Iterable[int]) -> np.ndarray:
    """Convert ``counts`` into a validated non-negative int64 numpy array."""
    arr = np.asarray(list(counts) if not isinstance(counts, np.ndarray) else counts)
    if arr.ndim != 1:
        raise ValueError(f"configuration must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("configuration must contain at least one color slot")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded):
            raise ValueError("configuration counts must be integers")
        arr = rounded
    arr = arr.astype(np.int64)
    if np.any(arr < 0):
        raise ValueError("configuration counts must be non-negative")
    return arr


class Configuration:
    """An immutable population state ``c`` with ``sum(c) = n``.

    Parameters
    ----------
    counts:
        Support of each color.  Zero entries are allowed (and meaningful:
        they keep color indices stable over time).

    Examples
    --------
    >>> c = Configuration([3, 1, 0])
    >>> c.num_nodes
    4
    >>> c.num_colors
    2
    >>> c.is_consensus
    False
    >>> Configuration([4, 0, 0]).is_consensus
    True
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Iterable[int]):
        arr = _as_count_array(counts)
        total = int(arr.sum())
        if total == 0:
            raise ValueError("configuration must describe at least one node")
        arr.setflags(write=False)
        self._counts = arr
        self._hash = hash((total, tuple(int(v) for v in arr)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(cls, colors: Sequence[int], num_slots: int | None = None) -> "Configuration":
        """Build a configuration from a per-node color assignment.

        ``colors[u]`` is the color id of node ``u``.  ``num_slots`` pads the
        count vector with zero entries so that configurations produced from
        different assignments share a common color index space.
        """
        colors_arr = np.asarray(colors, dtype=np.int64)
        if colors_arr.ndim != 1 or colors_arr.size == 0:
            raise ValueError("assignment must be a non-empty one-dimensional sequence")
        if np.any(colors_arr < 0):
            raise ValueError("color ids must be non-negative")
        width = int(colors_arr.max()) + 1
        if num_slots is not None:
            if num_slots < width:
                raise ValueError(f"num_slots={num_slots} too small for max color id {width - 1}")
            width = num_slots
        return cls(np.bincount(colors_arr, minlength=width))

    @classmethod
    def monochromatic(cls, n: int, color: int = 0, num_slots: int | None = None) -> "Configuration":
        """The consensus configuration: all ``n`` nodes support ``color``."""
        if n <= 0:
            raise ValueError("n must be positive")
        width = max(color + 1, num_slots or 0)
        counts = np.zeros(width, dtype=np.int64)
        counts[color] = n
        return cls(counts)

    @classmethod
    def singletons(cls, n: int) -> "Configuration":
        """The n-color (leader election) configuration: pairwise distinct colors."""
        if n <= 0:
            raise ValueError("n must be positive")
        return cls(np.ones(n, dtype=np.int64))

    @classmethod
    def balanced(cls, n: int, k: int) -> "Configuration":
        """``k`` colors with supports as equal as possible (max bias 1)."""
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        base, extra = divmod(n, k)
        counts = np.full(k, base, dtype=np.int64)
        counts[:extra] += 1
        return cls(counts)

    @classmethod
    def biased(cls, n: int, k: int, bias: int) -> "Configuration":
        """``k`` colors, near-balanced except color 0 leads color 1 by ``bias``.

        The *bias* is the paper's notion (footnote 3): the difference between
        the supports of the most and second-most common colors.
        """
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        if bias < 0:
            raise ValueError("bias must be non-negative")
        if bias > n:
            raise ValueError(f"bias={bias} exceeds n={n}")
        # Construction: tail colors 2..k-1 get q nodes each, the leader and
        # runner-up absorb the remainder in pairs (preserving the gap):
        #   c1 = q + s,  c0 = c1 + bias,  with  2s = (n - bias) mod k.
        q, r = divmod(n - bias, k)
        counts = np.full(k, q, dtype=np.int64)
        if r % 2 == 1:
            # Make the remainder even by docking one tail color.
            if k >= 3 and q >= 1:
                counts[k - 1] -= 1
                r += 1
            else:
                raise ValueError(
                    f"bias={bias} not achievable exactly with n={n}, k={k} "
                    "(parity obstruction); adjust bias by one"
                )
        s = r // 2
        counts[1] += s
        counts[0] += s + bias
        if counts.min() < 0 or counts.sum() != n:
            raise ValueError(f"bias={bias} not achievable with n={n}, k={k}")
        return cls(counts)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def counts_array(self) -> np.ndarray:
        """The (read-only) underlying int64 count vector."""
        return self._counts

    @property
    def counts(self) -> tuple:
        """Counts as a plain tuple of ints."""
        return tuple(int(v) for v in self._counts)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ``n``."""
        return int(self._counts.sum())

    @property
    def num_slots(self) -> int:
        """Length of the count vector (including zero entries)."""
        return int(self._counts.size)

    @property
    def num_colors(self) -> int:
        """Number of *remaining* colors (non-zero entries)."""
        return int(np.count_nonzero(self._counts))

    @property
    def is_consensus(self) -> bool:
        """True iff a single color supports all nodes."""
        return self.num_colors == 1

    @property
    def max_support(self) -> int:
        """Support of the most common color (the paper's ``ℓ``)."""
        return int(self._counts.max())

    @property
    def bias(self) -> int:
        """Support gap between the most and second-most common colors."""
        if self._counts.size == 1:
            return int(self._counts[0])
        top_two = np.partition(self._counts, self._counts.size - 2)[-2:]
        return int(top_two[1] - top_two[0])

    def support(self, color: int) -> int:
        """Support of ``color`` (0 for out-of-range colors)."""
        if 0 <= color < self._counts.size:
            return int(self._counts[color])
        return 0

    def plurality_colors(self) -> tuple:
        """All colors whose support attains :attr:`max_support`."""
        top = self._counts.max()
        return tuple(int(i) for i in np.flatnonzero(self._counts == top))

    def remaining_colors(self) -> tuple:
        """Color ids with non-zero support."""
        return tuple(int(i) for i in np.flatnonzero(self._counts))

    # ------------------------------------------------------------------
    # Derived vectors
    # ------------------------------------------------------------------
    def fractions(self) -> np.ndarray:
        """The fraction vector ``x = c / n`` used by the process functions."""
        return self._counts / self.num_nodes

    def sorted_desc(self) -> np.ndarray:
        """Counts sorted non-increasingly (the paper's ``c↓``)."""
        out = np.sort(self._counts)[::-1]
        return out

    def prefix_sums_desc(self) -> np.ndarray:
        """Partial sums of the sorted counts: entry ``j`` is the total support
        of the ``j+1`` largest colors — the quantities compared by ``⪰``."""
        return np.cumsum(self.sorted_desc())

    def squared_two_norm_of_fractions(self) -> float:
        """``‖c/n‖₂²``, the collision probability of two uniform samples.

        This is the quantity appearing in the 3-Majority process function
        (Equation (2)) and in footnote 2's expected-drift identity.
        """
        x = self.fractions()
        return float(np.dot(x, x))

    def entropy(self) -> float:
        """Shannon entropy (nats) of the color distribution."""
        x = self.fractions()
        nz = x[x > 0]
        return float(-np.sum(nz * np.log(nz)))

    def monochromatic_fraction(self) -> float:
        """Fraction of nodes on the plurality color."""
        return self.max_support / self.num_nodes

    # ------------------------------------------------------------------
    # Majorization preorder
    # ------------------------------------------------------------------
    def majorizes(self, other: "Configuration") -> bool:
        """True iff ``self ⪰ other`` in the vector majorization preorder.

        Both configurations must describe the same number of nodes; slot
        vectors of different lengths are compared after implicit zero
        padding (zero entries never affect majorization).
        """
        if self.num_nodes != other.num_nodes:
            raise ValueError(
                f"cannot compare configurations of {self.num_nodes} and "
                f"{other.num_nodes} nodes under majorization"
            )
        a = self.prefix_sums_desc()
        b = other.prefix_sums_desc()
        width = max(a.size, b.size)
        a = np.pad(a, (0, width - a.size), mode="edge")
        b = np.pad(b, (0, width - b.size), mode="edge")
        return bool(np.all(a >= b))

    def __ge__(self, other: "Configuration") -> bool:
        return self.majorizes(other)

    def __le__(self, other: "Configuration") -> bool:
        return other.majorizes(self)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        if self._counts.size != other._counts.size:
            # Equal iff they agree after padding with zeros.
            small, big = sorted((self._counts, other._counts), key=len)
            return bool(
                np.array_equal(big[: small.size], small) and not big[small.size:].any()
            )
        return bool(np.array_equal(self._counts, other._counts))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return self.num_slots

    def __getitem__(self, color: int) -> int:
        return int(self._counts[color])

    def __iter__(self):
        return iter(self.counts)

    def __repr__(self) -> str:
        shown = ", ".join(str(int(v)) for v in self._counts[:16])
        suffix = ", ..." if self._counts.size > 16 else ""
        return (
            f"Configuration([{shown}{suffix}] n={self.num_nodes} "
            f"colors={self.num_colors})"
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def canonical(self) -> "Configuration":
        """Sorted-descending representative of the anonymity class.

        AC-process dynamics are invariant under relabelling colors, so the
        sorted vector (with trailing zeros dropped) is a canonical form.
        """
        sorted_counts = self.sorted_desc()
        nz = int(np.count_nonzero(sorted_counts))
        return Configuration(sorted_counts[: max(nz, 1)])

    def with_slots(self, num_slots: int) -> "Configuration":
        """Zero-pad (or validate) the count vector to ``num_slots`` entries."""
        if num_slots < self.num_slots:
            if self._counts[num_slots:].any():
                raise ValueError("cannot drop slots with non-zero support")
            return Configuration(self._counts[:num_slots])
        padded = np.zeros(num_slots, dtype=np.int64)
        padded[: self.num_slots] = self._counts
        return Configuration(padded)

    def to_assignment(self) -> np.ndarray:
        """Expand into an arbitrary per-node color assignment (sorted by color)."""
        return np.repeat(np.arange(self.num_slots, dtype=np.int64), self._counts)
