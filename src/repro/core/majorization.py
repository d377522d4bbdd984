"""Vector majorization and Schur-convexity primitives.

This module implements the order-theoretic machinery of Section 2 of the
paper (and of Marshall-Olkin-Arnold [MOA11], its main reference):

* the majorization preorder ``x ⪰ y`` on real vectors,
* weak (sub-)majorization,
* Lorenz curves and top-``j`` partial sums,
* Robin-Hood / T-transforms, which generate the preorder,
* doubly-stochastic mixing (Hardy-Littlewood-Pólya),
* numerical Schur-convexity checks used by the stochastic-majorization
  test functions of Definition 3.

All comparisons accept a ``tol`` so that probability vectors produced by
floating-point arithmetic compare robustly.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "sorted_desc",
    "top_j_sums",
    "majorizes",
    "weakly_submajorizes",
    "strictly_majorizes",
    "majorization_gap",
    "lorenz_curve",
    "t_transform",
    "robin_hood_chain",
    "doubly_stochastic_mix",
    "random_doubly_stochastic",
    "is_doubly_stochastic",
    "schur_convex_violations",
    "standard_schur_convex_family",
    "dalton_transfer_preserves",
]


def sorted_desc(x: Iterable[float]) -> np.ndarray:
    """Return ``x`` sorted non-increasingly as a float array (the paper's x↓)."""
    arr = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("majorization is defined on one-dimensional vectors")
    return np.sort(arr)[::-1]


def top_j_sums(x: Iterable[float]) -> np.ndarray:
    """Partial sums of the sorted vector; entry ``j`` sums the ``j+1`` largest.

    These are exactly the Schur-convex test functions used to define the
    majorization preorder: ``x ⪰ y`` iff every top-j sum of ``x`` is at
    least the corresponding sum of ``y`` (with equal totals).
    """
    return np.cumsum(sorted_desc(x))


def _padded_prefix_pair(x, y) -> tuple:
    a = top_j_sums(x)
    b = top_j_sums(y)
    width = max(a.size, b.size)
    a = np.pad(a, (0, width - a.size), mode="edge")
    b = np.pad(b, (0, width - b.size), mode="edge")
    return a, b


def majorizes(x: Iterable[float], y: Iterable[float], tol: float = 1e-12) -> bool:
    """True iff ``x ⪰ y``: equal totals and dominating top-j partial sums.

    Vectors of different lengths are compared after zero padding, which is
    the standard convention (and the one the paper uses when comparing
    probability vectors whose supports differ).
    """
    a, b = _padded_prefix_pair(x, y)
    if abs(a[-1] - b[-1]) > tol * max(1.0, abs(a[-1]), abs(b[-1])):
        return False
    return bool(np.all(a >= b - tol))


def weakly_submajorizes(x: Iterable[float], y: Iterable[float], tol: float = 1e-12) -> bool:
    """True iff ``x ⪰_w y``: dominating top-j sums, totals unconstrained."""
    a, b = _padded_prefix_pair(x, y)
    return bool(np.all(a >= b - tol))


def strictly_majorizes(x: Iterable[float], y: Iterable[float], tol: float = 1e-12) -> bool:
    """True iff ``x ⪰ y`` and the sorted vectors differ."""
    if not majorizes(x, y, tol=tol):
        return False
    a = sorted_desc(x)
    b = sorted_desc(y)
    width = max(a.size, b.size)
    a = np.pad(a, (0, width - a.size))
    b = np.pad(b, (0, width - b.size))
    return bool(np.any(np.abs(a - b) > tol))


def majorization_gap(x: Iterable[float], y: Iterable[float]) -> float:
    """Largest violation of ``x ⪰ y`` over the top-j sums (0 when x ⪰ y).

    A quantitative companion to :func:`majorizes`: the maximum over ``j`` of
    ``top_j(y) - top_j(x)`` clipped below at zero.  Useful for reporting
    *how badly* dominance fails, e.g. in the Appendix-B counterexample.
    """
    a, b = _padded_prefix_pair(x, y)
    return float(np.clip(b - a, 0.0, None).max())


def lorenz_curve(x: Iterable[float]) -> np.ndarray:
    """Normalised Lorenz curve: top-j sums divided by the total.

    The consensus configuration has the extremal curve (1, 1, ..., 1); the
    all-singletons configuration has the diagonal.
    """
    sums = top_j_sums(x)
    total = sums[-1]
    if total == 0:
        raise ValueError("Lorenz curve undefined for zero-total vectors")
    return sums / total


def t_transform(x: Sequence[float], i: int, j: int, amount: float) -> np.ndarray:
    """Apply a Robin-Hood (Dalton) transfer moving ``amount`` from ``x[i]`` to ``x[j]``.

    Requires ``x[i] >= x[j]`` and ``0 <= amount <= (x[i] - x[j]) / 2`` so
    the result is majorized by ``x``.  T-transforms generate majorization:
    ``x ⪰ y`` iff ``y`` is reachable from ``x`` by finitely many of them
    (Muirhead / Hardy-Littlewood-Pólya).
    """
    arr = np.asarray(x, dtype=float).copy()
    if i == j:
        raise ValueError("transfer endpoints must differ")
    if arr[i] < arr[j]:
        raise ValueError("transfer must flow from the larger to the smaller entry")
    if amount < 0 or amount > (arr[i] - arr[j]) / 2:
        raise ValueError("transfer amount must lie in [0, (x_i - x_j)/2]")
    arr[i] -= amount
    arr[j] += amount
    return arr


def robin_hood_chain(
    x: Sequence[float],
    steps: int,
    rng: np.random.Generator,
    max_fraction: float = 1.0,
) -> list:
    """A chain ``x = z_0 ⪰ z_1 ⪰ ... ⪰ z_steps`` of random T-transforms.

    Each step picks a random ordered pair with distinct values and moves a
    random admissible amount.  Used by property-based tests to generate
    comparable vector pairs in bulk.
    """
    if not 0 < max_fraction <= 1.0:
        raise ValueError("max_fraction must lie in (0, 1]")
    chain = [np.asarray(x, dtype=float).copy()]
    for _ in range(steps):
        cur = chain[-1]
        order = np.argsort(cur)
        lo, hi = int(order[0]), int(order[-1])
        if cur[hi] == cur[lo]:
            chain.append(cur.copy())
            continue
        i = int(rng.integers(cur.size))
        j = int(rng.integers(cur.size))
        if cur[i] < cur[j]:
            i, j = j, i
        if i == j or cur[i] == cur[j]:
            i, j = hi, lo
        limit = (cur[i] - cur[j]) / 2 * max_fraction
        amount = float(rng.uniform(0.0, limit))
        chain.append(t_transform(cur, i, j, amount))
    return chain


def doubly_stochastic_mix(x: Sequence[float], matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix @ x`` after validating that ``matrix`` is doubly stochastic.

    By the Hardy-Littlewood-Pólya theorem the result is majorized by ``x``.
    """
    if not is_doubly_stochastic(matrix):
        raise ValueError("matrix is not doubly stochastic")
    arr = np.asarray(x, dtype=float)
    if matrix.shape != (arr.size, arr.size):
        raise ValueError("matrix shape does not match vector length")
    return matrix @ arr


def random_doubly_stochastic(d: int, rng: np.random.Generator, mixes: int = 32) -> np.ndarray:
    """A random doubly stochastic matrix: a convex mix of random permutations.

    By Birkhoff-von Neumann every doubly stochastic matrix arises this way;
    we sample ``mixes`` permutation matrices with Dirichlet weights.
    """
    if d <= 0:
        raise ValueError("dimension must be positive")
    weights = rng.dirichlet(np.ones(mixes))
    out = np.zeros((d, d))
    for w in weights:
        perm = rng.permutation(d)
        out[np.arange(d), perm] += w
    return out


def is_doubly_stochastic(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Check non-negativity and unit row/column sums."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if np.any(m < -tol):
        return False
    ones = np.ones(m.shape[0])
    return bool(
        np.allclose(m.sum(axis=0), ones, atol=tol)
        and np.allclose(m.sum(axis=1), ones, atol=tol)
    )


def standard_schur_convex_family(d: int) -> list:
    """A finite family of Schur-convex functions on R^d used as test functions.

    Contains the top-j sums for every ``j`` (which *characterise*
    majorization together with the total), the squared 2-norm, the maximum,
    and the negative entropy — all classic Schur-convex functions.  The
    family is used to falsify claimed stochastic majorizations
    (Definition 3) empirically.
    """
    family: list = []

    def _top_j(j: int) -> Callable:
        def phi(x: np.ndarray) -> float:
            return float(np.sort(np.asarray(x, dtype=float))[::-1][: j + 1].sum())

        phi.__name__ = f"top_{j + 1}_sum"
        return phi

    for j in range(d):
        family.append(_top_j(j))

    def squared_norm(x: np.ndarray) -> float:
        arr = np.asarray(x, dtype=float)
        return float(np.dot(arr, arr))

    family.append(squared_norm)

    def maximum(x: np.ndarray) -> float:
        return float(np.max(x))

    family.append(maximum)

    def negative_entropy(x: np.ndarray) -> float:
        arr = np.asarray(x, dtype=float)
        total = arr.sum()
        if total <= 0:
            return 0.0
        p = arr / total
        nz = p[p > 0]
        return float(np.sum(nz * np.log(nz)))

    family.append(negative_entropy)
    return family


def schur_convex_violations(
    phi: Callable,
    dimension: int,
    rng: np.random.Generator,
    trials: int = 200,
    tol: float = 1e-9,
) -> int:
    """Count observed violations of Schur-convexity for ``phi``.

    Samples random pairs ``x ⪰ y`` (via Robin-Hood transfers from a random
    base vector) and counts how often ``phi(x) < phi(y) - tol``.  Returns 0
    for genuinely Schur-convex functions; used to validate the library's own
    test-function family.
    """
    violations = 0
    for _ in range(trials):
        base = rng.random(dimension)
        chain = robin_hood_chain(base, steps=3, rng=rng)
        x, y = chain[0], chain[-1]
        if phi(x) < phi(y) - tol:
            violations += 1
    return violations


def dalton_transfer_preserves(
    x: Sequence[float], y: Sequence[float], max_steps: int = 10_000, tol: float = 1e-9
) -> bool:
    """Constructively verify ``x ⪰ y`` by exhibiting a T-transform chain.

    Implements the classic algorithmic proof of the Hardy-Littlewood-Pólya
    theorem: repeatedly transfer from the first sorted position where the
    prefix of ``x`` still exceeds that of ``y``.  Returns True iff a chain
    from ``x↓`` to ``y↓`` is found, i.e. iff ``x ⪰ y``.  Exists mainly to
    cross-validate :func:`majorizes` in tests.
    """
    a = sorted_desc(x)
    b = sorted_desc(y)
    width = max(a.size, b.size)
    a = np.pad(a, (0, width - a.size))
    b = np.pad(b, (0, width - b.size))
    if abs(a.sum() - b.sum()) > tol * max(1.0, abs(a.sum())):
        return False
    for _ in range(max_steps):
        a = np.sort(a)[::-1]
        diff = a - b
        if np.all(np.abs(diff) <= tol):
            return True
        surplus_idx = np.flatnonzero(diff > tol)
        deficit_idx = np.flatnonzero(diff < -tol)
        if surplus_idx.size == 0 or deficit_idx.size == 0:
            # What is left on one side lies within tol (rounding from the
            # transfers so far): no transfer remains, so let the prefix sums
            # decide.
            return majorizes(a, b, tol=tol)
        i = int(surplus_idx[0])
        j = int(deficit_idx[0])
        if i > j:
            # A deficit before any surplus means some top-j sum of y exceeds
            # x's, unless sub-tol surpluses ahead of it make up the gap.
            return majorizes(a, b, tol=tol)
        amount = min(a[i] - b[i], b[j] - a[j], (a[i] - a[j]) / 2 if a[i] > a[j] else 0.0)
        if amount <= tol:
            # Direct transfer blocked; fall back to the prefix-sum criterion.
            return majorizes(a, b, tol=tol)
        a = t_transform(a, i, j, amount)
    return majorizes(a, b, tol=tol)


def all_integer_partition_configs(n: int, max_parts: int | None = None):
    """Yield all sorted count vectors (integer partitions of ``n``) as tuples.

    These are the anonymity classes of the configuration space; exact
    engines and dominance checkers enumerate them for small ``n``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    limit = max_parts if max_parts is not None else n

    def _partitions(remaining: int, largest: int, parts_left: int):
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in _partitions(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    yield from _partitions(n, n, limit)


__all__.append("all_integer_partition_configs")
