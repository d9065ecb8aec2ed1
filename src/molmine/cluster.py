"""Hierarchical agglomerative clustering of community attribute vectors.

Distances are Euclidean over the raw sextuple (SB, BR, DI, NU, RE, TR);
min-max normalization per dimension is available behind a flag. Linkage is
average (unweighted pair-group mean) by default, with single and complete as
alternatives.

Determinism: leaves are canonically sorted by id before clustering, and among
equal-distance cluster pairs the one with the lexicographically smallest
(min-leaf-id, min-leaf-id) key is merged first. Permuting the input order
therefore never changes the merge sequence.

Algorithm: identical vectors collapse first, at height zero, leaving u
distinct rows. The merge loop is the primitive one (merge the closest pair,
update its row by Lance-Williams) with a cached nearest neighbour per row
(Muellner 2011, arXiv:1109.2378), so each merge reads the global minimum
from u cached values instead of scanning the u x u matrix. The cache holds
each row's first minimum column, which makes the tie-break exact: the merges
and their heights are those of the full scan, bit for bit. Cost is O(u^2)
memory and typically O(u^2) time; a merge rescans only the rows whose
neighbour it removed. The nearest-neighbour chain algorithm is not used: it
applies the Lance-Williams updates in another order, which moves heights by
a few ulps, and under the exact ties integer sextuples produce it does not
reproduce the smallest-leaf tie-break.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from ._util import fmt12, round12
from .decompose import AttributeVector
from .errors import ConfigError

LINKAGES = ("single", "complete", "average")

# Average linkage on a metric cannot produce height inversions exactly;
# allow only float rounding slack before reporting one as an error.
_INVERSION_SLACK = 1e-9


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree over community attribute vectors.

    ``leaves`` is the canonical (id-sorted) leaf order. ``merges`` holds one
    (cluster_a, cluster_b, height) triple per agglomeration step, where
    clusters 0..n-1 are the leaves and merge t creates cluster n + t;
    within a triple the cluster containing the smaller leaf id comes first.
    """

    leaves: tuple[Hashable, ...]
    merges: tuple[tuple[int, int, float], ...]
    linkage: str = "average"
    normalized: bool = False

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def heights(self) -> list[float]:
        return [h for _, _, h in self.merges]

    def to_json_dict(self) -> dict:
        return {
            "linkage": self.linkage,
            "normalized": self.normalized,
            "leaves": list(self.leaves),
            "merges": [[a, b, round12(h)] for a, b, h in self.merges],
            "newick": newick(self),
        }


def _as_tuple(v: AttributeVector | Sequence[float]) -> tuple[float, ...]:
    if isinstance(v, AttributeVector):
        return tuple(float(x) for x in v.as_tuple())
    return tuple(float(x) for x in v)


def _minmax_scale(rows: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Per-dimension min-max scaling; constant dimensions map to 0."""
    arr = np.asarray(rows, dtype=float)
    lo = arr.min(axis=0)
    span = arr.max(axis=0) - lo
    span[span == 0.0] = 1.0
    scaled = (arr - lo) / span
    return [tuple(row) for row in scaled]


def _pairwise(rows: list[tuple[float, ...]]) -> np.ndarray:
    X = np.asarray(rows, dtype=float)
    n = X.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        diff = X - X[i]
        D[i] = np.sqrt((diff * diff).sum(axis=1))
    return D


def hcluster(
    vectors: Sequence[AttributeVector | Sequence[float]],
    ids: Sequence[Hashable] | None = None,
    linkage: str = "average",
    normalize: bool = False,
) -> Dendrogram:
    """Agglomerative clustering with the deterministic tie-break.

    ``ids`` label the leaves (default 0..n-1); they must be unique and
    mutually sortable since canonical leaf order and tie-breaking are defined
    on them.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    vecs = [_as_tuple(v) for v in vectors]
    if not vecs:
        raise ValueError("hcluster requires at least one vector")
    if len({len(v) for v in vecs}) != 1:
        raise ValueError("all vectors must have the same dimension")
    leaf_ids: list[Hashable] = list(ids) if ids is not None else list(range(len(vecs)))
    if len(leaf_ids) != len(vecs):
        raise ValueError("ids and vectors must have equal length")
    if len(set(leaf_ids)) != len(leaf_ids):
        raise ValueError("leaf ids must be unique")

    order = sorted(range(len(vecs)), key=lambda i: leaf_ids[i])
    leaves = tuple(leaf_ids[i] for i in order)
    rows = [vecs[i] for i in order]
    if normalize:
        rows = _minmax_scale(rows)

    n = len(rows)
    merges: list[tuple[int, int, float]] = []
    next_idx = n

    # Identical vectors sit at distance zero, so they are always merged
    # first; under the tie-break each duplicate group collapses into its
    # smallest leaf, groups in ascending order of that leaf. Collapsing them
    # up front leaves a strictly positive distance matrix for the main loop
    # and is merge-for-merge identical to running the plain algorithm.
    groups: dict[tuple[float, ...], list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row, []).append(i)

    # Unique rows are ordered by their smallest leaf and a merge keeps the
    # smaller row index, so row index order is the tie-break's key order.
    cluster_idx: list[int] = []  # scipy-style cluster index
    cluster_size: list[int] = []
    unique_rows: list[tuple[float, ...]] = []
    for row, members in sorted(groups.items(), key=lambda kv: kv[1][0]):
        current = members[0]
        for leaf in members[1:]:
            merges.append((current, leaf, 0.0))
            current = next_idx
            next_idx += 1
        cluster_idx.append(current)
        cluster_size.append(len(members))
        unique_rows.append(row)

    u = len(unique_rows)
    if u > 1:
        D = _pairwise(unique_rows)
        if not math.isfinite(D.max()):  # max propagates NaN
            raise ValueError("vectors must be finite and their distances must not overflow")
        np.fill_diagonal(D, np.inf)
        sizes = np.array(cluster_size, dtype=float)
        # nn[r] is the first column holding the minimum of row r and nnd[r]
        # that minimum; a merged-away row gets nn = -1 and nnd = inf.
        nn = D.argmin(axis=1)
        nnd = D[np.arange(u), nn]
        prev_height = 0.0
        for _ in range(u - 1):
            # D is symmetric, so the first row holding the global minimum
            # has its first minimum column to its right: (i, j) is the
            # smallest (min-leaf, min-leaf) pair at that distance.
            i = int(nnd.argmin())
            j = int(nn[i])
            height = float(nnd[i])
            if height < prev_height - _INVERSION_SLACK * max(1.0, prev_height):
                raise ValueError(
                    f"dendrogram height inversion: {height} after {prev_height}"
                )
            prev_height = max(prev_height, height)
            merges.append((cluster_idx[i], cluster_idx[j], height))

            if linkage == "average":
                new_row = (sizes[i] * D[i] + sizes[j] * D[j]) / (sizes[i] + sizes[j])
            elif linkage == "single":
                new_row = np.minimum(D[i], D[j])
            else:
                new_row = np.maximum(D[i], D[j])
            D[i, :] = new_row
            D[:, i] = new_row
            D[i, i] = np.inf
            D[j, :] = np.inf
            D[:, j] = np.inf
            sizes[i] += sizes[j]
            cluster_idx[i] = next_idx
            next_idx += 1

            # Besides column j, now inf, only column i changed, so a row
            # whose neighbour was neither i nor j keeps it or moves to i.
            # Every row is tested: the new distance can tie a row's minimum
            # at a column left of its neighbour, and a new average can round
            # below both distances it averages. Rows that pointed at i or j
            # (row i among them, since nn[i] == j) are rescanned.
            stale = np.flatnonzero((nn == i) | (nn == j))
            col = D[:, i]
            closer = (col < nnd) | ((col == nnd) & (nn > i))
            nn[closer] = i
            nnd[closer] = col[closer]
            nn[j], nnd[j] = -1, np.inf
            stale = stale[stale != j]
            nn[stale] = D[stale].argmin(axis=1)
            nnd[stale] = D[stale, nn[stale]]

    return Dendrogram(leaves=leaves, merges=tuple(merges), linkage=linkage, normalized=normalize)


def _leaf_groups(d: Dendrogram, n_merges: int) -> list[list[int]]:
    """Leaf index groups after applying the first ``n_merges`` merges."""
    n = d.n_leaves
    parent = list(range(n + n_merges))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in range(n_merges):
        a, b, _ = d.merges[t]
        new = n + t
        parent[find(a)] = new
        parent[find(b)] = new

    clusters: dict[int, list[int]] = {}
    for leaf in range(n):
        clusters.setdefault(find(leaf), []).append(leaf)
    return list(clusters.values())


def check_cut(k: int | None, height: float | None, n_leaves: int | None = None) -> None:
    """Raise ConfigError unless ``k`` lies in [1, n_leaves] and ``height`` is
    finite and non-negative; an argument given as None is not checked."""
    if k is not None and k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k is not None and n_leaves is not None and k > n_leaves:
        raise ConfigError(f"k must be in [1, {n_leaves}], got {k}")
    if height is not None:
        if not math.isfinite(height):
            raise ConfigError(f"height must be finite, got {height}")
        if height < 0:
            raise ConfigError(f"height must be non-negative, got {height}")


def cut(
    d: Dendrogram,
    k: int | None = None,
    height: float | None = None,
) -> dict[Hashable, Hashable]:
    """Extract a flat clustering from the dendrogram.

    Either ``k`` (number of clusters; the last k-1 merges are undone) or
    ``height`` (apply all merges at heights <= cutoff). Returns a map from
    leaf id to cluster label, where each label is the smallest leaf id of
    its cluster.
    """
    if (k is None) == (height is None):
        raise ValueError("cut needs exactly one of k or height")
    check_cut(k, height, d.n_leaves)
    n_merges = d.n_leaves - k if k is not None else bisect_right(d.heights(), height)

    assignment: dict[Hashable, Hashable] = {}
    for group in _leaf_groups(d, n_merges):
        label = min(d.leaves[i] for i in group)
        for i in group:
            assignment[d.leaves[i]] = label
    return assignment


_NEWICK_UNSAFE = re.compile(r"[\s(),:;'\[\]]+")


def _newick_label(leaf_id: Hashable) -> str:
    if isinstance(leaf_id, tuple):
        text = "_".join(str(p) for p in leaf_id)
    else:
        text = str(leaf_id)
    return _NEWICK_UNSAFE.sub("_", text)


def newick(d: Dendrogram) -> str:
    """Newick rendering with ultrametric branch lengths."""
    if d.n_leaves == 0:
        return ";"
    if not d.merges:
        return f"{_newick_label(d.leaves[0])};"
    n = d.n_leaves
    a, b, h = d.merges[-1]
    # An explicit stack of literal text and (cluster, parent height) items
    # renders left to right; chains of identical vectors can be thousands of
    # levels deep, past Python's recursion limit.
    stack: list[str | tuple[int, float]] = [");", (b, h), ",", (a, h), "("]
    out: list[str] = []
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        idx, parent_h = item
        if idx < n:
            out.append(f"{_newick_label(d.leaves[idx])}:{fmt12(parent_h)}")
        else:
            a, b, own = d.merges[idx - n]
            stack += [f"):{fmt12(parent_h - own)}", (b, own), ",", (a, own), "("]
    return "".join(out)
