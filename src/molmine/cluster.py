"""Hierarchical agglomerative clustering of community attribute vectors.

Distances are Euclidean over the raw sextuple (SB, BR, DI, NU, RE, TR);
min-max normalization per dimension is available behind a flag. Linkage is
average (unweighted pair-group mean) by default, with single and complete as
alternatives.

Determinism: leaves are canonically sorted by id before clustering, and among
equal-distance cluster pairs the one with the lexicographically smallest
(min-leaf-id, min-leaf-id) key is merged first. Permuting the input order
therefore never changes the merge sequence.
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


def distance(u: AttributeVector | Sequence[float], v: AttributeVector | Sequence[float]) -> float:
    """Euclidean distance between two attribute vectors."""
    a, b = _as_tuple(u), _as_tuple(v)
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


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

    cluster_key: list[int] = []  # min leaf index per active cluster
    cluster_idx: list[int] = []  # scipy-style cluster index
    cluster_size: list[int] = []
    unique_rows: list[tuple[float, ...]] = []
    for row, members in sorted(groups.items(), key=lambda kv: kv[1][0]):
        current = members[0]
        for leaf in members[1:]:
            merges.append((current, leaf, 0.0))
            current = next_idx
            next_idx += 1
        cluster_key.append(members[0])
        cluster_idx.append(current)
        cluster_size.append(len(members))
        unique_rows.append(row)

    u = len(unique_rows)
    if u > 1:
        D = _pairwise(unique_rows)
        np.fill_diagonal(D, np.inf)
        sizes = np.array(cluster_size, dtype=float)
        prev_height = 0.0
        for _ in range(u - 1):
            m = D.min()
            cand = np.argwhere(D == m)
            best = min(
                ((min(cluster_key[i], cluster_key[j]), max(cluster_key[i], cluster_key[j]), i, j)
                 for i, j in cand if i < j)
            )
            i, j = best[2], best[3]
            if cluster_key[j] < cluster_key[i]:
                i, j = j, i  # keep the smaller key on the surviving cluster
            height = float(m)
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
    if k is not None:
        if not 1 <= k <= d.n_leaves:
            raise ValueError(f"k must be in [1, {d.n_leaves}], got {k}")
        n_merges = d.n_leaves - k
    else:
        if height < 0:
            raise ValueError(f"height must be non-negative, got {height}")
        n_merges = bisect_right(d.heights(), height)

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
