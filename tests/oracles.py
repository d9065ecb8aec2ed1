"""Independent brute-force reference implementations.

Deliberately naive: plain scans, triple loops, and from-scratch linkage
recomputation. These share no code path with the library so that agreement
is evidence, not tautology. The exceptions are ``primitive_hcluster``, the
former merge loop of ``hcluster``; ``primitive_attribute_vector``,
``primitive_classify_motif`` and ``primitive_arity``, the former per-call
community descriptions; ``communities_json_dict``, the former
communities-JSON document that ``json.dumps`` encoded; and
``primitive_to_dot``, the former DOT renderer. Each is kept as the exact
reference for its rewrite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from collections import defaultdict
from typing import Hashable, Iterable, Sequence

import numpy as np

from molmine.cluster import (
    _INVERSION_SLACK,
    LINKAGES,
    Dendrogram,
    _as_tuple,
    _minmax_scale,
    _pairwise,
)
from molmine.decompose import Arity, AttributeVector, Community, MotifClass, roles


# ----------------------------------------------------------------- mining


def oracle_mine(transactions, min_support, min_confidence, min_lift):
    """All directed rules passing the thresholds, by exhaustive enumeration.

    Threshold tests use exact integer cross-multiplication; reported doubles
    are each rounded once from the exact rational value.
    """
    transactions = [frozenset(t) for t in transactions]
    n = len(transactions)
    authors = sorted(set().union(*transactions)) if transactions else []
    ms, mc, ml = Fraction(min_support), Fraction(min_confidence), Fraction(min_lift)

    rules = {}
    for ante in authors:
        for cons in authors:
            if ante == cons:
                continue
            co = sum(1 for t in transactions if ante in t and cons in t)
            if co == 0:
                continue
            n_ante = sum(1 for t in transactions if ante in t)
            n_cons = sum(1 for t in transactions if cons in t)
            if Fraction(co, n) < ms:
                continue
            if Fraction(co, n_ante) < mc:
                continue
            if Fraction(co * n, n_ante * n_cons) <= ml:
                continue
            rules[(ante, cons)] = (
                co / n,
                co / n_ante,
                (co * n) / (n_ante * n_cons),
            )
    return rules


# ----------------------------------------------------------- decomposition


def _dbond(edges, a, b):
    return (a, b) in edges and (b, a) in edges


def _sbond(edges, a, b):
    return ((a, b) in edges) != ((b, a) in edges)


def oracle_vector(members, edges):
    """(SB, BR, DI, NU, RE, TR) by direct definition over all pairs/triples."""
    members = sorted(members)
    edges = set(edges)
    sb = sum(1 for a, b in combinations(members, 2) if _sbond(edges, a, b))
    br = sum(1 for a, b in combinations(members, 2) if _dbond(edges, a, b))
    di = sum(
        1
        for a, b, c in combinations(members, 3)
        if _dbond(edges, a, b) and _dbond(edges, b, c) and _dbond(edges, a, c)
    )
    nu = len(members)
    re_ = sum(1 for m in members if any(e[1] == m for e in edges))
    tr = sum(1 for m in members if any(e[0] == m for e in edges))
    return (sb, br, di, nu, re_, tr)


def oracle_components(nodes, edges):
    """Weakly connected components with >= 2 members, as sorted member lists,
    ordered by smallest member."""
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(adj[node] - comp)
        seen |= comp
        if len(comp) >= 2:
            comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def oracle_arity(members, edges):
    """"n-ary" when some three members are pairwise bonded, by brute force
    over all triples; "2-ary" otherwise."""
    edges = set(edges)

    def bonded(a, b):
        return (a, b) in edges or (b, a) in edges

    for a, b, c in combinations(sorted(members), 3):
        if bonded(a, b) and bonded(b, c) and bonded(a, c):
            return "n-ary"
    return "2-ary"


# The former per-call community descriptions, as they were before the
# one-pass rewrite; the bond caches that were ``Community`` properties are
# the functions ``_bonds`` and ``_bond_adj`` here.


def _bonds(c: Community) -> dict[tuple[str, str], int]:
    """Unordered bonded pair -> number of directions present (1 or 2)."""
    dirs: dict[tuple[str, str], int] = defaultdict(int)
    for a, b in c.edges:
        dirs[(a, b) if a <= b else (b, a)] += 1
    return dict(dirs)


def _bond_adj(c: Community) -> dict[str, set[str]]:
    """Undirected adjacency over all bonds (single or double)."""
    adj: dict[str, set[str]] = {m: set() for m in c.members}
    for a, b in _bonds(c):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _single_bond_pairs(c: Community) -> list[tuple[str, str]]:
    return sorted(p for p, d in _bonds(c).items() if d == 1)


def _double_bond_pairs(c: Community) -> list[tuple[str, str]]:
    return sorted(p for p, d in _bonds(c).items() if d == 2)


def _bridge_triangles(pairs: Iterable[tuple[str, str]]) -> int:
    """Triangle count of the undirected graph given by the bridge pairs."""
    adj: dict[str, set[str]] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    count = 0
    for a, b in pairs:
        # each triangle counted once: third node strictly above both endpoints
        hi = max(a, b)
        count += sum(1 for c in adj[a] & adj[b] if c > hi)
    return count


def primitive_attribute_vector(c: Community) -> AttributeVector:
    doubles = _double_bond_pairs(c)
    reactors = {b for _, b in c.edges}
    triggers = {a for a, _ in c.edges}
    return AttributeVector(
        single_bonds=len(_single_bond_pairs(c)),
        bridges=len(doubles),
        diamonds=_bridge_triangles(doubles),
        nuclei=len(c.members),
        reactors=len(reactors),
        triggers=len(triggers),
    )


def _star_center(c: Community) -> str | None:
    """The unique member bonded to all others with pairwise unbonded leaves,
    all bonds single; None when the community is not star-shaped."""
    if any(d == 2 for d in _bonds(c).values()):
        return None
    n = len(c.members)
    if len(_bonds(c)) != n - 1:
        return None
    for m in sorted(c.members):
        if len(_bond_adj(c)[m]) == n - 1:
            return m
    return None


def primitive_classify_motif(c: Community) -> MotifClass:
    """Total, mutually exclusive motif classification.

    Matching order: pair, bridge-pair, diamond, triangle, arrow, the star
    classes, then complex. Specific shapes win over generic ones.
    """
    n = len(c.members)
    singles = _single_bond_pairs(c)
    doubles = _double_bond_pairs(c)

    if n == 2:
        return MotifClass.PAIR if len(singles) == 1 else MotifClass.BRIDGE_PAIR
    if n == 3:
        if len(doubles) == 3 and not singles:
            return MotifClass.DIAMOND
        if len(singles) == 3 and not doubles:
            if all(len(_bond_adj(c)[m]) == 2 for m in c.members):
                outs = {a for a, _ in c.edges}
                ins = {b for _, b in c.edges}
                if outs == c.members and ins == c.members:
                    return MotifClass.TRIANGLE
        if len(singles) == 2 and not doubles:
            (a1, b1), (a2, b2) = sorted(c.edges)
            if b1 == a2 or b2 == a1:
                return MotifClass.ARROW

    center = _star_center(c)
    if center is not None:
        heads = {b for _, b in c.edges}
        tails = {a for a, _ in c.edges}
        if heads == {center}:
            return MotifClass.STAR_IN
        if tails == {center}:
            return MotifClass.STAR_OUT
        return MotifClass.STAR_MIXED
    return MotifClass.COMPLEX


def primitive_arity(c: Community) -> Arity:
    """Arity of the whole community under the star rule applied everywhere.

    2-ary when no member has two bonded neighbors that are themselves
    bonded, i.e. the undirected bond graph is triangle-free; n-ary otherwise.
    """
    adj = _bond_adj(c)
    for a, b in _bonds(c):
        if adj[a] & adj[b]:
            return "n-ary"
    return "2-ary"



def community_to_json_dict(c: Community) -> dict:
    """One community's entry of the communities JSON document."""
    member_roles = roles(c)
    members = sorted(c.members)
    return {
        "id": c.id,
        "members": members,
        "edges": [list(e) for e in sorted(c.edges)],
        "vector": c.vector.as_dict(),
        "motif": c.motif.value,
        "arity": c.arity,
        "roles": {m: member_roles[m].value for m in members},
    }


def communities_json_dict(comms: Sequence[Community], year: int) -> dict:
    """The communities JSON document as a dict; ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` plus a newline is the reference for
    ``communities_json``."""
    return {"year": year, "communities": [community_to_json_dict(c) for c in comms]}


def primitive_to_dot(nodes, edges, name: str = "G") -> str:
    """The former ``to_dot``, which quoted each name per character at every
    occurrence."""
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"}

    def quote(node: str) -> str:
        return '"' + "".join(escapes.get(ch, ch) for ch in node) + '"'

    lines = [f"digraph {name} {{"]
    for node in sorted(nodes):
        lines.append(f"  {quote(node)};")
    edge_set = set(edges)
    rendered = []
    for a, b in edge_set:
        if (b, a) in edge_set:
            if a < b:
                rendered.append((a, b, True))
        else:
            rendered.append((a, b, False))
    for a, b, double in sorted(rendered):
        suffix = " [dir=both]" if double else ""
        lines.append(f"  {quote(a)} -> {quote(b)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"

# ------------------------------------------------------------- clustering


def _euclid(u, v):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def oracle_hcluster(vectors, linkage="average"):
    """O(n^3) agglomerative reference recomputing every linkage from scratch.

    ``vectors`` must already be in canonical (id-sorted) order; returns
    scipy-style merge triples under the same tie-break as the library:
    smallest (min-leaf, min-leaf) pair wins at equal distance, the cluster
    holding the smaller leaf goes first in the triple.
    """
    n = len(vectors)
    leaf_d = {
        (i, j): _euclid(vectors[i], vectors[j]) for i, j in combinations(range(n), 2)
    }

    def pair_d(i, j):
        return leaf_d[(i, j) if i < j else (j, i)]

    clusters = {i: frozenset([i]) for i in range(n)}
    next_idx = n
    merges = []
    while len(clusters) > 1:
        best = None
        for ci, cj in combinations(sorted(clusters), 2):
            a, b = clusters[ci], clusters[cj]
            dists = [pair_d(i, j) for i in sorted(a) for j in sorted(b)]
            if linkage == "average":
                d = math.fsum(dists) / len(dists)
            elif linkage == "single":
                d = min(dists)
            else:
                d = max(dists)
            lo, hi = sorted((min(a), min(b)))
            key = (d, lo, hi)
            if best is None or key < best[0]:
                best = (key, ci, cj)
        (d, lo, _), ci, cj = best
        first, second = (ci, cj) if min(clusters[ci]) == lo else (cj, ci)
        merges.append((first, second, d))
        clusters[next_idx] = clusters[ci] | clusters[cj]
        del clusters[ci], clusters[cj]
        next_idx += 1
    return merges


def primitive_hcluster(
    vectors: Sequence[AttributeVector | Sequence[float]],
    ids: Sequence[Hashable] | None = None,
    linkage: str = "average",
    normalize: bool = False,
) -> Dendrogram:
    """The primitive O(u^3) loop ``hcluster`` used before its nearest-neighbour
    cache: every merge scans the whole matrix for its minimum and picks the
    smallest (min-leaf, min-leaf) key among the cells holding it.

    Unlike the other oracles here it shares the library's input handling,
    scaling and distance matrix, and differs only in how each merge is
    found, so the two are compared for equality to the bit.
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


# --------------------------------------------------------------- timelines


def oracle_membership_groups(snapshots, tau, year_range=None):
    """Membership-mode timeline groups by comparing every adjacent-year pair.

    ``snapshots`` maps year to an iterable of member collections. Each pair
    of distinct member sets in adjacent years is tested with exact
    ``Fraction`` Jaccard (an empty union never matches); matching groups are
    merged by relabelling every set of the larger label. Returns sorted
    ``(least member tuple of the group, sorted years present)`` pairs.
    """
    if year_range is None:
        year_range = (min(snapshots), max(snapshots))
    y0, y1 = year_range
    per_year = {
        y: {tuple(sorted(set(m))) for m in snapshots.get(y, [])} for y in range(y0, y1 + 1)
    }
    label, years_of = {}, {}
    for y, keys in per_year.items():
        for k in keys:
            label[k] = k
            years_of.setdefault(k, set()).add(y)
    threshold = Fraction(tau)
    for y in range(y0, y1):
        for a in per_year[y]:
            for b in per_year[y + 1]:
                union = len(set(a) | set(b))
                if union == 0 or Fraction(len(set(a) & set(b)), union) < threshold:
                    continue
                la, lb = label[a], label[b]
                if la != lb:
                    keep, drop = min(la, lb), max(la, lb)
                    for k in label:
                        if label[k] == drop:
                            label[k] = keep
    groups = {}
    for k, lab in label.items():
        groups.setdefault(lab, set()).update(years_of[k])
    return sorted((lab, tuple(sorted(ys))) for lab, ys in groups.items())


# --------------------------------------------------------------- lifecycle


def oracle_lifecycle(years_present, year_range):
    """Reference classification straight from the three definitions."""
    y0, y1 = year_range
    ys = sorted(set(years_present))
    if set(ys) == set(range(y0, y1 + 1)):
        return "constant"
    runs = 1 + sum(1 for a, b in zip(ys, ys[1:]) if b > a + 1)
    return "visiting" if runs >= 2 else "transient"
