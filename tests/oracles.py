"""Independent brute-force reference implementations.

Deliberately naive: plain scans, triple loops, and from-scratch linkage
recomputation. These share no code path with the library so that agreement
is evidence, not tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


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
