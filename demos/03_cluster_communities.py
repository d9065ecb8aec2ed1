#!/usr/bin/env python3
"""Hierarchically clustering community attribute vectors.

Communities live in the 6-dimensional (SB, BR, DI, NU, RE, TR) space, so
structurally similar communities sit close together under Euclidean
distance. Agglomerative clustering (average linkage by default) builds a
dendrogram bottom-up; ties are broken deterministically by the smallest
leaves involved, so the same input always yields the same tree.

Two classic star rows make the geometry concrete: a 7-leaf in-star
(7,0,0,8,1,7) and its mirrored out-star (7,0,0,8,7,1) differ only in the
role counts, at Euclidean distance sqrt(72).
"""

import math

from molmine import cut, hcluster, newick

VECTORS = {
    "in-star": (7, 0, 0, 8, 1, 7),
    "out-star": (7, 0, 0, 8, 7, 1),
    "diamond": (0, 3, 1, 3, 3, 3),
    "pair-a": (1, 0, 0, 2, 1, 1),
    "pair-b": (1, 0, 0, 2, 1, 1),  # identical vectors merge at height 0
    "arrow": (2, 0, 0, 3, 2, 2),
}


def main() -> None:
    print(__doc__)

    # Two leaves merge at exactly their Euclidean distance.
    ((_, _, d),) = hcluster([VECTORS["in-star"], VECTORS["out-star"]]).merges
    print(f"distance(in-star, out-star) = {d:.6f} (sqrt(72) = {math.sqrt(72):.6f})\n")

    ids = sorted(VECTORS)
    dend = hcluster([VECTORS[i] for i in ids], ids=ids)
    print(f"leaves (canonical order): {list(dend.leaves)}")
    print("merges (cluster, cluster, height):")
    for step, (a, b, height) in enumerate(dend.merges):
        print(f"  step {step}: {a} + {b} at {height:.4f}")
    print(f"\nnewick: {newick(dend)}\n")

    for k in (2, 3):
        labels = cut(dend, k=k)
        clusters: dict[str, list[str]] = {}
        for leaf, label in labels.items():
            clusters.setdefault(label, []).append(leaf)
        print(f"cut at k={k}:")
        for label in sorted(clusters):
            print(f"  [{label}] {sorted(clusters[label])}")

    # Normalization rescales each dimension to [0, 1]; useful when NU would
    # otherwise dominate the bond counts.
    scaled = hcluster([VECTORS[i] for i in ids], ids=ids, normalize=True)
    print(f"\nnormalized merge heights: {[round(h, 4) for h in scaled.heights()]}")


if __name__ == "__main__":
    main()
