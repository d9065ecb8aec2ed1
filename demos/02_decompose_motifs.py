#!/usr/bin/env python3
"""Decomposing an association graph into molecular communities.

The mined rules of one year form a directed graph over author nuclei. Two
nuclei joined in exactly one direction share a *single bond*; joined in both
directions they share a *double bond* (a bridge). Each weakly connected
component with at least two members is a community, summarized by the
sextuple

    (SB, BR, DI, NU, RE, TR)

single bonds, bridges, diamonds (bridge triangles), nuclei, reactors
(>= 1 incoming edge) and triggers (>= 1 outgoing edge). On top of the vector
every community gets a motif class — pair, star, arrow, triangle, diamond,
or complex — and every member a role.
"""

from molmine import attributes_csv, communities, parse_edge_list, roles, to_dot

SHOWCASE = """\
# a 7-leaf in-star: every leaf triggers the center
L1 -> C1
L2 -> C1
L3 -> C1
L4 -> C1
L5 -> C1
L6 -> C1
L7 -> C1

# a diamond: three nuclei pairwise joined by double bonds
X -> Y
Y -> X
Y -> Z
Z -> Y
X -> Z
Z -> X

# an arrow (head-to-tail 2-path) and a plain pair
A -> B
B -> D
P -> Q
"""


def main() -> None:
    print(__doc__)

    graph = parse_edge_list(SHOWCASE, year=1994)
    comms = communities(graph)
    print(f"{len(graph.nodes)} nuclei, {len(graph.edges)} edges, {len(comms)} communities\n")

    for comm in comms:
        vector = comm.vector
        print(f"community {comm.id}: members {sorted(comm.members)}")
        print(f"  vector {vector.as_dict()}")
        print(f"  motif  {comm.motif.value} ({comm.arity})")
        print(f"  roles  {{{', '.join(f'{m}: {r.value}' for m, r in sorted(roles(comm).items()))}}}")
        # the bond identity every community satisfies:
        assert vector.single_bonds + 2 * vector.bridges == len(comm.edges)

    print("\nattributes CSV (one row per community):")
    print(attributes_csv(comms))

    print("Graphviz DOT of the in-star community (double bonds would render as dir=both):")
    print(to_dot(comms[1], name="in_star"))


if __name__ == "__main__":
    main()
