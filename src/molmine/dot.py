"""Graphviz DOT serialization of association graphs and communities.

A double bond is rendered as one edge with ``dir=both``; single bonds keep
their direction. Nodes and edges are emitted in lexicographic order so the
output is deterministic.
"""

from __future__ import annotations

from .decompose import Community
from .graph import AssocGraph

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"}
_QUOTE = str.maketrans(_ESCAPES)


def to_dot(obj: AssocGraph | Community, name: str = "G") -> str:
    """Render a graph or community as a DOT digraph."""
    if isinstance(obj, Community):
        nodes, edges = obj.members, obj.edges
    else:
        nodes, edges = obj.nodes, obj.edges

    # each node is quoted once; edge lines reuse the quoted names
    quoted = {node: f'"{node.translate(_QUOTE)}"' for node in nodes}
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {quoted[node]};" for node in sorted(nodes))

    rendered: list[tuple[str, str, bool]] = []
    for a, b in edges:
        if (b, a) in edges:
            if a < b:  # one line per double bond
                rendered.append((a, b, True))
        else:
            rendered.append((a, b, False))
    for a, b, double in sorted(rendered):
        suffix = " [dir=both]" if double else ""
        lines.append(f"  {quoted[a]} -> {quoted[b]}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
