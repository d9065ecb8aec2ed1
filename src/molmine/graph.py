"""Per-year directed association graph of author nuclei.

Nodes are author identifiers; a directed edge (A, B) exists exactly when the
rule A => B was mined. The graph is immutable after construction. Bonds,
roles and motifs are read per community (see :mod:`molmine.decompose`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError
from .rules import RuleTable


class GraphError(ValueError):
    """Violation of a graph construction contract."""


@dataclass(frozen=True)
class AssocGraph:
    year: int
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        year: int = 0,
        extra_nodes: Iterable[str] = (),
    ) -> "AssocGraph":
        """Build a graph from directed edges; endpoints become nodes.

        ``extra_nodes`` admits isolated nodes, which the mining pipeline
        never produces but manually constructed graphs may need.
        """
        edge_set = frozenset(edges)
        for a, b in edge_set:
            if a == b:
                raise GraphError(f"self-loop on {a!r} not allowed")
        nodes = frozenset(extra_nodes) | {a for a, _ in edge_set} | {b for _, b in edge_set}
        return cls(year=year, nodes=nodes, edges=edge_set)


def build_graph(rules: RuleTable, year: int) -> AssocGraph:
    """Turn mined rules into the year's association graph, one edge per rule.

    The edge set is built from the table's id columns; the nodes are the
    names that occur in a rule.
    """
    names, antecedent, consequent = rules.names, rules.antecedent, rules.consequent
    codes = antecedent * len(names) + consequent
    first = np.unique(codes, return_index=True)[1]
    if first.size < codes.size:
        repeated = np.ones(codes.size, dtype=bool)
        repeated[first] = False
        i = int(np.flatnonzero(repeated)[0])
        raise GraphError(f"duplicate rule {names[antecedent[i]]} => {names[consequent[i]]}")
    loops = np.flatnonzero(antecedent == consequent)
    if loops.size:
        raise GraphError(f"self-loop on {names[antecedent[loops[0]]]!r} not allowed")
    column = np.array(names, dtype=object)
    used = np.bincount(np.concatenate([antecedent, consequent]), minlength=len(names))
    return AssocGraph(
        year=year,
        nodes=frozenset(column[used > 0].tolist()),
        edges=frozenset(zip(column[antecedent].tolist(), column[consequent].tolist())),
    )


def parse_edge_list(text: str, year: int = 0) -> AssocGraph:
    """Parse the ``from -> to`` edge-list format used for hand-built graphs.

    One edge per line; ``#`` starts a comment; blank lines are ignored.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("->")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise InputError(f"malformed edge at line {lineno}: {raw!r}")
        edges.append((parts[0].strip(), parts[1].strip()))
    try:
        return AssocGraph.from_edges(edges, year=year)
    except GraphError as exc:
        raise InputError(str(exc)) from exc
