from hypothesis import given, settings

from molmine.decompose import communities
from molmine.dot import to_dot
from molmine.graph import AssocGraph
from oracles import primitive_to_dot
from strategies import EDGES


@settings(max_examples=150, deadline=None)
@given(EDGES)
def test_to_dot_matches_per_character_quoting(edges):
    g = AssocGraph.from_edges(edges, year=2001)
    assert to_dot(g, name="snap") == primitive_to_dot(g.nodes, g.edges, name="snap")
    for c in communities(g):
        assert to_dot(c) == primitive_to_dot(c.members, c.edges)


def test_escapes():
    g = AssocGraph.from_edges([('a"b', "c\\d"), ("c\\d", "e\nf\rg")])
    assert to_dot(g).splitlines() == [
        "digraph G {",
        '  "a\\"b";',
        '  "c\\\\d";',
        '  "e\\nf\\rg";',
        '  "a\\"b" -> "c\\\\d";',
        '  "c\\\\d" -> "e\\nf\\rg";',
        "}",
    ]
