import pytest

from molmine.decompose import MotifClass, Role, communities, roles
from molmine.errors import InputError
from molmine.graph import AssocGraph, GraphError, build_graph, parse_edge_list
from molmine.rules import Rule


def rule(a, b):
    return Rule(a, b, 0.1, 0.5, 2.0)


class TestConstruction:
    def test_from_edges(self):
        g = AssocGraph.from_edges([("A", "B"), ("B", "A"), ("B", "C")], year=1994)
        assert g.year == 1994
        assert g.nodes == frozenset("ABC")
        assert len(g.edges) == 3

    def test_extra_nodes(self):
        g = AssocGraph.from_edges([("A", "B")], extra_nodes=["Z"])
        assert "Z" in g.nodes and all("Z" not in e for e in g.edges)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            AssocGraph.from_edges([("A", "A")])

    def test_build_graph_rejects_duplicate_rules(self):
        with pytest.raises(GraphError):
            build_graph([rule("A", "B"), rule("A", "B")], year=0)

    def test_build_graph(self):
        g = build_graph([rule("A", "B"), rule("B", "A")], year=2001)
        assert g.year == 2001 and g.edges == frozenset({("A", "B"), ("B", "A")})


class TestPredicates:
    @pytest.fixture()
    def g(self):
        # A <-> B, B -> C, D isolated
        return AssocGraph.from_edges(
            [("A", "B"), ("B", "A"), ("B", "C")], extra_nodes=["D"]
        )

    def test_bonds(self, g):
        # bonds are read per community: both directions make a double bond,
        # exactly one a single bond (exclusive or), none no bond
        (c,) = communities(g)
        assert (c.vector.bridges, c.vector.single_bonds) == (1, 1)
        (ab,) = communities(AssocGraph.from_edges([e for e in g.edges if "C" not in e]))
        (bc,) = communities(AssocGraph.from_edges([e for e in g.edges if "A" not in e]))
        assert ab.members == {"A", "B"} and ab.motif == MotifClass.BRIDGE_PAIR
        assert bc.members == {"B", "C"} and bc.motif == MotifClass.PAIR

    def test_roles(self, g):
        (c,) = communities(g)
        assert roles(c) == {"A": Role.BOTH, "B": Role.BOTH, "C": Role.REACTOR_ONLY}
        assert "D" not in c.members  # isolated: no bond, no community


class TestEdgeList:
    def test_parse(self):
        g = parse_edge_list(
            """
            # comment line
            A -> B
            B -> A   # trailing comment
            B -> C
            """
        )
        assert g.edges == frozenset({("A", "B"), ("B", "A"), ("B", "C")})

    def test_malformed_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_edge_list("A -> B\nB => C\n")

    def test_missing_endpoint(self):
        with pytest.raises(InputError):
            parse_edge_list("A -> \n")

    def test_self_loop_is_input_error(self):
        with pytest.raises(InputError):
            parse_edge_list("A -> A\n")

    def test_spaces_in_names(self):
        g = parse_edge_list("Jane Doe -> John Q. Public\n")
        assert ("Jane Doe", "John Q. Public") in g.edges
