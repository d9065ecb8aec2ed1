import json
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molmine.decompose import (
    ATTRIBUTES_CSV_HEADER,
    AttributeVector,
    Community,
    MotifClass,
    Role,
    attributes_csv,
    attributes_from_csv,
    communities,
    communities_json,
    roles,
)
from molmine.errors import InputError
from molmine.graph import AssocGraph, parse_edge_list
from strategies import EDGES
from oracles import (
    communities_json_dict,
    oracle_arity,
    oracle_components,
    oracle_vector,
    primitive_arity,
    primitive_attribute_vector,
    primitive_classify_motif,
)


def community_of(edge_text):
    (c,) = communities(parse_edge_list(edge_text))
    return c


def random_graph(rng, max_nodes=12, density=None):
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    density = density if density is not None else rng.uniform(0.1, 0.6)
    edges = [
        (a, b) for a, b in permutations(nodes, 2) if rng.random() < density
    ]
    return AssocGraph.from_edges(edges, extra_nodes=nodes)


class TestCommunities:
    def test_components_and_ids(self):
        g = parse_edge_list("B -> A\nC -> D\nD -> C\n")
        comms = communities(g)
        assert [c.id for c in comms] == [0, 1]
        assert [sorted(c.members) for c in comms] == [["A", "B"], ["C", "D"]]

    def test_isolated_nodes_excluded(self):
        g = AssocGraph.from_edges([("A", "B")], extra_nodes=["Z"])
        comms = communities(g)
        assert len(comms) == 1 and "Z" not in comms[0].members

    def test_year_propagates(self):
        g = AssocGraph.from_edges([("A", "B")], year=1994)
        assert communities(g)[0].year == 1994

    def test_induced_edges_partition(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng)
            comms = communities(g)
            # communities are disjoint and their edges partition g.edges
            all_members = [m for c in comms for m in c.members]
            assert len(all_members) == len(set(all_members))
            covered = frozenset().union(*(c.edges for c in comms)) if comms else frozenset()
            assert covered == g.edges
            for c in comms:
                assert all(a in c.members and b in c.members for a, b in c.edges)

    def test_matches_oracle_components(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_graph(rng)
            got = [sorted(c.members) for c in communities(g)]
            assert got == oracle_components(g.nodes, g.edges)

    def test_many_components_match_oracle(self):
        rng = random.Random(29)
        for _ in range(3):
            names = [f"n{i:05d}" for i in range(3000)]
            rng.shuffle(names)  # interleave every component's members in sort order
            edges = set()
            sizes = [rng.randint(2, 5) for _ in range(400)] + [200]
            for size in sizes:
                group, names = names[:size], names[size:]
                for a, b in zip(group, group[1:]):  # a path keeps the group connected
                    edges.add((a, b) if rng.random() < 0.5 else (b, a))
                edges.update(
                    (a, b) for a, b in permutations(group, 2) if rng.random() < 6 / size**2
                )
            g = AssocGraph.from_edges(edges, year=2003, extra_nodes=names[:50])
            comms = communities(g)
            expected = oracle_components(g.nodes, g.edges)
            assert len(expected) == len(sizes)
            assert [c.id for c in comms] == list(range(len(expected)))
            assert [sorted(c.members) for c in comms] == expected
            for c, members in zip(comms, expected):
                assert c.edges == {e for e in g.edges if e[0] in members}
                assert c.year == 2003


GOLDEN = [
    # (name, edge list, expected sextuple)
    (
        "in-star",
        "L1 -> C\nL2 -> C\nL3 -> C\nL4 -> C\nL5 -> C\nL6 -> C\nL7 -> C\n",
        (7, 0, 0, 8, 1, 7),
    ),
    (
        "out-star",
        "C -> L1\nC -> L2\nC -> L3\nC -> L4\nC -> L5\nC -> L6\nC -> L7\n",
        (7, 0, 0, 8, 7, 1),
    ),
    (
        "bridge-triangle",
        "X -> Y\nY -> X\nY -> Z\nZ -> Y\nX -> Z\nZ -> X\n",
        (0, 3, 1, 3, 3, 3),
    ),
    (
        "diamond-with-leaves",
        "X -> Y\nY -> X\nY -> Z\nZ -> Y\nX -> Z\nZ -> X\n"
        "X -> M1\nX -> M2\nX -> M3\nX -> M4\nN1 -> X\n",
        (5, 3, 1, 8, 7, 4),
    ),
    (
        "bridge-with-chains",
        "C -> D\nD -> C\nL1 -> C\nL2 -> C\nL3 -> C\nL4 -> C\n"
        "L4 -> L5\nL5 -> L6\nD -> L6\n",
        (7, 1, 0, 8, 4, 7),
    ),
    (
        "bridge-k4",
        "A -> B\nB -> A\nA -> C\nC -> A\nA -> D\nD -> A\n"
        "B -> C\nC -> B\nB -> D\nD -> B\nC -> D\nD -> C\n",
        (0, 6, 4, 4, 4, 4),
    ),
]


class TestAttributeVector:
    @pytest.mark.parametrize("name,text,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_golden_vectors(self, name, text, expected):
        c = community_of(text)
        assert c.vector.as_tuple() == expected

    def test_mixed_star_role_sum(self):
        # A 7-edge mixed star always has RE + TR = 9 (center carries both
        # roles); a pure star has RE + TR = 8. Sums like 4 + 4 are
        # unobtainable for any 8-nucleus star, which is why no golden row
        # with that combination exists.
        for k_in in range(1, 7):  # at least one edge each way -> mixed
            edges = [(f"L{i}", "C") for i in range(k_in)]
            edges += [("C", f"L{i}") for i in range(k_in, 7)]
            c = communities(AssocGraph.from_edges(edges))[0]
            vec = c.vector
            assert c.motif == MotifClass.STAR_MIXED
            assert vec.reactors + vec.triggers == 9

    def test_oracle_agreement_random(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(rng)
            for c in communities(g):
                assert c.vector.as_tuple() == oracle_vector(c.members, c.edges)

    def test_bond_accounting_invariant(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng)
            for c in communities(g):
                vec = c.vector
                assert vec.single_bonds + 2 * vec.bridges == len(c.edges)
                assert vec.reactors <= vec.nuclei and vec.triggers <= vec.nuclei

    def test_as_dict(self):
        vec = AttributeVector(1, 2, 3, 4, 5, 6)
        assert vec.as_dict() == {"SB": 1, "BR": 2, "DI": 3, "NU": 4, "RE": 5, "TR": 6}


class TestRoles:
    def test_role_partition(self):
        c = community_of("A -> B\nB -> C\nC -> B\n")
        assert roles(c) == {
            "A": Role.TRIGGER_ONLY,
            "B": Role.BOTH,
            "C": Role.BOTH,
        }

    def test_reactor_only(self):
        c = community_of("A -> B\n")
        assert roles(c)["B"] == Role.REACTOR_ONLY


class TestMotifs:
    @pytest.mark.parametrize(
        "text,motif",
        [
            ("A -> B\n", MotifClass.PAIR),
            ("A -> B\nB -> A\n", MotifClass.BRIDGE_PAIR),
            ("A -> B\nB -> C\n", MotifClass.ARROW),
            ("A -> B\nB -> C\nC -> A\n", MotifClass.TRIANGLE),
            ("X -> Y\nY -> X\nY -> Z\nZ -> Y\nX -> Z\nZ -> X\n", MotifClass.DIAMOND),
            ("A -> C\nB -> C\n", MotifClass.STAR_IN),
            ("C -> A\nC -> B\n", MotifClass.STAR_OUT),
            ("A -> C\nC -> B\nD -> C\n", MotifClass.STAR_MIXED),
            ("A -> B\nB -> C\nC -> D\n", MotifClass.COMPLEX),  # path of 3 singles
            ("A -> B\nB -> A\nB -> C\n", MotifClass.COMPLEX),  # mixed bond types
        ],
    )
    def test_classification(self, text, motif):
        assert community_of(text).motif == motif

    def test_two_leaf_mixed_star_is_arrow_not_star(self):
        # A -> C -> B is simultaneously a 2-leaf star shape and a directed
        # path; the arrow class is more specific and wins.
        c = community_of("A -> C\nC -> B\n")
        assert c.motif == MotifClass.ARROW

    def test_triangle_requires_cycle(self):
        # 3 single bonds on a K3 with a source and a sink is not a cycle
        c = community_of("A -> B\nA -> C\nB -> C\n")
        assert c.motif == MotifClass.COMPLEX

    def test_total_classification(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_graph(rng, max_nodes=8)
            for c in communities(g):
                assert c.motif in MotifClass


class TestArity:
    def test_star_arity_2ary(self):
        c = community_of("A -> C\nB -> C\n")
        assert c.arity == "2-ary"

    def test_star_arity_nary(self):
        # center with two bonded neighbors
        c = community_of("A -> C\nB -> C\nA -> B\n")
        assert c.arity == "n-ary"

    def test_community_arity(self):
        assert community_of("A -> B\nB -> C\n").arity == "2-ary"
        assert community_of("A -> B\nB -> C\nC -> A\n").arity == "n-ary"
        assert (
            community_of("X -> Y\nY -> X\nY -> Z\nZ -> Y\nX -> Z\nZ -> X\n").arity
            == "n-ary"
        )


class TestOnePassDescription:
    """``vector``, ``motif`` and ``arity`` equal the former per-call functions
    on 6,000 communities of 2-7 nuclei, connected or not."""

    @pytest.mark.parametrize("density", [0.15, 0.3, 0.5, 0.75, 1.0])
    def test_matches_primitive_functions(self, density):
        rng = random.Random(int(density * 100))
        for _ in range(1200):
            members = [f"m{i}" for i in range(rng.randint(2, 7))]
            edges = frozenset(
                (a, b) for a, b in permutations(members, 2) if rng.random() < density
            )
            c = Community(0, frozenset(members), edges)
            assert c.vector == primitive_attribute_vector(c)
            assert c.vector.as_tuple() == oracle_vector(c.members, c.edges)
            assert c.motif == primitive_classify_motif(c)
            assert c.arity == primitive_arity(c) == oracle_arity(c.members, c.edges)


class TestArtifacts:
    def test_attributes_csv_round_trip(self):
        g = parse_edge_list("B -> A\nC -> D\nD -> C\n", year=1994)
        comms = communities(g)
        text = attributes_csv(comms)
        assert text.splitlines()[0] == ATTRIBUTES_CSV_HEADER
        rows = attributes_from_csv(text)
        assert rows == [
            {
                "year": 1994,
                "community_id": 0,
                "motif": "pair",
                "arity": "2-ary",
                "SB": 1, "BR": 0, "DI": 0, "NU": 2, "RE": 1, "TR": 1,
            },
            {
                "year": 1994,
                "community_id": 1,
                "motif": "bridge-pair",
                "arity": "2-ary",
                "SB": 0, "BR": 1, "DI": 0, "NU": 2, "RE": 2, "TR": 2,
            },
        ]

    def test_attributes_csv_bad_header(self):
        with pytest.raises(InputError):
            attributes_from_csv("nope,nope\n1,2\n")

    def test_attributes_csv_counts_bounded_by_2_pow_53(self):
        row = ATTRIBUTES_CSV_HEADER + "\n2000,0,pair,2-ary,{},0,0,2,1,1\n"
        assert attributes_from_csv(row.format(2**53))[0]["SB"] == 2**53
        for value in (2**53 + 1, -(2**53) - 1):
            with pytest.raises(InputError, match=r"line 2: SB exceeds 2\*\*53"):
                attributes_from_csv(row.format(value))

    def test_communities_json_shape(self):
        g = parse_edge_list("B -> A\n", year=2000)
        data = communities_json_dict(communities(g), 2000)
        assert data["year"] == 2000
        (entry,) = data["communities"]
        assert entry["members"] == ["A", "B"]
        assert entry["edges"] == [["B", "A"]]
        assert entry["motif"] == "pair"
        assert entry["roles"] == {"A": "reactor-only", "B": "trigger-only"}
        assert entry["vector"]["SB"] == 1


def reference_json(comms, year):
    return json.dumps(communities_json_dict(comms, year), indent=2, ensure_ascii=False) + "\n"


class TestCommunitiesJson:
    """``communities_json`` against ``json.dumps`` of the document dict."""

    @settings(max_examples=150, deadline=None)
    @given(EDGES, st.integers(-(2**40), 2**40))
    def test_equals_json_dumps(self, edges, year):
        comms = communities(AssocGraph.from_edges(edges, year=year))
        assert communities_json(comms, year) == reference_json(comms, year)

    def test_escaped_names(self):
        names = ['q"uote', "back\\slash", "nl\nc\x01r\r", "t\tab", "caf\u00e9", "\U0001f600"]
        edges = list(zip(names, names[1:]))
        comms = communities(AssocGraph.from_edges(edges, year=1994))
        text = communities_json(comms, 1994)
        assert text == reference_json(comms, 1994)
        assert '"q\\"uote"' in text and '"nl\\nc\\u0001r\\r"' in text and "caf\u00e9" in text

    def test_empty_year_and_empty_community(self):
        assert communities_json([], 2001) == reference_json([], 2001)
        assert communities_json([], 2001) == '{\n  "year": 2001,\n  "communities": []\n}\n'
        # a hand-built community without members or edges renders [] and {}
        empty = [Community(0, frozenset(), frozenset(), year=0)]
        assert communities_json(empty, 0) == reference_json(empty, 0)
