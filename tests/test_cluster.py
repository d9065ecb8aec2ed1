import math
import random

import pytest

from molmine._util import fmt12
from molmine.cluster import Dendrogram, _newick_label, cut, hcluster, newick
from molmine.decompose import AttributeVector
from oracles import oracle_hcluster, primitive_hcluster

STAR_IN = (7, 0, 0, 8, 1, 7)
STAR_OUT = (7, 0, 0, 8, 7, 1)


def random_vectors(rng, n, dim=6, hi=3):
    return [tuple(rng.randint(0, hi) for _ in range(dim)) for _ in range(n)]


class TestDistance:
    def test_star_rows_distance(self):
        ((_, _, height),) = hcluster([STAR_IN, STAR_OUT]).merges
        assert abs(height - math.sqrt(72)) < 1e-9

    def test_accepts_attribute_vectors(self):
        d = hcluster([AttributeVector(*STAR_IN), AttributeVector(*STAR_IN)])
        assert d.merges == ((0, 1, 0.0),)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hcluster([(1, 2), (1, 2, 3)])


class TestHcluster:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            hcluster([])
        with pytest.raises(ValueError, match="linkage"):
            hcluster([(1, 2)], linkage="ward")
        with pytest.raises(ValueError, match="unique"):
            hcluster([(1,), (2,)], ids=["x", "x"])
        with pytest.raises(ValueError, match="equal length"):
            hcluster([(1,), (2,)], ids=["x"])
        with pytest.raises(ValueError, match="dimension"):
            hcluster([(1, 2), (1,)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_distances_rejected(self):
        for bad in ([(math.nan,), (0.0,), (1.0,)], [(math.inf,), (0.0,), (1.0,)],
                    [(1e200,), (-1e200,), (0.0,)]):
            with pytest.raises(ValueError, match="finite"):
                hcluster(bad)

    def test_single_vector(self):
        d = hcluster([(1, 2, 3)], ids=["only"])
        assert d.leaves == ("only",) and d.merges == ()

    def test_identical_vectors_merge_at_zero_first(self):
        d = hcluster([(0, 0), (5, 5), (0, 0)], ids=["a", "b", "c"])
        # canonical leaves a, b, c -> duplicates {a, c} collapse at height 0
        assert d.leaves == ("a", "b", "c")
        assert d.merges[0] == (0, 2, 0.0)
        assert d.merges[1][2] > 0

    def test_merge_triple_ordering_and_heights(self):
        d = hcluster([(0.0,), (0.0,), (3.0,)], ids=["a", "b", "c"])
        assert d.merges == ((0, 1, 0.0), (3, 2, 3.0))

    def test_permutation_invariance(self):
        rng = random.Random(11)
        vectors = random_vectors(rng, 9)
        ids = [f"v{i}" for i in range(9)]
        base = hcluster(vectors, ids=ids)
        for _ in range(5):
            order = list(range(9))
            rng.shuffle(order)
            shuffled = hcluster([vectors[i] for i in order], ids=[ids[i] for i in order])
            assert shuffled == base

    def test_heights_monotone(self):
        rng = random.Random(23)
        for _ in range(20):
            vectors = random_vectors(rng, rng.randint(2, 12))
            for linkage in ("average", "single", "complete"):
                d = hcluster(vectors, linkage=linkage)
                heights = d.heights()
                assert all(a <= b for a, b in zip(heights, heights[1:]))

    def test_oracle_agreement(self):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            n = rng.randint(2, 10)
            vectors = random_vectors(rng, n)
            for linkage in ("average", "single", "complete"):
                d = hcluster(vectors, ids=list(range(n)), linkage=linkage)
                expected = oracle_hcluster(vectors, linkage=linkage)
                assert len(d.merges) == len(expected) == n - 1
                for got, want in zip(d.merges, expected):
                    assert got[:2] == want[:2]
                    assert math.isclose(got[2], want[2], rel_tol=1e-9, abs_tol=1e-12)

    def test_normalize_constant_dimension(self):
        d = hcluster([(0, 5), (2, 5), (4, 5)], ids=[0, 1, 2], normalize=True)
        assert d.normalized
        assert d.merges == ((0, 1, 0.5), (3, 2, 0.75))

    def test_tuple_ids_sort_canonically(self):
        d = hcluster(
            [(1,), (0,), (0,)],
            ids=[(1995, 0), (1994, 1), (1994, 0)],
        )
        assert d.leaves == ((1994, 0), (1994, 1), (1995, 0))
        assert d.merges[0] == (0, 1, 0.0)


class TestPrimitiveReference:
    """The nearest-neighbour cache must reproduce the primitive loop exactly:
    same merges, same tie-breaks, heights equal to the bit."""

    CONFIGS = [(linkage, normalize) for linkage in ("average", "single", "complete")
               for normalize in (False, True)]

    def assert_same(self, vectors, ids=None):
        for linkage, normalize in self.CONFIGS:
            got = hcluster(vectors, ids=ids, linkage=linkage, normalize=normalize)
            want = primitive_hcluster(vectors, ids=ids, linkage=linkage, normalize=normalize)
            assert got == want, (linkage, normalize)

    def test_small_integer_sextuples(self):
        rng = random.Random(505)
        for _ in range(60):
            n = rng.randint(1, 80)
            vectors = random_vectors(rng, n, dim=rng.choice([1, 2, 6]), hi=rng.choice([1, 2, 3, 5]))
            ids = [f"c{i:03d}" for i in range(n)]
            rng.shuffle(ids)
            self.assert_same(vectors, ids)

    def test_many_rows_share_a_neighbour(self):
        # Coordinates from {0, 1, 2}: ~300 distinct sextuples, most of them
        # at the same distance from several others, plus many duplicates.
        rng = random.Random(606)
        vectors = random_vectors(rng, 400, hi=2)
        assert len(set(vectors)) >= 250
        self.assert_same(vectors)

    def test_grid_of_equidistant_points(self):
        self.assert_same([(x, y) for x in range(12) for y in range(12)])


class TestScipyCrossCheck:
    """Tie-free float inputs against scipy, which is a test-only extra."""

    @staticmethod
    def merge_leaf_sets(n, pairs):
        members = [frozenset([i]) for i in range(n)]
        result = []
        for a, b in pairs:
            a, b = members[int(a)], members[int(b)]
            members.append(a | b)
            result.append({a, b})
        return result

    def test_matches_scipy_linkage(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = random.Random(707)
        for _ in range(15):
            n = rng.randint(2, 60)
            vectors = [tuple(rng.random() for _ in range(6)) for _ in range(n)]
            for linkage in ("average", "single", "complete"):
                d = hcluster(vectors, linkage=linkage)
                Z = hierarchy.linkage(vectors, method=linkage)
                assert self.merge_leaf_sets(n, [m[:2] for m in d.merges]) == (
                    self.merge_leaf_sets(n, Z[:, :2])
                )
                for (_, _, h), want in zip(d.merges, Z[:, 2]):
                    assert math.isclose(h, want, rel_tol=1e-9)


class TestCut:
    def test_cut_by_k(self):
        d = hcluster([(0.0,), (0.1,), (5.0,)], ids=["a", "b", "c"])
        assert cut(d, k=2) == {"a": "a", "b": "a", "c": "c"}
        assert cut(d, k=1) == {"a": "a", "b": "a", "c": "a"}
        assert cut(d, k=3) == {"a": "a", "b": "b", "c": "c"}

    def test_cut_by_height(self):
        d = hcluster([(0.0,), (1.0,), (5.0,)], ids=["a", "b", "c"])
        assert cut(d, height=0.5) == {"a": "a", "b": "b", "c": "c"}
        assert cut(d, height=1.0) == {"a": "a", "b": "a", "c": "c"}
        assert cut(d, height=100.0) == {"a": "a", "b": "a", "c": "a"}

    def test_validation(self):
        d = hcluster([(0.0,), (1.0,)])
        with pytest.raises(ValueError):
            cut(d)
        with pytest.raises(ValueError):
            cut(d, k=1, height=1.0)
        with pytest.raises(ValueError):
            cut(d, k=0)
        with pytest.raises(ValueError):
            cut(d, k=3)
        with pytest.raises(ValueError):
            cut(d, height=-1.0)
        for height in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                cut(d, height=height)

    def test_k_nonempty_clusters_randomized(self):
        rng = random.Random(88)
        for _ in range(10):
            n = rng.randint(1, 12)
            vectors = random_vectors(rng, n)
            d = hcluster(vectors)
            for k in range(1, n + 1):
                labels = cut(d, k=k)
                assert len(labels) == n
                assert len(set(labels.values())) == k
                # every label names the smallest member of its cluster
                for leaf, label in labels.items():
                    assert labels[label] == label and label <= leaf


class TestNewick:
    def test_small_tree(self):
        d = hcluster([(0.0,), (0.0,), (3.0,)], ids=["a", "b", "c"])
        assert newick(d) == "((a:0,b:0):3,c:3);"

    def test_single_leaf(self):
        assert newick(hcluster([(1.0,)], ids=["solo"])) == "solo;"

    def test_empty(self):
        assert newick(Dendrogram(leaves=(), merges=())) == ";"

    def test_labels_sanitized(self):
        d = hcluster([(0.0,), (3.0,)], ids=["a b(x)", "c:d,e"])
        text = newick(d)
        assert "a_b_x_" in text and "c_d_e" in text

    def test_balanced_and_terminated(self):
        rng = random.Random(3)
        d = hcluster(random_vectors(rng, 10))
        text = newick(d)
        assert text.count("(") == text.count(")") == 9
        assert text.endswith(";")


def recursive_newick(d):
    """The recursive renderer ``newick`` replaced; reference for its output."""
    if d.n_leaves == 0:
        return ";"
    n = d.n_leaves
    if not d.merges:
        return f"{_newick_label(d.leaves[0])};"

    def render(idx, parent_h):
        if idx < n:
            body, own = _newick_label(d.leaves[idx]), 0.0
        else:
            a, b, own = d.merges[idx - n]
            body = f"({render(a, own)},{render(b, own)})"
        return f"{body}:{fmt12(parent_h - own)}"

    a, b, h = d.merges[-1]
    return f"({render(a, h)},{render(b, h)});"


class TestNewickReference:
    CASES = [
        ([(0.0,), (0.0,), (3.0,)], ["a", "b", "c"]),
        ([(1.0,)], ["solo"]),
        ([(0.0,), (3.0,)], ["a b(x)", "c:d,e"]),
        ([(0.0,), (0.1,), (5.0,)], ["a", "b", "c"]),
        ([(0.0, 5), (2, 5), (4, 5)], None),
        ([(1,), (0,), (0,)], [(1995, 0), (1994, 1), (1994, 0)]),
        ([STAR_IN, STAR_OUT, STAR_IN, (0, 1, 0, 2, 2, 2)], None),
    ]

    def test_matches_recursive_on_fixed_inputs(self):
        assert newick(Dendrogram(leaves=(), merges=())) == recursive_newick(
            Dendrogram(leaves=(), merges=())
        )
        for vectors, ids in self.CASES:
            for linkage in ("average", "single", "complete"):
                d = hcluster(vectors, ids=ids, linkage=linkage)
                assert newick(d) == recursive_newick(d)

    def test_matches_recursive_on_random_dendrograms(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 30)
            vectors = random_vectors(rng, n, hi=rng.choice([1, 3, 9]))
            d = hcluster(vectors, linkage=rng.choice(["average", "single", "complete"]))
            assert newick(d) == recursive_newick(d)

    def test_deep_chain_of_identical_vectors(self):
        n = 1500
        d = hcluster([STAR_IN] * n)
        text = newick(d)
        assert text.endswith(";")
        assert text.count("(") == text.count(")") == n - 1
        leaves = text.replace("(", "").replace(")", "").rstrip(";").split(",")
        assert [leaf.split(":")[0] for leaf in leaves] == [str(i) for i in range(n)]


class TestJson:
    def test_shape(self):
        d = hcluster([(0.0,), (3.0,)], ids=["x", "y"])
        payload = d.to_json_dict()
        assert payload["linkage"] == "average"
        assert payload["normalized"] is False
        assert payload["leaves"] == ["x", "y"]
        assert payload["merges"] == [[0, 1, 3.0]]
        assert payload["newick"] == "(x:3,y:3);"
