import random
from itertools import combinations

import pytest

from molmine.decompose import Community
from molmine.errors import ConfigError, InputError
from molmine.temporal import (
    DEFAULT_JACCARD,
    Lifecycle,
    classify_lifecycle,
    match_across_years,
    noise_fraction,
    noise_series_csv,
    signature,
    timelines_to_json_dict,
)
from oracles import oracle_lifecycle, oracle_membership_groups


def comm(edges, cid=0, year=0):
    edges = frozenset(edges)
    members = frozenset(n for e in edges for n in e)
    return Community(id=cid, members=members, edges=edges, year=year)


PAIR_AB = comm({("A", "B")})
PAIR_XY = comm({("X", "Y")})
BRIDGE_PAIR = comm({("A", "B"), ("B", "A")})
STAR_IN = comm({("L1", "C"), ("L2", "C"), ("L3", "C")})


class TestSignature:
    def test_structural_is_isomorphism_invariant(self):
        assert signature(PAIR_AB) == signature(PAIR_XY)
        assert signature(PAIR_AB) != signature(BRIDGE_PAIR)
        assert signature(PAIR_AB) != signature(STAR_IN)

    def test_membership_keys_on_member_set(self):
        a1 = comm({("A", "B")})
        a2 = comm({("B", "A"), ("A", "B")})
        assert signature(a1, "membership") == signature(a2, "membership")
        assert signature(a1, "membership") != signature(PAIR_XY, "membership")

    def test_describe(self):
        s = signature(PAIR_AB)
        assert s.describe() == {
            "mode": "structural",
            "motif": "pair",
            "vector": {"SB": 1, "BR": 0, "DI": 0, "NU": 2, "RE": 1, "TR": 1},
        }
        m = signature(PAIR_AB, "membership")
        assert m.describe() == {"mode": "membership", "members": ["A", "B"]}

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            signature(PAIR_AB, "semantic")


class TestClassifyLifecycle:
    def test_worked_examples(self):
        rng = (1990, 2007)
        assert classify_lifecycle(range(1990, 2008), rng) is Lifecycle.CONSTANT
        assert classify_lifecycle({1994, 2006}, rng) is Lifecycle.VISITING
        assert classify_lifecycle({1995, 1996, 1997}, rng) is Lifecycle.TRANSIENT

    def test_single_year_range(self):
        assert classify_lifecycle({2000}, (2000, 2000)) is Lifecycle.CONSTANT
        assert classify_lifecycle({2000}, (1999, 2001)) is Lifecycle.TRANSIENT

    def test_errors(self):
        with pytest.raises(ValueError):
            classify_lifecycle([], (1990, 1995))
        with pytest.raises(ValueError):
            classify_lifecycle({1989}, (1990, 1995))
        with pytest.raises(ValueError):
            classify_lifecycle({1996}, (1990, 1995))

    def test_exhaustive_against_oracle(self):
        y0, y1 = 2000, 2004
        years = list(range(y0, y1 + 1))
        for r in range(1, len(years) + 1):
            for subset in combinations(years, r):
                got = classify_lifecycle(subset, (y0, y1))
                assert got.value == oracle_lifecycle(subset, (y0, y1))


class TestMatchAcrossYears:
    def test_structural_bridges_gap_years(self):
        snapshots = {1994: [PAIR_AB], 1995: [], 1996: [PAIR_XY]}
        timelines = match_across_years(snapshots)
        assert len(timelines) == 1
        t = timelines[0]
        assert t.years_present == (1994, 1996)
        assert t.lifecycle is Lifecycle.VISITING
        assert t.signature == signature(PAIR_AB)

    def test_structural_missing_year_key_is_absence(self):
        timelines = match_across_years({1994: [PAIR_AB], 1996: [PAIR_XY]})
        assert timelines[0].years_present == (1994, 1996)
        assert timelines[0].lifecycle is Lifecycle.VISITING

    def test_explicit_range_widens_lifecycle(self):
        timelines = match_across_years({2000: [PAIR_AB]}, year_range=(1999, 2001))
        assert timelines[0].lifecycle is Lifecycle.TRANSIENT

    def test_sorted_by_signature(self):
        timelines = match_across_years({2000: [STAR_IN, PAIR_AB]})
        motifs = [t.signature.key[0] for t in timelines]
        assert motifs == ["pair", "star-in"]

    def test_membership_chains_adjacent_overlap(self):
        y2000 = comm({("a", "b"), ("b", "c")})
        y2001 = comm({("a", "b"), ("b", "d")})
        y2002 = comm({("b", "d"), ("d", "e")})
        snapshots = {2000: [y2000], 2001: [y2001], 2002: [y2002]}
        # adjacent Jaccards are 2/4 = 0.5 each, meeting tau exactly
        timelines = match_across_years(snapshots, mode="membership", jaccard_tau=0.5)
        assert len(timelines) == 1
        t = timelines[0]
        assert t.years_present == (2000, 2001, 2002)
        assert t.lifecycle is Lifecycle.CONSTANT
        assert t.signature.key == ("a", "b", "c")  # least signature represents the chain

    def test_membership_tau_boundary_is_inclusive_exact(self):
        y2000 = comm({("a", "b"), ("b", "c")})
        y2001 = comm({("a", "b"), ("b", "d")})
        snapshots = {2000: [y2000], 2001: [y2001]}
        merged = match_across_years(snapshots, mode="membership", jaccard_tau=0.5)
        assert len(merged) == 1
        split = match_across_years(snapshots, mode="membership", jaccard_tau=0.51)
        assert len(split) == 2
        assert all(t.lifecycle is Lifecycle.TRANSIENT for t in split)

    def test_membership_does_not_chain_across_gap(self):
        y2000 = comm({("a", "b"), ("b", "c")})
        y2002 = comm({("a", "b"), ("b", "d")})
        timelines = match_across_years(
            {2000: [y2000], 2002: [y2002]}, mode="membership"
        )
        assert len(timelines) == 2

    def test_membership_identical_sets_match_without_chaining(self):
        timelines = match_across_years(
            {2000: [PAIR_AB], 2005: [BRIDGE_PAIR]},
            mode="membership",
        )
        assert len(timelines) == 1
        assert timelines[0].years_present == (2000, 2005)

    @pytest.mark.parametrize("tau", [0, 0.1, 1 / 3, 0.5, 1.0])
    def test_membership_matches_oracle(self, tau):
        rng = random.Random(f"membership-{tau}")
        authors = [f"a{i}" for i in range(10)]
        for _ in range(60):
            snapshots = {}
            for y in range(2000, 2000 + rng.randint(1, 6)):
                roll = rng.random()
                if roll < 0.15:
                    continue  # missing year
                if roll < 0.25:
                    snapshots[y] = []  # empty year
                    continue
                # drawn independently, so sets overlap within a year; a few are empty
                snapshots[y] = [
                    Community(
                        id=i,
                        members=frozenset(rng.sample(authors, rng.choice([0, 1, 2, 2, 3, 4, 6]))),
                        edges=frozenset(),
                        year=y,
                    )
                    for i in range(rng.randint(1, 7))
                ]
            if not snapshots:
                snapshots[2000] = []
            year_range = None
            if rng.random() < 0.3:
                year_range = (min(snapshots) - rng.randint(0, 2), max(snapshots) + rng.randint(0, 2))
            got = match_across_years(
                snapshots, mode="membership", jaccard_tau=tau, year_range=year_range
            )
            members = {y: [c.members for c in comms] for y, comms in snapshots.items()}
            want = oracle_membership_groups(members, tau, year_range)
            assert [(t.signature.key, t.years_present) for t in got] == want

    def test_errors(self):
        with pytest.raises(InputError):
            match_across_years({})
        with pytest.raises(ConfigError):
            match_across_years({2000: [PAIR_AB]}, mode="nope")
        with pytest.raises(ConfigError):
            match_across_years({2000: [PAIR_AB]}, mode="membership", jaccard_tau=1.5)
        with pytest.raises(ConfigError):
            match_across_years({2000: [PAIR_AB]}, year_range=(2001, 2000))
        with pytest.raises(ConfigError):
            match_across_years({2000: [PAIR_AB]}, year_range=(2001, 2005))


class TestNoise:
    def test_fraction(self):
        snapshot = [PAIR_AB, PAIR_XY, BRIDGE_PAIR, STAR_IN]
        assert noise_fraction(snapshot) == 0.75

    def test_no_noise(self):
        diamond = comm({("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("A", "C"), ("C", "A")})
        assert noise_fraction([diamond, STAR_IN]) == 0.0

    def test_empty(self):
        assert noise_fraction([]) == 0.0

    def test_series_csv(self):
        text = noise_series_csv([(1994, 5 / 7, 7), (1995, 0.0, 3)])
        assert text == (
            "year,noise_fraction,n_communities\n"
            "1994,0.714285714286,7\n"
            "1995,0,3\n"
        )


class TestJson:
    def test_structural_payload(self):
        timelines = match_across_years({2000: [PAIR_AB]})
        payload = timelines_to_json_dict(timelines, "structural")
        assert "jaccard" not in payload
        assert payload["identity"] == "structural"
        assert payload["timelines"] == [
            {
                "signature": {
                    "mode": "structural",
                    "motif": "pair",
                    "vector": {"SB": 1, "BR": 0, "DI": 0, "NU": 2, "RE": 1, "TR": 1},
                },
                "years_present": [2000],
                "lifecycle": "constant",
            }
        ]

    def test_membership_payload_includes_tau(self):
        timelines = match_across_years({2000: [PAIR_AB]}, mode="membership")
        payload = timelines_to_json_dict(timelines, "membership", 0.4)
        assert payload["jaccard"] == 0.4
        payload = timelines_to_json_dict(timelines, "membership")
        assert payload["jaccard"] == DEFAULT_JACCARD
