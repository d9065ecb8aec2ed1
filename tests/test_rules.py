import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molmine.errors import ConfigError, InputError
from molmine.rules import (
    Rule,
    Thresholds,
    count_pairs,
    mine_rules,
    rules_from_csv,
    rules_to_csv,
    sample_transactions,
)
from oracles import oracle_mine


def rules_as_dict(rules):
    return {(r.antecedent, r.consequent): (r.support, r.confidence, r.lift) for r in rules}


class TestCounts:
    def test_count_pairs(self):
        counts = count_pairs([{"A", "B"}, {"A", "B", "C"}, {"B"}])
        assert counts.n_transactions == 3
        assert counts.singles == {"A": 2, "B": 3, "C": 1}
        assert counts.pairs == {("A", "B"): 2, ("A", "C"): 1, ("B", "C"): 1}

    def test_duplicate_authors_in_transaction_count_once(self):
        counts = count_pairs([["A", "A", "B"]])
        assert counts.singles["A"] == 1
        assert counts.pairs[("A", "B")] == 1

    def test_measures(self):
        transactions = [{"A", "B"}, {"A", "B"}, {"A", "C"}, {"B"}]
        rules = rules_as_dict(mine_rules(transactions, Thresholds(0.0, 0.0, 0.0)))
        assert rules[("A", "B")] == (0.5, 2 / 3, (2 * 4) / (3 * 3))
        assert rules[("B", "A")] == (0.5, 2 / 3, (2 * 4) / (3 * 3))


class TestThresholds:
    def test_defaults(self):
        t = Thresholds()
        assert (t.min_support, t.min_confidence, t.min_lift) == (0.001, 0.05, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_support": -0.1},
            {"min_support": 1.5},
            {"min_confidence": -1.0},
            {"min_confidence": 2.0},
            {"min_lift": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            Thresholds(**kwargs).validate()


class TestMineRules:
    def test_worked_example_lift_blocks(self):
        # (A, B) co-occur in half the corpus yet are negatively correlated.
        rules = rules_as_dict(mine_rules([{"A", "B"}, {"A", "B"}, {"A", "C"}, {"B"}]))
        assert ("A", "B") not in rules and ("B", "A") not in rules
        assert ("A", "C") in rules and ("C", "A") in rules
        assert rules[("A", "C")] == (0.25, 1 / 3, 4 / 3)
        assert rules[("C", "A")] == (0.25, 1.0, 4 / 3)

    def test_worked_example_symmetric_pair(self):
        rules = rules_as_dict(mine_rules([{"A", "B"}, {"A", "B"}, {"C"}, {"C"}]))
        assert rules == {
            ("A", "B"): (0.5, 1.0, 2.0),
            ("B", "A"): (0.5, 1.0, 2.0),
        }

    def test_boundary_semantics(self):
        # support and confidence are >=, lift is strict >
        transactions = [{"A", "B"}, {"A"}, {"B"}, set()]
        mined = rules_as_dict(mine_rules(transactions, Thresholds(0.0, 0.0, 0.0)))
        assert mined[("A", "B")] == (0.25, 0.5, 1.0)
        at_boundary = mine_rules(
            transactions, Thresholds(min_support=0.25, min_confidence=0.5, min_lift=1.0)
        )
        assert at_boundary == []  # lift 1.0 is not > 1.0
        below = mine_rules(
            transactions, Thresholds(min_support=0.25, min_confidence=0.5, min_lift=0.99)
        )
        assert {(r.antecedent, r.consequent) for r in below} == {("A", "B"), ("B", "A")}

    def test_sorted_output(self):
        rules = mine_rules([{"X", "A"}, {"X", "A"}, {"B", "A"}, {"B", "A"}, {"C"}])
        keys = [(r.antecedent, r.consequent) for r in rules]
        assert keys == sorted(keys)

    def test_empty_transactions(self):
        assert mine_rules([]) == []
        assert mine_rules([set(), set()]) == []

    def test_oracle_agreement_randomized(self):
        rng = random.Random(20240817)
        settings_grid = [
            (0.001, 0.05, 1.0),
            (0.0, 0.0, 0.0),
            (0.2, 0.3, 1.1),
            (0.5, 0.5, 0.5),
            (1.0, 1.0, 1.0),
            (0.1, 0.0, 2.0),
            (0.25, 0.75, 0.0),
        ]
        authors = "ABCDEFGH"
        for trial in range(120):
            n = rng.randint(1, 20)
            transactions = [
                set(rng.sample(authors, rng.randint(0, len(authors))))
                for _ in range(n)
            ]
            ms, mc, ml = settings_grid[trial % len(settings_grid)]
            got = rules_as_dict(mine_rules(transactions, Thresholds(ms, mc, ml)))
            # bitwise equality: same rule set and identical doubles
            assert got == oracle_mine(transactions, ms, mc, ml)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.frozensets(st.sampled_from("ABCDE"), max_size=5), min_size=1, max_size=12
        )
    )
    def test_rule_measure_invariants(self, transactions):
        for r in mine_rules(transactions, Thresholds(0.0, 0.0, 0.0)):
            assert 0 < r.support <= 1
            assert 0 < r.confidence <= 1
            assert r.lift > 0


class TestSampling:
    def test_deterministic_and_order_preserving(self):
        transactions = [{str(i)} for i in range(100)]
        a = sample_transactions(transactions, 0.5, seed=42)
        b = sample_transactions(transactions, 0.5, seed=42)
        assert a == b
        assert [t for t in transactions if t in a] == a  # order preserved
        assert sample_transactions(transactions, 1.0, seed=1) == transactions
        assert sample_transactions(transactions, 0.0, seed=1) == []

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            sample_transactions([], 1.5, seed=0)


class TestRulesCsv:
    def test_round_trip(self):
        rules = mine_rules([{"A", "B"}, {"A", "B"}, {"C"}, {"C"}])
        text = rules_to_csv(rules)
        lines = text.splitlines()
        assert lines[0] == "antecedent,consequent,support,confidence,lift"
        assert lines[1] == "A,B,0.5,1,2"
        assert rules_from_csv(text) == rules

    def test_twelve_significant_digits(self):
        rule = Rule("A", "B", 1 / 3, 2 / 3, 4 / 3)
        text = rules_to_csv([rule])
        assert "0.333333333333" in text and "1.33333333333" in text

    def test_bad_header(self):
        with pytest.raises(InputError):
            rules_from_csv("a,b,c\n")

    def test_bad_row(self):
        good = rules_to_csv(mine_rules([{"A", "B"}, {"A", "B"}]))
        with pytest.raises(InputError):
            rules_from_csv(good + "A,B,oops,1,1\n")
