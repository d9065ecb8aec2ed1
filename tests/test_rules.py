import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from molmine import rules as rules_mod
from molmine.errors import ConfigError, InputError
from molmine.rules import (
    Rule,
    RuleTable,
    Thresholds,
    mine_rules,
    rules_from_csv,
    rules_to_csv,
    sample_transactions,
)
from oracles import PairCounts, count_pairs, oracle_mine, primitive_rules_to_csv
from strategies import NAMES


def rules_as_dict(rules):
    return {(r.antecedent, r.consequent): (r.support, r.confidence, r.lift) for r in rules}


def array_counts(transactions):
    """The array counts of ``mine_rules`` keyed by name, as ``count_pairs``
    gives them."""
    names, n, singles, pairs, counts = rules_mod._count(transactions)
    a, b = np.divmod(pairs, max(len(names), 1))
    return PairCounts(
        n,
        Counter(dict(zip(names, singles.tolist()))),
        Counter(
            {(names[i], names[j]): p for i, j, p in zip(a.tolist(), b.tolist(), counts.tolist())}
        ),
    )


#: Transactions over a few names mixing escapes, non-ASCII and astral
#: characters, with authors repeated inside a transaction.
UNICODE_TRANSACTIONS = st.lists(NAMES, min_size=1, max_size=6, unique=True).flatmap(
    lambda names: st.lists(st.lists(st.sampled_from(names), max_size=8), max_size=14)
)

_SETTINGS_GRID = [
    (0.001, 0.05, 1.0),
    (0.0, 0.0, 0.0),
    (0.2, 0.3, 1.1),
    (0.5, 0.5, 0.5),
    (1.0, 1.0, 1.0),
    (0.1, 0.0, 2.0),
    (0.25, 0.75, 0.0),
]


class TestCounts:
    def test_count_pairs(self):
        counts = array_counts([{"A", "B"}, {"A", "B", "C"}, {"B"}])
        assert counts.n_transactions == 3
        assert counts.singles == {"A": 2, "B": 3, "C": 1}
        assert counts.pairs == {("A", "B"): 2, ("A", "C"): 1, ("B", "C"): 1}

    def test_duplicate_authors_in_transaction_count_once(self):
        counts = array_counts([["A", "A", "B"]])
        assert counts.singles["A"] == 1
        assert counts.pairs[("A", "B")] == 1

    @settings(max_examples=200, deadline=None)
    @given(UNICODE_TRANSACTIONS)
    def test_array_counts_match_reference(self, transactions):
        assert array_counts(transactions) == count_pairs(transactions)

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
        assert list(at_boundary) == []  # lift 1.0 is not > 1.0
        below = mine_rules(
            transactions, Thresholds(min_support=0.25, min_confidence=0.5, min_lift=0.99)
        )
        assert {(r.antecedent, r.consequent) for r in below} == {("A", "B"), ("B", "A")}

    def test_sorted_output(self):
        rules = mine_rules([{"X", "A"}, {"X", "A"}, {"B", "A"}, {"B", "A"}, {"C"}])
        keys = [(r.antecedent, r.consequent) for r in rules]
        assert keys == sorted(keys)

    def test_empty_transactions(self):
        assert list(mine_rules([])) == []
        assert list(mine_rules([set(), set()])) == []

    def test_oracle_agreement_randomized(self):
        rng = random.Random(20240817)
        settings_grid = _SETTINGS_GRID
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

    @settings(max_examples=200, deadline=None)
    @given(UNICODE_TRANSACTIONS, st.sampled_from(_SETTINGS_GRID))
    def test_oracle_agreement_unicode_names(self, transactions, grid):
        rules = mine_rules(transactions, Thresholds(*grid))
        keys = [(r.antecedent, r.consequent) for r in rules]
        assert keys == sorted(keys)
        # bitwise equality: same rule set and identical doubles
        assert rules_as_dict(rules) == oracle_mine(transactions, *grid)

    def test_python_division_matches_oracle(self, monkeypatch):
        # the path taken when n * n reaches 2**53: counts as Python ints
        monkeypatch.setattr(rules_mod, "_EXACT_DOUBLE", 0)
        rng = random.Random(7)
        for trial in range(60):
            transactions = [
                set(rng.sample("ABCDEF", rng.randint(0, 6))) for _ in range(rng.randint(1, 16))
            ]
            ms, mc, ml = _SETTINGS_GRID[trial % len(_SETTINGS_GRID)]
            got = rules_as_dict(mine_rules(transactions, Thresholds(ms, mc, ml)))
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


def _around(values):
    """Each value with the doubles just below and above it."""
    return sorted({w for v in values for w in (math.nextafter(v, -1.0), v, math.nextafter(v, 2.0))})


# exact binary fractions: thresholds whose double is the rational itself
_DYADIC = [k / 8 for k in range(17)]


class TestIntegerThresholds:
    """The integer floors of ``mine_rules`` against the ``Fraction`` oracle,
    with every threshold placed on (or one double beside) a value the counts
    can take: k/n for support, k/n_A for confidence, p*n/(n_A*n_B) for lift."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(st.frozensets(st.sampled_from("ABCDEF"), max_size=6), min_size=1, max_size=16),
        st.data(),
    )
    def test_matches_fraction_oracle_on_boundaries(self, transactions, data):
        counts = count_pairs(transactions)  # the reference counts
        n = counts.n_transactions
        singles = counts.singles.values()
        support = _around([k / n for k in range(n + 1)] + _DYADIC[:9])
        confidence = _around(
            [k / n_a for n_a in singles for k in range(n_a + 1)] + _DYADIC[:9]
        )
        lift = _around(
            [p * n / (counts.singles[a] * counts.singles[b]) for (a, b), p in counts.pairs.items()]
            + _DYADIC
        )
        ms = min(max(data.draw(st.sampled_from(support)), 0.0), 1.0)
        mc = min(max(data.draw(st.sampled_from(confidence)), 0.0), 1.0)
        ml = max(data.draw(st.sampled_from(lift)), 0.0)
        rules = mine_rules(transactions, Thresholds(ms, mc, ml))
        keys = [(r.antecedent, r.consequent) for r in rules]
        assert keys == sorted(keys)
        # bitwise equality: same rule set and identical doubles
        assert rules_as_dict(rules) == oracle_mine(transactions, ms, mc, ml)

    @pytest.mark.parametrize(
        "thresholds,kept",
        [
            # support 3/8 and confidence 3/4 are exact doubles: >= keeps them
            (Thresholds(0.375, 0.75, 0.0), {("A", "B"), ("B", "A")}),
            (Thresholds(math.nextafter(0.375, 1.0), 0.0, 0.0), set()),
            (Thresholds(0.0, math.nextafter(0.75, 1.0), 0.0), set()),
            # lift 8*3/(4*4) = 1.5 exactly: > drops it, one double below keeps it
            (Thresholds(0.0, 0.0, 1.5), set()),
            (Thresholds(0.0, 0.0, math.nextafter(1.5, 0.0)), {("A", "B"), ("B", "A")}),
        ],
    )
    def test_exact_binary_boundaries(self, thresholds, kept):
        transactions = [{"A", "B"}] * 3 + [{"A"}, {"B"}, set(), set(), set()]
        rules = mine_rules(transactions, thresholds)
        assert {(r.antecedent, r.consequent) for r in rules} == kept

    @pytest.mark.parametrize(
        "thresholds,kept",
        [
            # the double 0.3 lies just below 3/10, its successor just above
            (Thresholds(0.3, 0.0, 0.0), {("A", "B"), ("B", "A")}),
            (Thresholds(math.nextafter(0.3, 1.0), 0.0, 0.0), set()),
            (Thresholds(0.0, 0.3, 0.0), {("A", "B"), ("B", "A")}),
            (Thresholds(0.0, math.nextafter(0.3, 1.0), 0.0), {("B", "A")}),
        ],
    )
    def test_decimal_boundaries(self, thresholds, kept):
        # support 3/10, confidence A=>B 3/10 and B=>A 1, lift 1
        transactions = [{"A", "B"}] * 3 + [{"A"}] * 7
        rules = mine_rules(transactions, thresholds)
        assert {(r.antecedent, r.consequent) for r in rules} == kept

    @pytest.mark.parametrize(
        "transactions,min_lift,kept",
        [
            # lift 4/3 rounds down to the double 4/3: the exact lift is above it
            ([{"A", "C"}, {"A"}, {"A"}, {"B"}], 4 / 3, {("A", "C"), ("C", "A")}),
            # lift 5/3 rounds up to the double 5/3: the exact lift is below it
            ([{"A", "C"}, {"A"}, {"A"}, {"B"}, {"B"}], 5 / 3, set()),
            ([{"A", "C"}, {"A"}, {"A"}, {"B"}, {"B"}], math.nextafter(5 / 3, 0.0),
             {("A", "C"), ("C", "A")}),
        ],
    )
    def test_lift_equal_to_threshold_decided_exactly(self, transactions, min_lift, kept):
        rules = mine_rules(transactions, Thresholds(0.0, 0.0, min_lift))
        assert {(r.antecedent, r.consequent) for r in rules} == kept
        assert rules_as_dict(rules) == oracle_mine(transactions, 0.0, 0.0, min_lift)

    @pytest.mark.parametrize(
        "transactions,kept",
        [
            # p*n*den = 200*200*2**51 > 2**63 at min_lift 1.1; lift is 1
            ([{"A", "B"}] * 200, set()),
            # p*n*den = 100*200*2**51 > 2**63; lift is 2
            ([{"A", "B"}] * 100 + [set()] * 100, {("A", "B"), ("B", "A")}),
        ],
    )
    def test_lift_products_beyond_int64(self, transactions, kept):
        num, den = (1.1).as_integer_ratio()
        assert len(transactions) ** 2 * den > 2**63
        rules = mine_rules(transactions, Thresholds(0.0, 0.0, 1.1))
        assert {(r.antecedent, r.consequent) for r in rules} == kept
        assert rules_as_dict(rules) == oracle_mine(transactions, 0.0, 0.0, 1.1)


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
        assert list(rules_from_csv(text)) == list(rules)

    def test_twelve_significant_digits(self):
        rule = Rule("A", "B", 1 / 3, 2 / 3, 4 / 3)
        text = rules_to_csv(RuleTable.from_rules([rule]))
        assert "0.333333333333" in text and "1.33333333333" in text

    def test_bad_header(self):
        with pytest.raises(InputError):
            rules_from_csv("a,b,c\n")

    def test_bad_row(self):
        good = rules_to_csv(mine_rules([{"A", "B"}, {"A", "B"}]))
        with pytest.raises(InputError):
            rules_from_csv(good + "A,B,oops,1,1\n")

    @pytest.mark.parametrize("row", [",B,1,1,1", "A,,1,1,1", '"",B,1,1,1'])
    def test_empty_name_names_its_line(self, row):
        text = f"antecedent,consequent,support,confidence,lift\nA,B,1,1,1\n{row}\n"
        with pytest.raises(InputError, match="line 3"):
            rules_from_csv(text)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.builds(
                Rule,
                st.one_of(NAMES, st.text(alphabet=' ,"\r\nAé', min_size=1, max_size=4)),
                st.one_of(NAMES, st.text(alphabet=' ,"\r\nAé', min_size=1, max_size=4)),
                st.floats(),
                st.floats(),
                st.floats(),
            ),
            max_size=20,
        )
    )
    @example([Rule("A", "B", 0.0, -0.0, math.nan), Rule(" A", "B,", -0.0, 0.0, -math.inf)])
    def test_matches_row_by_row_writer(self, rules):
        # names holding separators, quotes, line breaks and leading spaces;
        # any double, -0.0, infinities and NaN included
        assert rules_to_csv(RuleTable.from_rules(rules)) == primitive_rules_to_csv(rules)

    def test_mined_rules_match_row_by_row_writer(self):
        transactions = [{" A", 'B"', "C,D"}, {" A", 'B"'}, {"e\nf", "C,D"}, {"e\nf", "C,D"}]
        rules = mine_rules(transactions, Thresholds(0.0, 0.0, 0.0))
        assert len(rules) == 8
        assert rules_to_csv(rules) == primitive_rules_to_csv(list(rules))


class TestRuleTable:
    RULES = [
        Rule("B", "A", 0.5, 1.0, 2.0),
        Rule("A", "C", 0.25, 0.5, 1.5),
        Rule("C", "B", 0.1, 0.2, 3.0),
    ]

    def test_sequence_of_rules(self):
        table = RuleTable.from_rules(self.RULES)
        assert table.names == ["A", "B", "C"]
        assert len(table) == 3
        assert list(table) == self.RULES  # row order kept
        assert table[0] == self.RULES[0] and table[-1] == self.RULES[-1]
        assert table[1:] == self.RULES[1:]
        assert list(reversed(table)) == self.RULES[::-1]
        assert self.RULES[1] in table and table.index(self.RULES[2]) == 2
        with pytest.raises(IndexError):
            table[3]

    def test_columns(self):
        table = mine_rules([{"b", "a"}, {"b", "a"}, {"c"}])
        assert table.names == ["a", "b", "c"]
        assert table.antecedent.tolist() == [0, 1] and table.consequent.tolist() == [1, 0]
        assert table.support.tolist() == [2 / 3, 2 / 3]
        assert table.confidence.tolist() == [1.0, 1.0]
        assert table.lift.tolist() == [1.5, 1.5]

    def test_empty(self):
        table = RuleTable.from_rules([])
        assert len(table) == 0 and list(table) == [] and table.names == []
        assert rules_to_csv(table) == "antecedent,consequent,support,confidence,lift\n"
