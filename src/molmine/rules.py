"""Directed pairwise association rule mining over author transactions.

A transaction is the author set of one publication. For an ordered author
pair (A, B) with co-occurrence count ``p``, antecedent count ``a``,
consequent count ``b`` and ``n`` transactions:

* support    = p / n           (symmetric in A, B)
* confidence = p / a
* lift       = (p * n) / (a * b)   (confidence divided by the consequent
  base rate; symmetric in A, B)

``mine_rules`` keeps the ordered pairs with support >= min_support,
confidence >= min_confidence and lift > min_lift. Threshold comparisons are
done in exact rational arithmetic on the integer counts (against the exact
binary value of each double threshold), so results never depend on rounding;
the reported support/confidence/lift values are doubles.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Collection, Iterable, Sequence

from ._util import fmt12
from .errors import ConfigError, InputError

RULES_CSV_HEADER = ("antecedent", "consequent", "support", "confidence", "lift")


@dataclass(frozen=True)
class Thresholds:
    """Mining cutoffs. Support and confidence are minima (>=), lift is a
    strict lower bound (>) so only positively correlated pairs survive."""

    min_support: float = 0.001
    min_confidence: float = 0.05
    min_lift: float = 1.0

    def validate(self) -> None:
        if not (0.0 <= self.min_support <= 1.0):
            raise ConfigError(f"min_support must be in [0,1], got {self.min_support}")
        if not (0.0 <= self.min_confidence <= 1.0):
            raise ConfigError(f"min_confidence must be in [0,1], got {self.min_confidence}")
        if self.min_lift < 0.0:
            raise ConfigError(f"min_lift must be non-negative, got {self.min_lift}")


@dataclass
class PairCounts:
    """Singleton and unordered-pair co-occurrence counts for one bucket."""

    n_transactions: int
    singles: Counter[str]
    pairs: Counter[tuple[str, str]]


@dataclass(frozen=True)
class Rule:
    antecedent: str
    consequent: str
    support: float
    confidence: float
    lift: float


def count_pairs(transactions: Iterable[Collection[str]]) -> PairCounts:
    """Count, per author and per unordered co-occurring pair, the number of
    transactions containing them."""
    singles: Counter[str] = Counter()
    pairs: Counter[tuple[str, str]] = Counter()
    n = 0
    for t in transactions:
        n += 1
        authors = sorted(set(t))
        singles.update(authors)
        pairs.update(combinations(authors, 2))
    return PairCounts(n, singles, pairs)


def mine_rules(
    transactions: Iterable[Collection[str]],
    thresholds: Thresholds = Thresholds(),
) -> list[Rule]:
    """Mine all directed pairwise rules passing the thresholds.

    Output is sorted by (antecedent, consequent). Only pairs that co-occur at
    least once are candidates; everything else has support 0.
    """
    thresholds.validate()
    counts = count_pairs(transactions)
    n = counts.n_transactions
    min_support = Fraction(thresholds.min_support)
    min_confidence = Fraction(thresholds.min_confidence)
    min_lift = Fraction(thresholds.min_lift)

    rules: list[Rule] = []
    for (a, b), p in counts.pairs.items():
        if Fraction(p, n) < min_support:
            continue
        for ante, cons in ((a, b), (b, a)):
            n_ante = counts.singles[ante]
            n_cons = counts.singles[cons]
            if Fraction(p, n_ante) < min_confidence:
                continue
            if Fraction(p * n, n_ante * n_cons) <= min_lift:
                continue
            rules.append(
                Rule(ante, cons, p / n, p / n_ante, (p * n) / (n_ante * n_cons))
            )
    rules.sort(key=lambda r: (r.antecedent, r.consequent))
    return rules


def sample_transactions(
    transactions: Sequence[Collection[str]], fraction: float, seed: int
) -> list[Collection[str]]:
    """Bernoulli-sample transactions, keeping each with the given probability.

    Deterministic for a fixed seed; preserves input order.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ConfigError(f"sample fraction must be in [0,1], got {fraction}")
    rng = random.Random(seed)
    return [t for t in transactions if rng.random() < fraction]


def rules_to_csv(rules: Iterable[Rule]) -> str:
    """Render rules as CSV with doubles at 12 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RULES_CSV_HEADER)
    for r in rules:
        writer.writerow(
            [r.antecedent, r.consequent, fmt12(r.support), fmt12(r.confidence), fmt12(r.lift)]
        )
    return buf.getvalue()


def rules_from_csv(text: str) -> list[Rule]:
    """Parse a rules CSV written by :func:`rules_to_csv`."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return []
    if tuple(h.strip() for h in header) != RULES_CSV_HEADER:
        raise InputError(f"unexpected rules CSV header: {','.join(header)!r}")
    rules = []
    for row in reader:
        if not row:
            continue
        if len(row) != 5:
            raise InputError(f"malformed rules CSV row at line {reader.line_num}")
        try:
            rules.append(Rule(row[0], row[1], float(row[2]), float(row[3]), float(row[4])))
        except ValueError as exc:
            raise InputError(f"malformed rules CSV row at line {reader.line_num}") from exc
    return rules
