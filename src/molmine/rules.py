"""Directed pairwise association rule mining over author transactions.

A transaction is the author set of one publication. For an ordered author
pair (A, B) with co-occurrence count ``p``, antecedent count ``a``,
consequent count ``b`` and ``n`` transactions:

* support    = p / n           (symmetric in A, B)
* confidence = p / a
* lift       = (p * n) / (a * b)   (confidence divided by the consequent
  base rate; symmetric in A, B)

``mine_rules`` keeps the ordered pairs with support >= min_support,
confidence >= min_confidence and lift > min_lift and returns them as a
:class:`RuleTable`: the year's author names, sorted once, and numpy columns
holding per rule the antecedent id, the consequent id (indexes into the
names), support, confidence and lift. Ids are assigned in sorted-name order,
so the order of (antecedent id, consequent id) is exactly Python's ``str``
order of (antecedent, consequent). Authors are counted with ``np.bincount``
and unordered pairs as codes ``a * N + b`` (ids a < b, N names) with
``np.unique``; the rows are ordered by the codes ``antecedent * N +
consequent``, with no string sort.

Each threshold is compared exactly, against the binary value ``num/den`` of
its double (``float.as_integer_ratio()``):

* support:    p >= ceil(min_support * n), once per year
* confidence: p >= ceil(min_confidence * a), once per distinct count a
* lift:       p * n * den > num * a * b, once per unordered pair, since lift
  is symmetric

so results never depend on rounding. The reported values are the doubles
Python gives for ``p / n``, ``p / a`` and ``(p * n) / (a * b)`` on ints,
each correctly rounded. numpy divides the same operands converted to
doubles, which is the same correctly rounded quotient while every operand is
below 2**53; since p, a and b are at most n, that holds when n * n < 2**53,
and otherwise the counts become Python ints (object arrays) and Python
divides. The lift inequality needs no big product: rounding is monotonic
and min_lift is a double, so a pair whose rounded lift is above min_lift has
an exact lift above it, and one whose rounded lift is below has not. Only a
rounded lift equal to min_lift is decided by the inequality in Python ints.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from ._util import fmt12
from .errors import ConfigError, InputError

RULES_CSV_HEADER = ("antecedent", "consequent", "support", "confidence", "lift")

#: Counts below this bound, and products of two of them, are exact doubles
#: when n * n is below it (see the module docstring).
_EXACT_DOUBLE = 2**53

#: Characters that can make ``csv.writer`` quote a field.
_CSV_SPECIAL = re.compile('[,"\r\n]')


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
        if not 0.0 <= self.min_lift < math.inf:  # NaN fails both comparisons
            raise ConfigError(f"min_lift must be finite and non-negative, got {self.min_lift}")


@dataclass(frozen=True)
class Rule:
    antecedent: str
    consequent: str
    support: float
    confidence: float
    lift: float


class RuleTable(Sequence[Rule]):
    """Rules as columns over interned author names.

    ``names`` are distinct and sorted; ``antecedent`` and ``consequent`` are
    int64 indexes into them and ``support``, ``confidence`` and ``lift`` are
    float64, one entry per rule. A name need not occur in any rule. As a
    ``Sequence[Rule]`` the table has a length, and indexing or iterating it
    builds :class:`Rule` values on demand (a slice gives a list of them).
    Like other sequences of different types, a table never equals a list;
    compare ``list(table)``.
    """

    __slots__ = ("names", "antecedent", "consequent", "support", "confidence", "lift")

    def __init__(
        self,
        names: Sequence[str],
        antecedent: np.ndarray,
        consequent: np.ndarray,
        support: np.ndarray,
        confidence: np.ndarray,
        lift: np.ndarray,
    ) -> None:
        self.names = names
        self.antecedent = np.ascontiguousarray(antecedent, dtype=np.int64)
        self.consequent = np.ascontiguousarray(consequent, dtype=np.int64)
        self.support = np.ascontiguousarray(support, dtype=np.float64)
        self.confidence = np.ascontiguousarray(confidence, dtype=np.float64)
        self.lift = np.ascontiguousarray(lift, dtype=np.float64)

    @classmethod
    def from_rules(cls, rules: Iterable[Rule]) -> RuleTable:
        """A table holding ``rules`` in the given order."""
        return _table(
            [(r.antecedent, r.consequent, r.support, r.confidence, r.lift) for r in rules]
        )

    def __len__(self) -> int:
        return len(self.antecedent)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(len(self))[key]]
        i = range(len(self))[key]
        return Rule(
            self.names[self.antecedent[i]],
            self.names[self.consequent[i]],
            float(self.support[i]),
            float(self.confidence[i]),
            float(self.lift[i]),
        )

    def __iter__(self) -> Iterator[Rule]:
        names = self.names
        for a, c, s, f, l in zip(
            self.antecedent.tolist(),
            self.consequent.tolist(),
            self.support.tolist(),
            self.confidence.tolist(),
            self.lift.tolist(),
        ):
            yield Rule(names[a], names[c], s, f, l)

    def __repr__(self) -> str:
        return f"<RuleTable: {len(self)} rules over {len(self.names)} names>"


def _table(rows: Sequence[tuple[str, str, float, float, float]]) -> RuleTable:
    """Intern the names of (antecedent, consequent, support, confidence,
    lift) rows, keeping the rows in order."""
    antecedents, consequents, *values = zip(*rows) if rows else ((),) * 5
    names = sorted({*antecedents, *consequents})
    index = dict(zip(names, range(len(names))))
    ids = [
        np.fromiter(map(index.__getitem__, col), np.int64, len(col))
        for col in (antecedents, consequents)
    ]
    return RuleTable(names, *ids, *(np.array(v, dtype=np.float64) for v in values))


def _count(
    transactions: Iterable[Collection[str]],
) -> tuple[list[str], int, np.ndarray, np.ndarray, np.ndarray]:
    """Intern and count one bucket of transactions.

    Returns the sorted names, the number of transactions, the number of
    transactions holding each name (by id), and the sorted codes
    ``a * N + b`` (ids a < b) of the co-occurring pairs with the number of
    transactions holding each pair. Repeated authors count once.
    """
    sets = [t if isinstance(t, (set, frozenset)) else set(t) for t in transactions]
    names = sorted(set().union(*sets))
    n_names = len(names)
    index = dict(zip(names, range(n_names)))
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    flat = np.fromiter(
        map(index.__getitem__, chain.from_iterable(sets)), np.int64, int(sizes.sum())
    )
    singles = np.bincount(flat, minlength=n_names)
    starts = np.cumsum(sizes) - sizes
    codes = [np.empty(0, np.int64)]
    for k in (np.flatnonzero(np.bincount(sizes)[2:]) + 2).tolist():
        # the transactions of k >= 2 authors as the rows of a matrix, ids ascending
        ids = flat[starts[sizes == k][:, None] + np.arange(k)]
        ids.sort(axis=1)
        lo, hi = np.triu_indices(k, 1)
        codes.append((ids[:, lo] * n_names + ids[:, hi]).ravel())
    pairs, counts = np.unique(np.concatenate(codes), return_counts=True)
    return names, len(sets), singles, pairs, counts


def mine_rules(
    transactions: Iterable[Collection[str]],
    thresholds: Thresholds = Thresholds(),
) -> RuleTable:
    """Mine all directed pairwise rules passing the thresholds.

    Output is sorted by (antecedent, consequent). Only pairs that co-occur at
    least once are candidates; everything else has support 0.
    """
    thresholds.validate()
    names, n, singles, pairs, p = _count(transactions)
    n_names = len(names)
    s_num, s_den = thresholds.min_support.as_integer_ratio()
    c_num, c_den = thresholds.min_confidence.as_integer_ratio()
    l_num, l_den = thresholds.min_lift.as_integer_ratio()

    frequent = p >= -(-s_num * n // s_den)  # ceil(min_support * n)
    a, b = np.divmod(pairs[frequent], n_names)
    p = p[frequent]
    n_a, n_b = singles[a], singles[b]
    if n * n >= _EXACT_DOUBLE:
        p, n_a, n_b = p.astype(object), n_a.astype(object), n_b.astype(object)
    lift = np.asarray((p * n) / (n_a * n_b), dtype=np.float64)
    positive = lift > thresholds.min_lift
    for i in np.flatnonzero(lift == thresholds.min_lift).tolist():
        positive[i] = int(p[i]) * n * l_den > l_num * int(n_a[i]) * int(n_b[i])

    # ceil(min_confidence * k) for each distinct author count k
    counts, inverse = np.unique(singles, return_inverse=True)
    floors = np.array([-(-c_num * k // c_den) for k in counts.tolist()], dtype=np.int64)[inverse]
    a_to_b = positive & (p >= floors[a])
    b_to_a = positive & (p >= floors[b])

    # one row per rule: the index of its pair, its antecedent and consequent
    pair = np.concatenate([np.flatnonzero(a_to_b), np.flatnonzero(b_to_a)])
    antecedent = np.concatenate([a[a_to_b], b[b_to_a]])
    consequent = a[pair] + b[pair] - antecedent
    order = np.argsort(antecedent * n_names + consequent)
    pair, antecedent, consequent = pair[order], antecedent[order], consequent[order]
    p = p[pair]
    return RuleTable(names, antecedent, consequent, p / n, p / singles[antecedent], lift[pair])


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


def _csv_field(name: str) -> str:
    """``name`` as ``csv.writer`` writes it within a row."""
    if not _CSV_SPECIAL.search(name):
        return name
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((name,))
    return buf.getvalue()[:-1]


def _fmt_column(values: np.ndarray) -> list[str]:
    """``fmt12`` of each value, formatting each distinct double once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt12(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def rules_to_csv(rules: RuleTable) -> str:
    """Render rules as CSV with doubles at 12 significant digits.

    The text equals what ``csv.writer`` gives row by row; each name is quoted
    once and each distinct double formatted once.
    """
    quoted = np.array([_csv_field(name) for name in rules.names], dtype=object)
    rows = zip(
        quoted[rules.antecedent].tolist(),
        quoted[rules.consequent].tolist(),
        *map(_fmt_column, (rules.support, rules.confidence, rules.lift)),
    )
    return "\n".join([",".join(RULES_CSV_HEADER), *map(",".join, rows)]) + "\n"


def rules_from_csv(text: str) -> RuleTable:
    """Parse a rules CSV written by :func:`rules_to_csv`, keeping row order."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return _table([])
    if tuple(h.strip() for h in header) != RULES_CSV_HEADER:
        raise InputError(f"unexpected rules CSV header: {','.join(header)!r}")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != 5:
            raise InputError(f"malformed rules CSV row at line {reader.line_num}")
        if not row[0] or not row[1]:
            raise InputError(f"empty author name in rules CSV row at line {reader.line_num}")
        try:
            rows.append((row[0], row[1], float(row[2]), float(row[3]), float(row[4])))
        except ValueError as exc:
            raise InputError(f"malformed rules CSV row at line {reader.line_num}") from exc
    return _table(rows)
