#!/usr/bin/env python3
"""Ingesting bibliographic records and mining directed association rules.

A publication record is just (id, year, authors). Every publication becomes
one transaction — its author set — and for each ordered author pair (A, B)
we measure how strongly A's publications predict B as a co-author:

    support(A => B)     fraction of the year's publications with both
    confidence(A => B)  fraction of A's publications that also list B
    lift(A => B)        confidence divided by B's base rate

A rule survives when support and confidence clear their minima and lift is
*strictly* above the lift floor, so at the default floor of 1.0 only
positively correlated pairs remain.
"""

from collections import Counter

from molmine import (
    Thresholds,
    bucket_by_year,
    mine_rules,
    parse_jsonl,
    rules_to_csv,
)

RECORDS = """\
{"id": "p01", "year": 1994, "authors": ["Ada", "Ben"]}
{"id": "p02", "year": 1994, "authors": ["Ada", "Ben"]}
{"id": "p03", "year": 1994, "authors": ["Ada", "Cy"]}
{"id": "p04", "year": 1994, "authors": ["Ben"]}
{"id": "p05", "year": 1994, "authors": ["Cy", "Dee"]}
{"id": "p06", "year": 1995, "authors": ["Ada", "Ben"]}
{"id": "p07", "year": 1995, "authors": ["Dee"]}
{"id": "p08", "year": 1995, "authors": ["Ada", "Ben", "Cy"]}
not even JSON — the lenient parser records a skip and moves on
"""


def main() -> None:
    print(__doc__)

    parsed = parse_jsonl(RECORDS)  # strict=True would abort on the bad line
    print(f"parsed {len(parsed.publications)} records, skipped {parsed.skipped}")

    buckets = bucket_by_year(parsed.publications, prior_skipped=parsed.skipped)
    print(f"year buckets: {buckets.years()}\n")

    for year in buckets.years():
        transactions = [p.author_set for p in buckets.buckets[year]]
        frequencies = Counter(a for t in transactions for a in t)
        print(f"--- {year}: {len(transactions)} transactions ---")
        print(f"author frequencies: {dict(sorted(frequencies.items()))}")

        # Wide open thresholds show every co-occurring ordered pair ...
        everything = mine_rules(transactions, Thresholds(0.0, 0.0, 0.0))
        print(f"all ordered pairs with any co-occurrence: {len(everything)}")

        # ... and the defaults keep only the positively correlated ones.
        kept = mine_rules(transactions)
        print("rules under default thresholds (support/confidence/lift):")
        print(rules_to_csv(kept))


if __name__ == "__main__":
    main()
