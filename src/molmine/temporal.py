"""Temporal pattern tracking across yearly snapshots.

Communities from different years are matched by a *signature*. Two identity
modes are offered because "the same pattern" is ambiguous: ``structural``
(default) keys on shape — motif class plus attribute vector — while
``membership`` keys on the author set, additionally chaining groups whose
member sets overlap with Jaccard similarity >= tau across adjacent years.

Each matched group becomes a timeline whose lifecycle over the analysis
range is exactly one of: constant (present every year), visiting (gone for
at least a year, then back), or transient (one run shorter than the range).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from ._util import fmt12
from .decompose import (
    VECTOR_FIELDS,
    Community,
    MotifClass,
    attribute_vector,
    classify_motif,
)
from .errors import ConfigError, InputError

IDENTITY_MODES = ("structural", "membership")
DEFAULT_JACCARD = 0.5

NOISE_CSV_HEADER = "year,noise_fraction,n_communities"


class Lifecycle(str, Enum):
    CONSTANT = "constant"
    VISITING = "visiting"
    TRANSIENT = "transient"


@dataclass(frozen=True, order=True)
class Signature:
    """Identity of a community pattern under one matching mode.

    ``key`` is (motif value, attribute sextuple) in structural mode and the
    sorted member tuple in membership mode; equal communities always yield
    equal signatures, and structural keys are isomorphism-invariant.
    """

    mode: str
    key: tuple

    def describe(self) -> dict:
        if self.mode == "structural":
            motif, vector = self.key
            return {
                "mode": "structural",
                "motif": motif,
                "vector": dict(zip(VECTOR_FIELDS, vector)),
            }
        return {"mode": "membership", "members": list(self.key)}


@dataclass(frozen=True)
class PatternTimeline:
    signature: Signature
    years_present: tuple[int, ...]
    lifecycle: Lifecycle

    def to_json_dict(self) -> dict:
        return {
            "signature": self.signature.describe(),
            "years_present": list(self.years_present),
            "lifecycle": self.lifecycle.value,
        }


def signature(c: Community, mode: str = "structural") -> Signature:
    if mode == "structural":
        return Signature("structural", (classify_motif(c).value, attribute_vector(c).as_tuple()))
    if mode == "membership":
        return Signature("membership", tuple(sorted(c.members)))
    raise ConfigError(f"unknown identity mode {mode!r}, expected one of {IDENTITY_MODES}")


def classify_lifecycle(years_present: Iterable[int], year_range: tuple[int, int]) -> Lifecycle:
    """Classify a presence set over an inclusive analysis range."""
    y0, y1 = year_range
    years = sorted(set(years_present))
    if not years:
        raise ValueError("years_present must be nonempty")
    if years[0] < y0 or years[-1] > y1:
        raise ValueError(f"years_present {years} not within range {y0}..{y1}")
    if len(years) == y1 - y0 + 1:
        return Lifecycle.CONSTANT
    runs = 1 + sum(1 for a, b in zip(years, years[1:]) if b > a + 1)
    if runs >= 2:
        return Lifecycle.VISITING
    return Lifecycle.TRANSIENT


def match_across_years(
    snapshots: Mapping[int, Sequence[Community]],
    mode: str = "structural",
    jaccard_tau: float = DEFAULT_JACCARD,
    year_range: tuple[int, int] | None = None,
) -> list[PatternTimeline]:
    """Group yearly communities into pattern timelines.

    ``snapshots`` maps year to that year's communities; years missing from
    the map (inside the range) count as absence for every signature. The
    analysis range defaults to the min..max snapshot years.

    In membership mode, signatures of adjacent years are joined when their
    member sets have Jaccard >= ``jaccard_tau``, tested in exact integers as
    ``inter * den >= num * union`` with ``num / den`` the exact value of the
    double ``jaccard_tau``. Only pairs that share an author are compared, so
    the cost grows with shared authors, not with the number of community
    pairs. ``jaccard_tau = 0`` accepts every pair, disjoint ones included:
    two adjacent non-empty years then join into one group. Each group is
    represented by its least signature.
    """
    if mode not in IDENTITY_MODES:
        raise ConfigError(f"unknown identity mode {mode!r}, expected one of {IDENTITY_MODES}")
    if not 0.0 <= jaccard_tau <= 1.0:
        raise ConfigError(f"jaccard tau must be in [0, 1], got {jaccard_tau}")
    if not snapshots:
        raise InputError("no snapshots to match across years")
    if year_range is None:
        year_range = (min(snapshots), max(snapshots))
    y0, y1 = year_range
    if y0 > y1:
        raise ConfigError(f"invalid year range {y0}:{y1}")
    outside = sorted(y for y in snapshots if not y0 <= y <= y1)
    if outside:
        raise ConfigError(f"snapshot years {outside} outside range {y0}:{y1}")

    sig_years: dict[Signature, set[int]] = {}
    per_year: dict[int, list[Signature]] = {}
    for y in range(y0, y1 + 1):
        seen = sorted({signature(c, mode) for c in snapshots.get(y, [])})
        per_year[y] = seen
        for s in seen:
            sig_years.setdefault(s, set()).add(y)

    if mode == "membership":
        parent: dict[Signature, Signature] = {s: s for s in sig_years}

        def find(s: Signature) -> Signature:
            root = s
            while parent[root] != root:
                root = parent[root]
            while parent[s] != root:
                parent[s], s = root, parent[s]
            return root

        def union(s1: Signature, s2: Signature) -> None:
            r1, r2 = find(s1), find(s2)
            if r1 != r2:
                lo, hi = (r1, r2) if r1 < r2 else (r2, r1)
                parent[hi] = lo

        num, den = jaccard_tau.as_integer_ratio()
        for y in range(y0, y1):
            earlier, later = per_year[y], per_year[y + 1]
            if not earlier or not later:
                continue
            if num == 0:
                # tau = 0 accepts every pair, disjoint sets included, so
                # both years collapse into one group.
                for s in earlier[1:] + later:
                    union(earlier[0], s)
                continue
            # Pairs sharing no author have Jaccard 0 < tau, so each earlier
            # signature is compared only with the later ones it shares an
            # author with.
            by_author: dict[str, list[int]] = {}
            for j, s2 in enumerate(later):
                for author in s2.key:
                    by_author.setdefault(author, []).append(j)
            for s1 in earlier:
                shared: dict[int, int] = {}
                for author in s1.key:
                    for j in by_author.get(author, ()):
                        shared[j] = shared.get(j, 0) + 1
                for j, inter in shared.items():
                    s2 = later[j]
                    if inter * den >= num * (len(s1.key) + len(s2.key) - inter):
                        union(s1, s2)
        groups: dict[Signature, set[int]] = {}
        for s, years in sig_years.items():
            groups.setdefault(find(s), set()).update(years)
    else:
        groups = sig_years

    timelines = [
        PatternTimeline(
            signature=s,
            years_present=tuple(sorted(years)),
            lifecycle=classify_lifecycle(years, (y0, y1)),
        )
        for s, years in groups.items()
    ]
    timelines.sort(key=lambda t: t.signature)
    return timelines


def noise_fraction(snapshot: Sequence[Community]) -> float:
    """Share of communities that are isolated author pairs (pair or bridge-pair)."""
    if not snapshot:
        return 0.0
    noisy = sum(
        1
        for c in snapshot
        if classify_motif(c) in (MotifClass.PAIR, MotifClass.BRIDGE_PAIR)
    )
    return noisy / len(snapshot)


def timelines_to_json_dict(
    timelines: Sequence[PatternTimeline],
    mode: str,
    jaccard_tau: float | None = None,
) -> dict:
    data: dict = {"identity": mode}
    if mode == "membership":
        data["jaccard"] = jaccard_tau if jaccard_tau is not None else DEFAULT_JACCARD
    data["timelines"] = [t.to_json_dict() for t in timelines]
    return data


def noise_series_csv(series: Sequence[tuple[int, float, int]]) -> str:
    """Render the per-year noise series as CSV (`year,noise_fraction,n_communities`)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(NOISE_CSV_HEADER.split(","))
    for year, noise, n_comms in series:
        writer.writerow([year, fmt12(noise), n_comms])
    return buf.getvalue()
