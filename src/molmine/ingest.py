"""Bibliographic ingestion: parse publication records and bucket them by year.

Three input formats are supported:

* JSONL, one object per line: ``{"id": "p1", "year": 1994, "authors": ["A", "B"]}``
* CSV with header ``id,year,authors`` where the authors cell is ``;``-separated
* a DBLP-style XML subset (record elements carrying a ``key`` attribute,
  ``author`` children and a ``year`` child)

Every record becomes one :class:`Publication`, which downstream modules treat
as a transaction over its author set. Parsing is lenient by default: broken
records are skipped and counted. ``strict=True`` aborts on the first broken
record instead.
"""

from __future__ import annotations

import csv
import io
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import IO, Iterable

from ._util import is_utf8_str
from .errors import ConfigError, InputError

#: DBLP record elements that may describe a publication.
DBLP_RECORD_TAGS = (
    "article",
    "inproceedings",
    "proceedings",
    "book",
    "incollection",
    "phdthesis",
    "mastersthesis",
    "www",
)


@dataclass(frozen=True)
class Publication:
    """One bibliographic record, i.e. one transaction over author identifiers.

    Attributes:
        id: opaque record identifier.
        year: calendar year the publication is counted to (positive).
        authors: author identifiers, deduplicated, first occurrence order,
            surrounding whitespace trimmed. Never empty.
    """

    id: str
    year: int
    authors: tuple[str, ...]

    @property
    def author_set(self) -> frozenset[str]:
        return frozenset(self.authors)


@dataclass
class ParseResult:
    """Publications parsed from one input plus the number of skipped records.

    ``len(publications) + skipped`` equals the number of candidate records
    encountered in the input.
    """

    publications: list[Publication] = field(default_factory=list)
    skipped: int = 0


@dataclass
class YearBuckets:
    """Publications grouped by their own year.

    ``total_count`` is the number of bucketed publications (sum of bucket
    sizes); ``skipped_count`` covers records rejected earlier plus
    publications outside the requested year range.
    """

    buckets: dict[int, list[Publication]] = field(default_factory=dict)
    total_count: int = 0
    skipped_count: int = 0

    def years(self) -> list[int]:
        return sorted(self.buckets)


def _clean_authors(names: Iterable[str]) -> tuple[str, ...]:
    """Trim, drop empties, deduplicate preserving first occurrence."""
    seen: dict[str, None] = {}
    for name in names:
        name = name.strip()
        if name and name not in seen:
            seen[name] = None
    return tuple(seen)


def _make_publication(pub_id: str, year: object, authors: Iterable[str]) -> Publication | None:
    """Validate one candidate record; None when it cannot form a publication."""
    if not isinstance(year, int) or isinstance(year, bool) or year <= 0:
        return None
    cleaned = _clean_authors(authors)
    if not cleaned:
        return None
    pub_id = pub_id.strip()
    if not pub_id:
        return None
    return Publication(pub_id, year, cleaned)


def _lines(stream: str | IO[str] | Iterable[str]) -> Iterable[str]:
    if isinstance(stream, str):
        return io.StringIO(stream)
    return stream


def parse_jsonl(stream: str | IO[str] | Iterable[str], strict: bool = False) -> ParseResult:
    """Parse JSONL publication records.

    Each non-blank line must be a JSON object with keys ``id`` (string),
    ``year`` (integer) and ``authors`` (array of strings). A string holding
    a lone surrogate (an unpaired ``\\ud800`` escape) makes the line
    malformed. Author lists are deduplicated preserving first occurrence.
    Malformed lines raise :class:`InputError` in strict mode and are skipped
    (and counted) otherwise.
    """
    result = ParseResult()
    for lineno, line in enumerate(_lines(stream), start=1):
        if not line.strip():
            continue
        pub = None
        try:
            obj = json.loads(line)
            if (
                isinstance(obj, dict)
                and is_utf8_str(obj.get("id"))
                and isinstance(obj.get("authors"), list)
                and all(is_utf8_str(a) for a in obj["authors"])
            ):
                pub = _make_publication(obj["id"], obj.get("year"), obj["authors"])
        except json.JSONDecodeError:
            pub = None
        if pub is None:
            if strict:
                raise InputError(f"malformed JSONL record at line {lineno}")
            result.skipped += 1
        else:
            result.publications.append(pub)
    return result


def parse_csv(stream: str | IO[str] | Iterable[str], strict: bool = False) -> ParseResult:
    """Parse CSV publication records.

    Expects the exact header ``id,year,authors``; the authors cell is a
    ``;``-separated list. Rows with a missing column or a non-integer year
    are treated like malformed JSONL lines.
    """
    reader = csv.reader(_lines(stream))
    result = ParseResult()
    header = next(reader, None)
    if header is None:
        return result
    if [h.strip() for h in header] != ["id", "year", "authors"]:
        raise InputError(f"expected CSV header 'id,year,authors', got {','.join(header)!r}")
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        pub = None
        if len(row) == 3:
            pub_id, year_cell, authors_cell = row
            try:
                year: object = int(year_cell.strip())
            except ValueError:
                year = None
            pub = _make_publication(pub_id, year, authors_cell.split(";"))
        if pub is None:
            if strict:
                raise InputError(f"malformed CSV record at line {reader.line_num}")
            result.skipped += 1
        else:
            result.publications.append(pub)
    return result


# Entity references other than the XML built-ins (common in DBLP dumps for
# accented characters) are kept verbatim in the text rather than resolved,
# so author identity stays deterministic without an entity table.
_FOREIGN_ENTITY = re.compile(r"&(?!(?:amp|lt|gt|apos|quot|#[0-9]+|#x[0-9a-fA-F]+);)([A-Za-z][A-Za-z0-9.-]*);")


def parse_dblp_xml(stream: str | IO[str], strict: bool = False) -> ParseResult:
    """Parse a DBLP-style XML document.

    One publication per record element (see :data:`DBLP_RECORD_TAGS`) that has
    a ``key`` attribute, at least one ``author`` child and a parseable
    ``year`` child. Records lacking authors or a year are skipped and
    counted; XML that is not well-formed aborts with the parser position.
    """
    text = stream if isinstance(stream, str) else stream.read()
    text = _FOREIGN_ENTITY.sub(r"&amp;\1;", text)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise InputError(f"XML not well-formed: {exc}") from exc

    result = ParseResult()
    for elem in root.iter():
        if elem.tag not in DBLP_RECORD_TAGS or elem is root:
            continue
        authors = [a.text or "" for a in elem.findall("author")]
        year_text = elem.findtext("year", default="").strip()
        try:
            year: object = int(year_text)
        except ValueError:
            year = None
        pub = _make_publication(elem.get("key", ""), year, authors)
        if pub is None:
            result.skipped += 1
        else:
            result.publications.append(pub)
    return result


def write_jsonl(pubs: Iterable[Publication]) -> str:
    """Serialize publications to normalized JSONL (the parse fixed point)."""
    lines = []
    for p in pubs:
        lines.append(
            json.dumps(
                {"id": p.id, "year": p.year, "authors": list(p.authors)},
                ensure_ascii=False,
                separators=(",", ":"),
            )
        )
    return "".join(line + "\n" for line in lines)


def bucket_by_year(
    pubs: Iterable[Publication],
    year_range: tuple[int, int] | None = None,
    prior_skipped: int = 0,
) -> YearBuckets:
    """Group publications by their own year.

    Publications outside ``year_range`` (inclusive, when given) are counted
    as skipped rather than bucketed. ``prior_skipped`` seeds the skip counter
    so parse-stage skips can be carried through to the bucket totals.
    """
    if year_range is not None and year_range[0] > year_range[1]:
        raise ConfigError(f"invalid year range {year_range[0]}:{year_range[1]} (min > max)")
    yb = YearBuckets(skipped_count=prior_skipped)
    for pub in pubs:
        if year_range is not None and not (year_range[0] <= pub.year <= year_range[1]):
            yb.skipped_count += 1
            continue
        yb.buckets.setdefault(pub.year, []).append(pub)
        yb.total_count += 1
    return yb
