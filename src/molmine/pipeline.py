"""End-to-end orchestration: ingest -> mine -> decompose -> cluster -> timelines.

For every year in the analysis range the pipeline emits ``rules_<year>.csv``,
``communities_<year>.json``, ``attributes_<year>.csv`` and
``snapshot_<year>.dot``; globally it emits ``dendrogram.json``,
``timelines.json``, ``noise.csv`` and ``manifest.json``.

Determinism contract: identical inputs and analysis config produce
byte-identical artifacts across runs. To keep that comparable in practice,
the manifest echoes only analysis parameters (not ``out_dir``), and its
timestamp is the single field allowed to vary between reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from ._util import derive_seed, round12
from ._version import __version__
from .cluster import LINKAGES, Dendrogram, hcluster
from .decompose import Community, attributes_csv, communities, communities_json
from .dot import to_dot
from .errors import ConfigError, InputError
from .graph import build_graph
from .ingest import (
    ParseResult,
    bucket_by_year,
    parse_csv,
    parse_dblp_xml,
    parse_jsonl,
)
from .rules import Thresholds, mine_rules, rules_to_csv, sample_transactions
from .temporal import (
    DEFAULT_JACCARD,
    IDENTITY_MODES,
    match_across_years,
    noise_fraction,
    noise_series_csv,
    timelines_to_json_dict,
)

FORMATS = ("jsonl", "csv", "dblp-xml")

_PARSERS = {"jsonl": parse_jsonl, "csv": parse_csv, "dblp-xml": parse_dblp_xml}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full run needs; validated before any file is touched."""

    inputs: tuple[str, ...]
    fmt: str = "jsonl"
    year_range: tuple[int, int] | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    sample: float | None = None
    seed: int = 0
    linkage: str = "average"
    normalize: bool = False
    identity: str = "structural"
    jaccard: float = DEFAULT_JACCARD
    out_dir: str = "out"
    strict: bool = False

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("at least one input path is required")
        resolved = [str(Path(p).resolve()) for p in self.inputs]
        if len(set(resolved)) != len(resolved):
            raise ConfigError("input paths must be distinct")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}, expected one of {FORMATS}")
        if self.year_range is not None and self.year_range[0] > self.year_range[1]:
            raise ConfigError(
                f"invalid year range {self.year_range[0]}:{self.year_range[1]} (min > max)"
            )
        self.thresholds.validate()
        if self.sample is not None and not 0.0 <= self.sample <= 1.0:
            raise ConfigError(f"sample fraction must be in [0,1], got {self.sample}")
        if self.linkage not in LINKAGES:
            raise ConfigError(f"unknown linkage {self.linkage!r}, expected one of {LINKAGES}")
        if self.identity not in IDENTITY_MODES:
            raise ConfigError(
                f"unknown identity mode {self.identity!r}, expected one of {IDENTITY_MODES}"
            )
        if not 0.0 <= self.jaccard <= 1.0:
            raise ConfigError(f"jaccard tau must be in [0, 1], got {self.jaccard}")

    def echo(self) -> dict:
        """Analysis parameters for the manifest (the output directory excluded)."""
        return {
            "inputs": list(self.inputs),
            "format": self.fmt,
            "year_range": list(self.year_range) if self.year_range else None,
            "min_support": self.thresholds.min_support,
            "min_confidence": self.thresholds.min_confidence,
            "min_lift": self.thresholds.min_lift,
            "sample": self.sample,
            "seed": self.seed,
            "linkage": self.linkage,
            "normalize": self.normalize,
            "identity": self.identity,
            "jaccard": self.jaccard,
            "strict": self.strict,
        }


@dataclass(frozen=True)
class RunManifest:
    config: dict
    tool_version: str
    input_sha256: str
    years: tuple[dict, ...]
    totals: dict
    timestamp: str

    def to_json_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            "input_sha256": self.input_sha256,
            "config": self.config,
            "years": list(self.years),
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False) + "\n"


@dataclass(frozen=True)
class _YearResult:
    year: int
    n_transactions: int
    n_rules: int
    comms: tuple[Community, ...]
    noise: float


def read_inputs(
    paths: Sequence[str], fmt: str, strict: bool = False
) -> tuple[ParseResult, str]:
    """Parse all inputs in order; returns the combined result and the SHA-256
    of their concatenated bytes."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    combined = ParseResult()
    hasher = hashlib.sha256()
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read input {path}: {exc}") from exc
        hasher.update(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"input {path} is not valid UTF-8: {exc}") from exc
        result = _PARSERS[fmt](text, strict=strict)
        combined.publications.extend(result.publications)
        combined.skipped += result.skipped
    return combined, hasher.hexdigest()


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write artifact {path}: {exc}") from exc


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Run every stage, write all artifacts, and return the manifest."""
    cfg.validate()
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc}") from exc

    parsed, input_hash = read_inputs(cfg.inputs, cfg.fmt, cfg.strict)
    buckets = bucket_by_year(parsed.publications, cfg.year_range, prior_skipped=parsed.skipped)
    if cfg.year_range is not None:
        y0, y1 = cfg.year_range
        years = list(range(y0, y1 + 1))
    elif buckets.buckets:
        y0, y1 = min(buckets.buckets), max(buckets.buckets)
        years = list(range(y0, y1 + 1))
    else:
        years = []

    def do_year(year: int) -> _YearResult:
        try:
            transactions: Sequence = [p.author_set for p in buckets.buckets.get(year, [])]
            if cfg.sample is not None:
                transactions = sample_transactions(
                    transactions, cfg.sample, derive_seed(cfg.seed, "sample", year)
                )
            rules = mine_rules(transactions, cfg.thresholds)
            g = build_graph(rules, year)
            comms = communities(g)
            _write(out / f"rules_{year}.csv", rules_to_csv(rules))
            _write(out / f"communities_{year}.json", communities_json(comms, year))
            _write(out / f"attributes_{year}.csv", attributes_csv(comms))
            _write(out / f"snapshot_{year}.dot", to_dot(g, name=f"snapshot_{year}"))
            return _YearResult(
                year, len(transactions), len(rules), tuple(comms), noise_fraction(comms)
            )
        except ValueError as exc:
            raise type(exc)(f"year {year}: {exc}") from exc

    year_results = [do_year(y) for y in years]

    ids = [(r.year, c.id) for r in year_results for c in r.comms]
    vectors = [c.vector for r in year_results for c in r.comms]
    if ids:
        dend = hcluster(vectors, ids=ids, linkage=cfg.linkage, normalize=cfg.normalize)
    else:
        dend = Dendrogram(leaves=(), merges=(), linkage=cfg.linkage, normalized=cfg.normalize)
    _write(out / "dendrogram.json", _json_text(dend.to_json_dict()))

    if years:
        snapshots = {r.year: list(r.comms) for r in year_results}
        timelines = match_across_years(
            snapshots, mode=cfg.identity, jaccard_tau=cfg.jaccard, year_range=(years[0], years[-1])
        )
    else:
        timelines = []
    _write(
        out / "timelines.json",
        _json_text(timelines_to_json_dict(timelines, cfg.identity, cfg.jaccard)),
    )
    _write(
        out / "noise.csv",
        noise_series_csv([(r.year, r.noise, len(r.comms)) for r in year_results]),
    )

    manifest = RunManifest(
        config=cfg.echo(),
        tool_version=__version__,
        input_sha256=input_hash,
        years=tuple(
            {
                "year": r.year,
                "transactions": r.n_transactions,
                "rules": r.n_rules,
                "communities": len(r.comms),
                "noise_fraction": round12(r.noise),
            }
            for r in year_results
        ),
        totals={
            "publications": buckets.total_count,
            "skipped": buckets.skipped_count,
            "rules": sum(r.n_rules for r in year_results),
            "communities": sum(len(r.comms) for r in year_results),
            "timelines": len(timelines),
        },
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    _write(out / "manifest.json", manifest.to_json())
    return manifest
