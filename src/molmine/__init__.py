"""molmine: mine directed co-authorship rules and decompose the resulting
association graphs into molecular communities, cluster them, and track
pattern lifecycles across yearly snapshots."""

from ._version import __version__
from .cluster import Dendrogram, cut, hcluster, newick
from .corpus import CorpusProfile, generate_corpus
from .decompose import (
    Arity,
    AttributeVector,
    Community,
    MotifClass,
    Role,
    attributes_csv,
    attributes_from_csv,
    communities,
    communities_json,
    roles,
)
from .dot import to_dot
from .errors import ConfigError, InputError
from .graph import AssocGraph, GraphError, build_graph, parse_edge_list
from .ingest import (
    ParseResult,
    Publication,
    YearBuckets,
    bucket_by_year,
    parse_csv,
    parse_dblp_xml,
    parse_jsonl,
    write_jsonl,
)
from .pipeline import PipelineConfig, RunManifest, run_pipeline
from .rules import (
    Rule,
    RuleTable,
    Thresholds,
    mine_rules,
    rules_from_csv,
    rules_to_csv,
    sample_transactions,
)
from .temporal import (
    Lifecycle,
    PatternTimeline,
    Signature,
    classify_lifecycle,
    match_across_years,
    noise_fraction,
    noise_series_csv,
    signature,
    timelines_to_json_dict,
)

__all__ = [
    "__version__",
    "Arity",
    "AssocGraph",
    "AttributeVector",
    "Community",
    "ConfigError",
    "CorpusProfile",
    "Dendrogram",
    "GraphError",
    "InputError",
    "Lifecycle",
    "MotifClass",
    "ParseResult",
    "PatternTimeline",
    "PipelineConfig",
    "Publication",
    "Role",
    "Rule",
    "RuleTable",
    "RunManifest",
    "Signature",
    "Thresholds",
    "YearBuckets",
    "attributes_csv",
    "attributes_from_csv",
    "bucket_by_year",
    "build_graph",
    "classify_lifecycle",
    "communities",
    "communities_json",
    "cut",
    "generate_corpus",
    "hcluster",
    "match_across_years",
    "mine_rules",
    "newick",
    "noise_fraction",
    "noise_series_csv",
    "parse_csv",
    "parse_dblp_xml",
    "parse_edge_list",
    "parse_jsonl",
    "roles",
    "rules_from_csv",
    "rules_to_csv",
    "run_pipeline",
    "sample_transactions",
    "signature",
    "timelines_to_json_dict",
    "to_dot",
    "write_jsonl",
]
