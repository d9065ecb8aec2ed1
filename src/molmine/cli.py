"""Command-line interface.

Eight subcommands mirror the pipeline stages so each can run standalone on
the previous stage's files: ingest, mine, decompose, cluster, timeline,
export-dot, pipeline, gen-corpus.

Exit codes: 0 success, 1 input error, 2 configuration error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Hashable, Iterable

from ._util import derive_seed, is_utf8_str
from ._version import __version__
from .cluster import LINKAGES, check_cut, cut, hcluster
from .corpus import CorpusProfile, generate_corpus
from .decompose import (
    Community,
    attributes_csv,
    attributes_from_csv,
    communities,
    communities_json,
)
from .dot import to_dot
from .errors import ConfigError, InputError
from .graph import AssocGraph, GraphError, build_graph, parse_edge_list
from .ingest import bucket_by_year, write_jsonl
from .pipeline import FORMATS, PipelineConfig, read_inputs, run_pipeline
from .rules import Thresholds, mine_rules, rules_from_csv, rules_to_csv, sample_transactions
from .temporal import (
    DEFAULT_JACCARD,
    IDENTITY_MODES,
    match_across_years,
    noise_fraction,
    noise_series_csv,
    timelines_to_json_dict,
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_years(value) -> tuple[int, int]:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        lo, hi = value
        if _is_int(lo) and _is_int(hi):
            return (lo, hi)
        raise ConfigError(f"years must hold two integers, got {value!r}")
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) == 2:
            try:
                return (int(parts[0]), int(parts[1]))
            except ValueError:
                pass
        raise ConfigError(f"years must look like <min>:<max>, got {value!r}")
    raise ConfigError(f"cannot interpret years {value!r}")


# ---------------------------------------------------------------- subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    parsed, _ = read_inputs(args.input, args.format, args.strict)
    year_range = _parse_years(args.years) if args.years else None
    buckets = bucket_by_year(parsed.publications, year_range, prior_skipped=parsed.skipped)
    ordered = [p for year in buckets.years() for p in buckets.buckets[year]]
    _write_output(write_jsonl(ordered), args.out)
    print(
        f"{buckets.total_count} publications in {len(buckets.buckets)} year buckets "
        f"({buckets.skipped_count} skipped)",
        file=sys.stderr,
    )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    parsed, _ = read_inputs(args.input, args.format, args.strict)
    pubs = parsed.publications
    if args.year is not None:
        pubs = [p for p in pubs if p.year == args.year]
    transactions = [p.author_set for p in pubs]
    if args.sample is not None:
        seed = args.seed if args.year is None else derive_seed(args.seed, "sample", args.year)
        transactions = sample_transactions(transactions, args.sample, seed)
    thresholds = Thresholds(args.min_support, args.min_confidence, args.min_lift)
    rules = mine_rules(transactions, thresholds)
    _write_output(rules_to_csv(rules), args.out)
    print(f"{len(rules)} rules from {len(transactions)} transactions", file=sys.stderr)
    return 0


def _load_graph(args: argparse.Namespace, year: int):
    if (args.rules is None) == (args.edges is None):
        raise ConfigError("exactly one of --rules or --edges is required")
    try:
        if args.rules is not None:
            return build_graph(rules_from_csv(_read_text(args.rules)), year=year)
        return parse_edge_list(_read_text(args.edges), year=year)
    except GraphError as exc:
        raise InputError(str(exc)) from exc


def _cmd_decompose(args: argparse.Namespace) -> int:
    year = args.year if args.year is not None else 0
    g = _load_graph(args, year)
    comms = communities(g)
    _write_output(attributes_csv(comms), args.out_attributes)
    if args.out_communities is not None:
        _write_output(communities_json(comms, year), args.out_communities)
    print(f"{len(comms)} communities over {len(g.nodes)} nuclei", file=sys.stderr)
    return 0


def _leaf_key(leaf) -> str:
    if isinstance(leaf, tuple):
        return "/".join(str(p) for p in leaf)
    return str(leaf)


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.k is not None and args.cut_height is not None:
        raise ConfigError("--k and --cut-height are mutually exclusive")
    check_cut(args.k, args.cut_height)
    rows = []
    for path in args.attributes:
        rows.extend(attributes_from_csv(_read_text(path)))
    if not rows:
        raise InputError("no attribute rows to cluster")
    check_cut(args.k, None, n_leaves=len(rows))
    ids = [(r["year"], r["community_id"]) for r in rows]
    seen: set[tuple[int, int]] = set()
    for leaf in ids:
        if leaf in seen:
            raise InputError(f"duplicate attribute row for community {_leaf_key(leaf)}")
        seen.add(leaf)
    vectors = [(r["SB"], r["BR"], r["DI"], r["NU"], r["RE"], r["TR"]) for r in rows]
    dend = hcluster(vectors, ids=ids, linkage=args.linkage, normalize=args.normalize)
    payload = dend.to_json_dict()
    if args.k is not None or args.cut_height is not None:
        assignment = cut(dend, k=args.k, height=args.cut_height)
        payload["cut"] = {
            "k": args.k,
            "height": args.cut_height,
            "assignments": {
                _leaf_key(leaf): _leaf_key(label)
                for leaf, label in sorted(assignment.items())
            },
        }
    _write_output(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", args.out)
    print(f"clustered {len(ids)} communities ({args.linkage} linkage)", file=sys.stderr)
    return 0


def _first_repeat(items: Iterable[Hashable]) -> Hashable | None:
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def _communities_from_json(text: str, path: str):
    def bad(reason: str) -> InputError:
        return InputError(f"malformed communities JSON in {path}: {reason}")

    try:
        data = json.loads(text)
    except ValueError as exc:
        raise bad(str(exc)) from exc
    if not isinstance(data, dict) or "year" not in data or "communities" not in data:
        raise bad("expected an object with 'year' and 'communities'")
    year = data["year"]
    if not _is_int(year):
        raise bad(f"year must be an integer, got {year!r}")
    if not isinstance(data["communities"], list):
        raise bad("'communities' must be a list")
    comms = []
    for entry in data["communities"]:
        if not isinstance(entry, dict) or not {"id", "members", "edges"} <= entry.keys():
            raise bad("each community needs 'id', 'members' and 'edges'")
        cid, members, edges = entry["id"], entry["members"], entry["edges"]
        if not _is_int(cid):
            raise bad(f"community id must be an integer, got {cid!r}")
        if not isinstance(members, list) or not all(is_utf8_str(m) for m in members):
            raise bad(f"community {cid}: members must be a list of valid Unicode strings")
        if not isinstance(edges, list):
            raise bad(f"community {cid}: edges must be a list")
        for e in edges:
            if not (
                isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
            ):
                raise bad(f"community {cid}: edge {e!r} is not a pair of strings")
            if e[0] == e[1]:
                raise bad(f"community {cid}: self-loop on {e[0]!r}")
        member_set = frozenset(members)
        edge_set = frozenset(map(tuple, edges))
        if len(member_set) != len(members):
            raise bad(f"community {cid}: member {_first_repeat(members)!r} is listed twice")
        if len(edge_set) != len(edges):
            raise bad(f"community {cid}: edge {_first_repeat(map(tuple, edges))!r} is listed twice")
        comms.append(Community(cid, member_set, edge_set, year))
    # The file must list exactly the communities its edges decompose into;
    # each of those holds an edge of the file, so none can be missing from
    # a list that matches them in order.
    expected = communities(AssocGraph.from_edges((e for c in comms for e in c.edges), year))
    for i, c in enumerate(comms):
        if expected[i : i + 1] != [c]:
            raise bad(f"community {c.id} differs from the decomposition of the file's edges")
    return year, comms


def _cmd_timeline(args: argparse.Namespace) -> int:
    snapshots = {}
    for path in args.communities:
        year, comms = _communities_from_json(_read_text(path), path)
        if year in snapshots:
            raise InputError(f"duplicate snapshot for year {year} ({path})")
        snapshots[year] = comms
    year_range = _parse_years(args.years) if args.years else None
    timelines = match_across_years(
        snapshots, mode=args.identity, jaccard_tau=args.jaccard, year_range=year_range
    )
    payload = timelines_to_json_dict(timelines, args.identity, args.jaccard)
    _write_output(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", args.out)
    if args.out_noise is not None:
        y0, y1 = year_range if year_range else (min(snapshots), max(snapshots))
        series = [
            (y, noise_fraction(snapshots.get(y, [])), len(snapshots.get(y, [])))
            for y in range(y0, y1 + 1)
        ]
        _write_output(noise_series_csv(series), args.out_noise)
    print(f"{len(timelines)} timelines ({args.identity} identity)", file=sys.stderr)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = _load_graph(args, year=0)
    _write_output(to_dot(g, name=args.name), args.out)
    return 0


_NUMBER = (int, float)

# Every config file key with the JSON types it accepts and their description;
# "years" is checked by _parse_years, which also takes "MIN:MAX" strings.
_CONFIG_TYPES = {
    "input": (list, "a list of paths"),
    "format": (str, "a string"),
    "years": (object, "a year range"),
    "min_support": (_NUMBER, "a number"),
    "min_confidence": (_NUMBER, "a number"),
    "min_lift": (_NUMBER, "a number"),
    "sample": (_NUMBER, "a number"),
    "seed": (int, "an integer"),
    "linkage": (str, "a string"),
    "normalize": (bool, "true or false"),
    "identity": (str, "a string"),
    "jaccard": (_NUMBER, "a number"),
    "strict": (bool, "true or false"),
    "out_dir": (str, "a string"),
}


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_TYPES.keys())
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    for key, value in data.items():
        types, expected = _CONFIG_TYPES[key]
        # JSON true/false load as bool, a subclass of int: only bool keys take them
        ok = isinstance(value, types) and isinstance(value, bool) == (types is bool)
        if ok and key == "input":
            ok = all(isinstance(p, str) for p in value)
        if not ok:
            raise ConfigError(f"config {path}: {key!r} must be {expected}, got {value!r}")
        texts = value if key == "input" else [value]
        if not all(is_utf8_str(t) for t in texts if isinstance(t, str)):
            raise ConfigError(f"config {path}: {key!r} holds a lone surrogate: {value!r}")
    return data


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return config.get(key, default)

    inputs = pick(args.input or None, "input", None)
    if not inputs:
        raise ConfigError("pipeline needs --input paths (or 'input' in the config file)")
    years = pick(args.years, "years", None)
    cfg = PipelineConfig(
        inputs=tuple(inputs),
        fmt=pick(args.format, "format", "jsonl"),
        year_range=_parse_years(years) if years is not None else None,
        thresholds=Thresholds(
            min_support=pick(args.min_support, "min_support", Thresholds().min_support),
            min_confidence=pick(args.min_confidence, "min_confidence", Thresholds().min_confidence),
            min_lift=pick(args.min_lift, "min_lift", Thresholds().min_lift),
        ),
        sample=pick(args.sample, "sample", None),
        seed=pick(args.seed, "seed", 0),
        linkage=pick(args.linkage, "linkage", "average"),
        normalize=pick(True if args.normalize else None, "normalize", False),
        identity=pick(args.identity, "identity", "structural"),
        jaccard=pick(args.jaccard, "jaccard", DEFAULT_JACCARD),
        out_dir=pick(args.out_dir, "out_dir", "out"),
        strict=pick(True if args.strict else None, "strict", False),
    )
    manifest = run_pipeline(cfg)
    totals = manifest.totals
    print(
        f"pipeline done: {totals['publications']} publications, {totals['rules']} rules, "
        f"{totals['communities']} communities, {totals['timelines']} timelines -> {cfg.out_dir}",
        file=sys.stderr,
    )
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    profile = CorpusProfile(
        stars=args.stars,
        star_size=args.star_size,
        star_direction=args.star_direction,
        cliques=args.cliques,
        clique_size=args.clique_size,
        noise_pairs=args.noise_pairs,
    )
    text = generate_corpus(
        n_authors=args.authors,
        n_pubs=args.pubs,
        years=_parse_years(args.years),
        seed=args.seed,
        profile=profile,
    )
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------- parser


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", nargs="+", required=True, metavar="PATH", help="input file(s)")
    p.add_argument("--format", choices=FORMATS, default="jsonl", help="input format")
    p.add_argument("--strict", action="store_true", help="abort on malformed records")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molmine",
        description="Mine directed co-authorship rules and decompose the "
        "resulting association graphs into molecular communities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse records into normalized year-bucketed JSONL")
    _add_input_flags(p)
    p.add_argument("--years", metavar="MIN:MAX", help="keep only this inclusive year range")
    p.add_argument("--out", metavar="PATH", help="output JSONL (default stdout)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("mine", help="mine association rules from one year bucket")
    _add_input_flags(p)
    p.add_argument("--year", type=int, help="restrict to publications from this year")
    p.add_argument("--min-support", type=float, default=Thresholds().min_support)
    p.add_argument("--min-confidence", type=float, default=Thresholds().min_confidence)
    p.add_argument("--min-lift", type=float, default=Thresholds().min_lift)
    p.add_argument("--sample", type=float, help="Bernoulli transaction sampling fraction")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed; with --year Y the sample is seeded from "
                   "(seed, Y) as in 'pipeline', without --year from the seed alone")
    p.add_argument("--out", metavar="PATH", help="output rules CSV (default stdout)")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("decompose", help="split a graph into communities with attributes")
    p.add_argument("--rules", metavar="PATH", help="rules CSV from the mine stage")
    p.add_argument("--edges", metavar="PATH", help="edge-list text file ('from -> to' lines)")
    p.add_argument("--year", type=int, help="year tag for the output rows")
    p.add_argument("--out-attributes", metavar="PATH", help="attributes CSV (default stdout)")
    p.add_argument("--out-communities", metavar="PATH", help="communities JSON")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("cluster", help="hierarchically cluster attribute vectors")
    p.add_argument("--attributes", nargs="+", required=True, metavar="PATH",
                   help="attributes CSV file(s)")
    p.add_argument("--linkage", choices=LINKAGES, default="average")
    p.add_argument("--normalize", action="store_true", help="min-max scale each dimension")
    p.add_argument("--k", type=int, help="also cut the dendrogram into k clusters")
    p.add_argument("--cut-height", type=float, help="also cut at this height")
    p.add_argument("--out", metavar="PATH", help="dendrogram JSON (default stdout)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("timeline", help="classify pattern lifecycles across yearly snapshots")
    p.add_argument("--communities", nargs="+", required=True, metavar="PATH",
                   help="communities JSON file(s), one per year")
    p.add_argument("--identity", choices=IDENTITY_MODES, default="structural")
    p.add_argument("--jaccard", type=float, default=DEFAULT_JACCARD,
                   help="membership-mode Jaccard threshold")
    p.add_argument("--years", metavar="MIN:MAX", help="analysis range (default: snapshot span)")
    p.add_argument("--out", metavar="PATH", help="timelines JSON (default stdout)")
    p.add_argument("--out-noise", metavar="PATH", help="noise series CSV")
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("export-dot", help="render a graph as Graphviz DOT")
    p.add_argument("--rules", metavar="PATH", help="rules CSV from the mine stage")
    p.add_argument("--edges", metavar="PATH", help="edge-list text file")
    p.add_argument("--name", default="G", help="DOT graph name")
    p.add_argument("--out", metavar="PATH", help="output DOT (default stdout)")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("pipeline", help="run every stage and write all artifacts")
    p.add_argument("--config", metavar="PATH", help="JSON config file (flags override it)")
    p.add_argument("--input", nargs="+", metavar="PATH", help="input file(s)")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--years", metavar="MIN:MAX")
    p.add_argument("--min-support", type=float)
    p.add_argument("--min-confidence", type=float)
    p.add_argument("--min-lift", type=float)
    p.add_argument("--sample", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--linkage", choices=LINKAGES)
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--identity", choices=IDENTITY_MODES)
    p.add_argument("--jaccard", type=float)
    p.add_argument("--strict", action="store_true", default=None)
    p.add_argument("--out-dir", metavar="DIR", help="artifact directory (default ./out)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus with planted structures")
    p.add_argument("--authors", type=int, required=True, help="author pool size")
    p.add_argument("--pubs", type=int, required=True, help="total publications across all years")
    p.add_argument("--years", metavar="MIN:MAX", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stars", type=int, default=1)
    p.add_argument("--star-size", type=int, default=8)
    p.add_argument("--star-direction", choices=("in", "out"), default="in")
    p.add_argument("--cliques", type=int, default=1)
    p.add_argument("--clique-size", type=int, default=3)
    p.add_argument("--noise-pairs", type=int, default=5)
    p.add_argument("--out", metavar="PATH", help="output JSONL (default stdout)")
    p.set_defaults(func=_cmd_gen_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 -- map invariant violations to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
