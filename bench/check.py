"""Output checker that recomputes every artifact apart from molmine.

It works from the generator's own publication tuples and shares no code
with the program: it recounts each year's pairs and applies the thresholds
in exact integer arithmetic, finds communities with its own union-find,
classifies motifs from their definitions, recomputes every dendrogram
height as an average-linkage distance, and regroups timelines with an
author -> community index and exact Jaccard. ``check_round`` returns the
problems it found and the counts the benchmark reports per layer.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from workloads import Corpus

JACCARD = Fraction(0.5)
_NEWICK_LEAF = re.compile(r"[(,]([^(),:;]+):")


class Problems(list):
    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def _g12(x: float) -> str:
    return f"{x:.12g}"


# ------------------------------------------------------------------ mining


def mine(transactions: list[tuple[str, ...]], s: Fraction, c: Fraction, lift: Fraction):
    """Rules of one year as {(ante, cons): (p, n_ante, n_cons)} plus the
    number of distinct co-occurring unordered pairs."""
    n = len(transactions)
    singles: Counter = Counter()
    pairs: Counter = Counter()
    for t in transactions:
        names = sorted(t)
        singles.update(names)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                pairs[(a, b)] += 1
    rules = {}
    for (a, b), p in pairs.items():
        if p * s.denominator < s.numerator * n:
            continue
        for x, y in ((a, b), (b, a)):
            nx, ny = singles[x], singles[y]
            if p * c.denominator < c.numerator * nx:
                continue
            if p * n * lift.denominator <= lift.numerator * nx * ny:
                continue
            rules[(x, y)] = (p, nx, ny)
    return rules, len(pairs), n


def rules_text(rules: dict, n: int) -> str:
    lines = ["antecedent,consequent,support,confidence,lift"]
    for (a, b), (p, na, nb) in sorted(rules.items()):
        lines.append(f"{a},{b},{_g12(p / n)},{_g12(p / na)},{_g12((p * n) / (na * nb))}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ communities


def components(edges) -> list[list[str]]:
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[str, list[str]] = defaultdict(list)
    for x in parent:
        groups[find(x)].append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def describe(members: list[str], edges: list[tuple[str, str]]) -> dict:
    """Sextuple, motif, arity and roles of one community from first principles."""
    edge_set = set(edges)
    doubles = {(a, b) for a, b in edge_set if a < b and (b, a) in edge_set}
    singles = {tuple(sorted(e)) for e in edge_set if (e[1], e[0]) not in edge_set}
    bridge_nb: dict[str, set[str]] = defaultdict(set)
    for a, b in doubles:
        bridge_nb[a].add(b)
        bridge_nb[b].add(a)
    diamonds = 0
    for u in sorted(bridge_nb):
        higher = sorted(v for v in bridge_nb[u] if v > u)
        diamonds += sum(1 for v, w in combinations(higher, 2) if w in bridge_nb[v])
    heads = {b for _, b in edge_set}
    tails = {a for a, _ in edge_set}
    bond_nb: dict[str, set[str]] = defaultdict(set)
    for a, b in doubles | singles:
        bond_nb[a].add(b)
        bond_nb[b].add(a)
    n = len(members)

    motif = "complex"
    if n == 2:
        motif = "pair" if singles else "bridge-pair"
    elif n == 3 and len(doubles) == 3:
        motif = "diamond"
    elif n == 3 and len(singles) == 3 and not doubles and heads == tails == set(members):
        motif = "triangle"
    elif n == 3 and len(singles) == 2 and not doubles and heads & tails:
        motif = "arrow"
    if motif == "complex" and n > 2 and not doubles and len(singles) == n - 1:
        centers = [m for m in members if len(bond_nb[m]) == n - 1]
        if centers:
            center = centers[0]
            if heads == {center}:
                motif = "star-in"
            elif tails == {center}:
                motif = "star-out"
            else:
                motif = "star-mixed"
    triangle = any(bond_nb[a] & bond_nb[b] for a in bond_nb for b in bond_nb[a])
    roles = {
        m: "both" if m in heads and m in tails else "trigger-only" if m in tails else "reactor-only"
        for m in members
    }
    return {
        "vector": (len(singles), len(doubles), diamonds, n, len(heads), len(tails)),
        "motif": motif,
        "arity": "n-ary" if triangle else "2-ary",
        "roles": roles,
    }


FIELDS = ("SB", "BR", "DI", "NU", "RE", "TR")


def check_communities(problems: Problems, year: int, rules: dict, data, group_of) -> list[dict]:
    """Compare one year's communities JSON with the independent decomposition;
    returns this checker's own community summaries."""
    comps = components(rules)
    ours = []
    by_member = {m: i for i, comp in enumerate(comps) for m in comp}
    comp_edges: list[list[tuple[str, str]]] = [[] for _ in comps]
    for a, b in sorted(rules):
        comp_edges[by_member[a]].append((a, b))
    for cid, members in enumerate(comps):
        d = describe(members, comp_edges[cid])
        d.update(id=cid, members=members, edges=comp_edges[cid])
        ours.append(d)
        problems.expect(
            len({group_of[m] for m in members}) == 1,
            f"{year} community {cid} spans more than one generated group",
        )
    if not problems.expect(data.get("year") == year, f"communities_{year}.json: year field"):
        return ours
    got = data.get("communities", [])
    if not problems.expect(
        len(got) == len(ours), f"communities_{year}.json: {len(got)} communities, expected {len(ours)}"
    ):
        return ours
    for g, o in zip(got, ours):
        where = f"communities_{year}.json community {o['id']}"
        vec = tuple(g["vector"][f] for f in FIELDS)
        sb, br, _, nu, re_, tr = vec
        problems.expect(g["id"] == o["id"], f"{where}: id {g['id']}")
        problems.expect(g["members"] == o["members"], f"{where}: members differ")
        problems.expect([tuple(e) for e in g["edges"]] == o["edges"], f"{where}: edges differ")
        problems.expect(sb + 2 * br == len(g["edges"]), f"{where}: SB + 2*BR != edges")
        problems.expect(nu == len(g["members"]), f"{where}: NU != members")
        problems.expect(re_ == len({e[1] for e in g["edges"]}), f"{where}: RE != distinct heads")
        problems.expect(tr == len({e[0] for e in g["edges"]}), f"{where}: TR != distinct tails")
        problems.expect(vec == o["vector"], f"{where}: vector {vec}, expected {o['vector']}")
        problems.expect(g["motif"] == o["motif"], f"{where}: motif {g['motif']}, expected {o['motif']}")
        problems.expect(g["arity"] == o["arity"], f"{where}: arity {g['arity']}")
        problems.expect(g["roles"] == o["roles"], f"{where}: roles differ")
    return ours


def attributes_text(year: int, ours: list[dict]) -> str:
    lines = ["year,community_id,motif,arity,SB,BR,DI,NU,RE,TR"]
    for o in ours:
        lines.append(",".join(map(str, (year, o["id"], o["motif"], o["arity"], *o["vector"]))))
    return "\n".join(lines) + "\n"


def dot_text(name: str, rules: dict) -> str:
    nodes = sorted({a for a, _ in rules} | {b for _, b in rules})
    lines = [f"digraph {name} {{"] + [f'  "{m}";' for m in nodes]
    bonds = []
    for a, b in rules:
        if (b, a) not in rules:
            bonds.append((a, b, ""))
        elif a < b:
            bonds.append((a, b, " [dir=both]"))
    lines += [f'  "{a}" -> "{b}"{s};' for a, b, s in sorted(bonds)]
    return "\n".join(lines + ["}"]) + "\n"


def noise_text(series: list[tuple[int, list[dict]]]) -> str:
    lines = ["year,noise_fraction,n_communities"]
    for year, ours in series:
        noisy = sum(1 for o in ours if o["motif"] in ("pair", "bridge-pair"))
        lines.append(f"{year},{_g12(noisy / len(ours) if ours else 0.0)},{len(ours)}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- clustering


def check_dendrogram(problems: Problems, data: dict, leaves: list, vectors: list) -> None:
    """Every leaf once, n-1 merges, each height the average-linkage distance."""
    order = sorted(range(len(leaves)), key=lambda i: leaves[i])
    leaves = [leaves[i] for i in order]
    vectors = [vectors[i] for i in order]
    n = len(leaves)
    problems.expect(data.get("linkage") == "average", "dendrogram: linkage")
    if not problems.expect(
        [tuple(x) for x in data.get("leaves", [])] == leaves, "dendrogram: leaves differ"
    ):
        return
    merges = data.get("merges", [])
    if not problems.expect(len(merges) == n - 1, f"dendrogram: {len(merges)} merges for {n} leaves"):
        return
    distinct = sorted(set(vectors))
    index = {v: i for i, v in enumerate(distinct)}
    X = np.asarray(distinct, dtype=float)
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    clusters: dict[int, tuple[Counter, int]] = {
        i: (Counter({index[v]: 1}), i) for i, v in enumerate(vectors)
    }
    previous = 0.0
    for t, (a, b, h) in enumerate(merges):
        if not problems.expect(
            a in clusters and b in clusters and a != b, f"dendrogram merge {t}: bad clusters {a}, {b}"
        ):
            return
        (ca, la), (cb, lb) = clusters.pop(a), clusters.pop(b)
        problems.expect(la < lb, f"dendrogram merge {t}: smaller leaf not first")
        ia, ib = list(ca), list(cb)
        wa = np.array([ca[i] for i in ia], dtype=float)
        wb = np.array([cb[i] for i in ib], dtype=float)
        expected = float(wa @ D[np.ix_(ia, ib)] @ wb) / (wa.sum() * wb.sum())
        problems.expect(
            abs(h - expected) <= 1e-9 * max(1.0, expected),
            f"dendrogram merge {t}: height {h}, expected {expected}",
        )
        problems.expect(h >= previous - 1e-9 * max(1.0, previous), f"dendrogram merge {t}: inversion")
        previous = max(previous, h)
        if len(ca) < len(cb):
            ca, cb = cb, ca
        ca.update(cb)
        clusters[n + t] = (ca, min(la, lb))
    newick = data.get("newick", "")
    labels = _NEWICK_LEAF.findall(newick) if n > 1 else newick[:-1].split(":")[:1]
    problems.expect(newick.endswith(";") and len(labels) == n, "dendrogram: newick leaf count")


# ---------------------------------------------------------------- timelines


def lifecycle(years: list[int], y0: int, y1: int) -> str:
    if len(years) == y1 - y0 + 1:
        return "constant"
    gaps = sum(1 for a, b in zip(years, years[1:]) if b > a + 1)
    return "visiting" if gaps else "transient"


def structural_timelines(snapshots: dict[int, list[dict]], y0: int, y1: int) -> list[dict]:
    presence: dict[tuple, set[int]] = defaultdict(set)
    for year, ours in snapshots.items():
        for o in ours:
            presence[(o["motif"], o["vector"])].add(year)
    return [
        {
            "signature": {"mode": "structural", "motif": motif, "vector": dict(zip(FIELDS, vec))},
            "years_present": sorted(years),
            "lifecycle": lifecycle(sorted(years), y0, y1),
        }
        for (motif, vec), years in sorted(presence.items())
    ]


def membership_timelines(snapshots: dict[int, list[dict]], y0: int, y1: int) -> list[dict]:
    """Chain member sets across adjacent years when Jaccard >= 0.5, using an
    author -> community index (communities within a year are disjoint)."""
    per_year = {y: sorted({tuple(o["members"]) for o in snapshots.get(y, [])}) for y in range(y0, y1 + 1)}
    nodes = sorted({s for sigs in per_year.values() for s in sigs})
    parent = {s: s for s in nodes}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for y in range(y0, y1):
        owner = {a: s for s in per_year[y + 1] for a in s}
        for s1 in per_year[y]:
            for s2 in {owner[a] for a in s1 if a in owner}:
                inter = len(set(s1) & set(s2))
                union = len(s1) + len(s2) - inter
                if inter * JACCARD.denominator >= JACCARD.numerator * union:
                    r1, r2 = find(s1), find(s2)
                    if r1 != r2:
                        parent[max(r1, r2)] = min(r1, r2)
    groups: dict[tuple, set[int]] = defaultdict(set)
    for y, sigs in per_year.items():
        for s in sigs:
            groups[find(s)].add(y)
    return [
        {
            "signature": {"mode": "membership", "members": list(root)},
            "years_present": sorted(years),
            "lifecycle": lifecycle(sorted(years), y0, y1),
        }
        for root, years in sorted(groups.items())
    ]


# -------------------------------------------------------------------- round


def normalized_text(corpus: Corpus) -> str:
    ordered = sorted(corpus.pubs, key=lambda p: p[1])  # stable: input order within a year
    return "".join(
        json.dumps({"id": i, "year": y, "authors": list(a)}, ensure_ascii=False, separators=(",", ":"))
        + "\n"
        for i, y, a in ordered
    )


def _read(problems: Problems, path: Path) -> str | None:
    if problems.expect(path.is_file(), f"missing artifact {path.name}"):
        return path.read_text(encoding="utf-8")
    return None


def check_round(corpus: Corpus, input_name: str, out: Path, failed: set[str]) -> tuple[Problems, dict]:
    """Check one round's artifacts in ``out``; ``failed`` names the
    operations that exited non-zero, whose outputs are not checked."""
    problems = Problems()
    shape = corpus.shape
    staged = shape.staged
    if not staged and "pipeline" in failed:
        return problems, {}
    s, c, lift = Fraction(float(shape.min_support)), Fraction(float(shape.min_confidence)), Fraction(1)

    by_year: dict[int, list[tuple[str, ...]]] = defaultdict(list)
    for _, year, authors in corpus.pubs:
        by_year[year].append(authors)
    y0, y1 = shape.years
    years = range(y0, y1 + 1)

    if staged and "ingest" not in failed:
        problems.expect(
            _read(problems, out / "normalized.jsonl") == normalized_text(corpus),
            "normalized.jsonl differs from the generated records",
        )

    counts = Counter()
    snapshots: dict[int, list[dict]] = {}
    year_rows = []
    leaves, vectors = [], []
    for year in years:
        rules, n_pairs, n = mine(by_year[year], s, c, lift)
        counts["rules.candidate_pairs"] += n_pairs
        counts["rules.rules"] += len(rules)
        if f"mine {year}" not in failed:
            problems.expect(
                _read(problems, out / f"rules_{year}.csv") == rules_text(rules, n),
                f"rules_{year}.csv differs from the independent recount",
            )
        ours = []
        if f"decompose {year}" not in failed:
            text = _read(problems, out / f"communities_{year}.json")
            data = json.loads(text) if text is not None else {}
            ours = check_communities(problems, year, rules, data, corpus.group_of)
            problems.expect(
                _read(problems, out / f"attributes_{year}.csv") == attributes_text(year, ours),
                f"attributes_{year}.csv differs",
            )
        if f"export-dot {year}" not in failed:
            problems.expect(
                _read(problems, out / f"snapshot_{year}.dot") == dot_text(f"snapshot_{year}", rules),
                f"snapshot_{year}.dot differs",
            )
        snapshots[year] = ours
        counts["decompose.communities"] += len(ours)
        counts["decompose.largest_nuclei"] = max(
            counts["decompose.largest_nuclei"], max((len(o["members"]) for o in ours), default=0)
        )
        leaves += [(year, o["id"]) for o in ours]
        vectors += [o["vector"] for o in ours]
        noisy = sum(1 for o in ours if o["motif"] in ("pair", "bridge-pair"))
        year_rows.append(
            {
                "year": year,
                "transactions": n,
                "rules": len(rules),
                "communities": len(ours),
                "noise_fraction": float(_g12(noisy / len(ours) if ours else 0.0)),
            }
        )

    if "cluster" not in failed:
        text = _read(problems, out / "dendrogram.json")
        if text is not None:
            check_dendrogram(problems, json.loads(text), leaves, vectors)

    if "timeline" not in failed:
        if shape.identity == "membership":
            expected = {"identity": "membership", "jaccard": float(JACCARD),
                        "timelines": membership_timelines(snapshots, y0, y1)}
        else:
            expected = {"identity": "structural", "timelines": structural_timelines(snapshots, y0, y1)}
        text = _read(problems, out / "timelines.json")
        if text is not None:
            problems.expect(json.loads(text) == expected, "timelines.json differs from the regrouping")
        counts["temporal.timelines"] = len(expected["timelines"])
        problems.expect(
            _read(problems, out / "noise.csv") == noise_text(sorted(snapshots.items())),
            "noise.csv differs",
        )

    if not staged:
        text = _read(problems, out / "manifest.json")
        manifest = json.loads(text) if text is not None else {}
        digest = hashlib.sha256(corpus.text.encode("utf-8")).hexdigest()
        problems.expect(manifest.get("input_sha256") == digest, "manifest: input_sha256")
        config = manifest.get("config", {})
        problems.expect(
            config.get("inputs") == [input_name]
            and config.get("format") == shape.fmt
            and config.get("min_support") == float(shape.min_support)
            and config.get("min_confidence") == float(shape.min_confidence)
            and config.get("identity") == shape.identity,
            "manifest: config echo",
        )
        problems.expect(manifest.get("years") == year_rows, "manifest: per-year rows")
        totals = {
            "publications": len(corpus.pubs),
            "skipped": corpus.malformed,
            "rules": counts["rules.rules"],
            "communities": counts["decompose.communities"],
            "timelines": counts["temporal.timelines"],
        }
        problems.expect(manifest.get("totals") == totals, f"manifest: totals {manifest.get('totals')}")

    vector_counts = Counter(vectors)
    counts["ingest.records"] = len(corpus.pubs)
    counts["graph.edges"] = counts["rules.rules"]
    counts["cluster.leaves"] = len(leaves)
    counts["cluster.distinct_vectors"] = len(vector_counts)
    counts["cluster.largest_identical"] = max(vector_counts.values(), default=0)
    return problems, dict(counts)


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact; the manifest is hashed without its timestamp."""
    result = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timestamp", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        result[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return result
