"""The three benchmark workloads: their seeded corpora and their operations.

``generate(workload, seed)`` returns a :class:`Corpus`: the publications as
plain tuples (which the checker recounts on its own), the generated group of
every author, the number of deliberately malformed records, and the file
text in the workload's input format. The same workload and seed always give
the same bytes. Only the written file is handed to molmine.

* ``giant``: DBLP XML, 3 years of 12,000 publications each. Authors come
  from one pool of 20,000 with Zipf-distributed productivity, papers have
  1-12 authors and the first one is among the 3,000 most productive, so
  each year's rule graph has one component of thousands of nuclei and only
  a handful of small ones. Twelve side teams (groups 1..12) publish only
  among themselves.
* ``archipelago``: JSONL, 8 years of 400 disjoint teams of 2-6 authors.
  Teams persist with membership churn (a member replaced, added or
  dropped), some dissolve and new ones form. Half of the new teams are
  pairs, so more than 1,000 identical bridge-pair communities reach
  clustering on every seed.
* ``spectrum``: CSV, 12 years of 110 fresh groups of 3-60 authors each,
  with varied paper counts and a lead author on a varied share of a group's
  papers, so the communities spread over about a thousand distinct
  sextuples.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from itertools import accumulate

Pub = tuple[str, int, tuple[str, ...]]


@dataclass(frozen=True)
class Shape:
    fmt: str
    suffix: str
    years: tuple[int, int]
    identity: str
    min_support: str
    min_confidence: str = "0.05"
    staged: bool = False


SHAPES = {
    "giant": Shape("dblp-xml", "xml", (2001, 2003), "structural", "1e-05"),
    "archipelago": Shape("jsonl", "jsonl", (2001, 2008), "membership", "1e-04", staged=True),
    # a confidence floor of 0.3 turns one-off co-authorships of busy members
    # into single bonds, which spreads the communities over many sextuples
    "spectrum": Shape("csv", "csv", (2001, 2012), "structural", "1e-04", "0.3"),
}


@dataclass
class Corpus:
    shape: Shape
    pubs: list[Pub]
    group_of: dict[str, int]
    malformed: int
    text: str


# ------------------------------------------------------------------ giant

GIANT_PUBS_PER_YEAR = 12000
GIANT_POOL = 20000
GIANT_SENIORS = 3000  # the first author of every paper is one of the most productive
GIANT_ZIPF = 1.05
# weights of 1..12 authors per paper
GIANT_SIZES = (8, 24, 26, 18, 10, 6, 3, 2, 1.2, 0.8, 0.6, 0.4)
GIANT_TEAMS = 12


def _giant(rng: random.Random, shape: Shape) -> tuple[list[Pub], dict[str, int], list]:
    names = [f"m{i:05d}" for i in range(GIANT_POOL)]
    rng.shuffle(names)  # productivity rank is not name order
    cum = list(accumulate(1.0 / (r + 1) ** GIANT_ZIPF for r in range(GIANT_POOL)))
    ranks = range(GIANT_POOL)
    seniors, senior_cum = ranks[:GIANT_SENIORS], cum[:GIANT_SENIORS]
    size_cum = list(accumulate(GIANT_SIZES))
    group_of = {n: 0 for n in names}
    teams = []
    for t in range(GIANT_TEAMS):
        team = [f"s{t:02d}x{j}" for j in range(rng.randint(2, 5))]
        teams.append(team)
        group_of.update((m, t + 1) for m in team)

    pubs: list[Pub] = []
    broken = []
    for year in range(shape.years[0], shape.years[1] + 1):
        for i in range(GIANT_PUBS_PER_YEAR):
            k = rng.choices(range(1, 13), cum_weights=size_cum)[0]
            first = rng.choices(seniors, cum_weights=senior_cum)[0]
            authors = {names[first]: None}
            while len(authors) < k:
                authors[names[rng.choices(ranks, cum_weights=cum)[0]]] = None
            pubs.append((f"journals/g/{year}-{i}", year, tuple(authors)))
        for t, team in enumerate(teams):
            for j in range(rng.randint(1, 2)):
                pubs.append((f"conf/t/{year}-{t}-{j}", year, tuple(team)))
        broken.append((f"journals/x/{year}-noyear", None, ("m00000",)))
        broken.append((f"journals/x/{year}-noauthor", year, ()))
    return pubs, group_of, broken


# ------------------------------------------------------------ archipelago

ARCHI_TEAMS = 400
ARCHI_PAIR_SHARE = 0.5
ARCHI_DISSOLVE = 0.12


def _archipelago(rng: random.Random, shape: Shape) -> tuple[list[Pub], dict[str, int], list]:
    group_of: dict[str, int] = {}
    counter = iter(range(10**9))

    def new_author(group: int) -> str:
        name = f"a{next(counter):06d}"
        group_of[name] = group
        return name

    def new_team(gid: int) -> list[str]:
        size = 2 if rng.random() < ARCHI_PAIR_SHARE else rng.randint(3, 6)
        return [new_author(gid) for _ in range(size)]

    gids = iter(range(10**9))
    teams: dict[int, list[str]] = {}
    pubs: list[Pub] = []
    for year in range(shape.years[0], shape.years[1] + 1):
        if year > shape.years[0]:
            for gid in list(teams):
                team = teams[gid]
                roll = rng.random()
                if roll < ARCHI_DISSOLVE:
                    del teams[gid]
                elif roll < 0.30:
                    team[rng.randrange(len(team))] = new_author(gid)
                elif roll < 0.38 and len(team) < 6:
                    team.append(new_author(gid))
                elif roll < 0.46 and len(team) > 3:
                    team.pop(rng.randrange(len(team)))
        while len(teams) < ARCHI_TEAMS:
            gid = next(gids)
            teams[gid] = new_team(gid)
        for gid, team in teams.items():
            # every member appears with every other at least once, so a
            # team is one community whose bonds are all bridges
            pubs.append((f"p{year}-{gid}-0", year, tuple(team)))
            for j in range(1, rng.randint(1, 3)):
                k = rng.randint(2, len(team))
                pubs.append((f"p{year}-{gid}-{j}", year, tuple(rng.sample(team, k))))
        for j in range(ARCHI_TEAMS // 10):
            gid = rng.choice(list(teams))
            pubs.append((f"p{year}-solo-{j}", year, (rng.choice(teams[gid]),)))
    broken = [("bad-json", 0, ())]
    return pubs, group_of, broken


# --------------------------------------------------------------- spectrum

SPECTRUM_GROUPS = 110


def _spectrum(rng: random.Random, shape: Shape) -> tuple[list[Pub], dict[str, int], list]:
    group_of: dict[str, int] = {}
    pubs: list[Pub] = []
    gid = 0
    # fixed schedules, shuffled per year, keep the amount of work steady
    # across seeds: sizes log-spaced over 3..60, papers per member 0.2..1.5,
    # share of papers with the lead author 0..1
    steps = [(g + 0.5) / SPECTRUM_GROUPS for g in range(SPECTRUM_GROUPS)]
    sizes = [round(3 * 20**x) for x in steps]
    for year in range(shape.years[0], shape.years[1] + 1):
        rates = [0.2 + 1.3 * x for x in steps]
        leads = list(steps)
        rng.shuffle(rates)
        rng.shuffle(leads)
        for g, (size, rate, lead_share) in enumerate(zip(sizes, rates, leads)):
            gid += 1
            members = [f"y{year}g{g:03d}m{j:02d}" for j in range(size)]
            group_of.update((m, gid) for m in members)
            lead = members[0]
            for j in range(max(1, round(rate * size))):
                authors = rng.sample(members, min(size, rng.randint(2, 4)))
                if rng.random() < lead_share and lead not in authors:
                    authors[0] = lead
                pubs.append((f"s{year}-{g}-{j}", year, tuple(authors)))
    broken = [("bad-year", "x", ("y2001g000m00",)), ("no-authors", 2001, ())]
    return pubs, group_of, broken


# ---------------------------------------------------------------- writers


def _xml_text(pubs: list[Pub], broken: list) -> str:
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<dblp>\n']
    for pid, year, authors in pubs + broken:
        out.append(f'<article key="{pid}">')
        out.extend(f"<author>{a}</author>" for a in authors)
        if year is not None:
            out.append(f"<year>{year}</year>")
        out.append("</article>\n")
    out.append("</dblp>\n")
    return "".join(out)


def _jsonl_text(pubs: list[Pub], broken: list) -> str:
    lines = [
        json.dumps({"id": pid, "year": year, "authors": list(authors)}, separators=(",", ":"))
        for pid, year, authors in pubs
    ]
    lines.extend('{"id": "%s", "year": ' % pid for pid, _, _ in broken)  # truncated JSON
    return "".join(line + "\n" for line in lines)


def _csv_text(pubs: list[Pub], broken: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "year", "authors"])
    for pid, year, authors in pubs + broken:
        writer.writerow([pid, year, ";".join(authors)])
    return buf.getvalue()


_BUILDERS = {"giant": _giant, "archipelago": _archipelago, "spectrum": _spectrum}
_WRITERS = {"dblp-xml": _xml_text, "jsonl": _jsonl_text, "csv": _csv_text}


def generate(workload: str, seed: int) -> Corpus:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    pubs, group_of, broken = _BUILDERS[workload](rng, shape)
    text = _WRITERS[shape.fmt](pubs, broken)
    return Corpus(shape, pubs, group_of, len(broken), text)


def operations(shape: Shape, input_name: str) -> list[tuple[str, list[str]]]:
    """One round of CLI calls as ``(tag, argv)``; ``{out}`` is the round's
    output directory.

    A one-shot workload is a single ``molmine pipeline``. The staged one
    runs the subcommands the README lists, writing the same per-year and
    global artifacts: ingest, then mine, decompose and export-dot per year,
    then timeline and cluster.
    """
    thresholds = ["--min-support", shape.min_support, "--min-confidence", shape.min_confidence]
    if not shape.staged:
        return [("pipeline", ["pipeline", "--input", input_name, "--format", shape.fmt,
                              *thresholds, "--identity", shape.identity, "--out-dir", "{out}"])]
    years = range(shape.years[0], shape.years[1] + 1)
    normalized = "{out}/normalized.jsonl"
    ops = [("ingest", ["ingest", "--input", input_name, "--format", shape.fmt, "--out", normalized])]
    for y in years:
        rules = f"{{out}}/rules_{y}.csv"
        ops += [
            (f"mine {y}", ["mine", "--input", normalized, "--year", str(y), *thresholds,
                           "--out", rules]),
            (f"decompose {y}", ["decompose", "--rules", rules, "--year", str(y),
                                "--out-attributes", f"{{out}}/attributes_{y}.csv",
                                "--out-communities", f"{{out}}/communities_{y}.json"]),
            (f"export-dot {y}", ["export-dot", "--rules", rules, "--name", f"snapshot_{y}",
                                 "--out", f"{{out}}/snapshot_{y}.dot"]),
        ]
    ops += [
        ("timeline", ["timeline", "--communities", *(f"{{out}}/communities_{y}.json" for y in years),
                      "--identity", shape.identity, "--out", "{out}/timelines.json",
                      "--out-noise", "{out}/noise.csv"]),
        ("cluster", ["cluster", "--attributes", *(f"{{out}}/attributes_{y}.csv" for y in years),
                     "--out", "{out}/dendrogram.json"]),
    ]
    return ops
