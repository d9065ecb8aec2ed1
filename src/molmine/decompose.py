"""Decomposition of association graphs into molecular structures.

A community is one weakly connected component with at least two members
(edge direction is ignored for membership, so A -> B connects both nuclei).
Each community is described by the attribute sextuple

    (SB, BR, DI, NU, RE, TR)

where SB counts unordered pairs joined by a single bond, BR pairs joined by a
double bond (bridges), DI triangles of the bridge-only undirected graph
(diamonds), NU the nuclei, and RE / TR the members with at least one incoming
/ outgoing edge. Communities also get a motif class (pair, star, arrow,
triangle, diamond, ...) and per-member roles.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Literal, Sequence

from .errors import InputError
from .graph import AssocGraph

Arity = Literal["2-ary", "n-ary"]


class Role(Enum):
    """What a member does inside its community: influence, react, or both."""

    TRIGGER_ONLY = "trigger-only"
    REACTOR_ONLY = "reactor-only"
    BOTH = "both"


class MotifClass(Enum):
    PAIR = "pair"
    BRIDGE_PAIR = "bridge-pair"
    STAR_IN = "star-in"
    STAR_OUT = "star-out"
    STAR_MIXED = "star-mixed"
    ARROW = "arrow"
    TRIANGLE = "triangle"
    DIAMOND = "diamond"
    COMPLEX = "complex"


VECTOR_FIELDS = ("SB", "BR", "DI", "NU", "RE", "TR")


@dataclass(frozen=True)
class AttributeVector:
    """The community description sextuple (SB, BR, DI, NU, RE, TR)."""

    single_bonds: int
    bridges: int
    diamonds: int
    nuclei: int
    reactors: int
    triggers: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.single_bonds,
            self.bridges,
            self.diamonds,
            self.nuclei,
            self.reactors,
            self.triggers,
        )

    def as_dict(self) -> dict[str, int]:
        return dict(zip(VECTOR_FIELDS, self.as_tuple()))


@dataclass(frozen=True)
class Community:
    """One weakly connected component of an association graph.

    ``id`` is the component's rank when components are sorted by their least
    member; ``edges`` is the induced directed edge set.
    """

    id: int
    members: frozenset[str]
    edges: frozenset[tuple[str, str]]
    year: int = 0

    @cached_property
    def _bonds(self) -> dict[tuple[str, str], int]:
        """Unordered bonded pair -> number of directions present (1 or 2)."""
        dirs: dict[tuple[str, str], int] = defaultdict(int)
        for a, b in self.edges:
            dirs[(a, b) if a <= b else (b, a)] += 1
        return dict(dirs)

    @cached_property
    def _bond_adj(self) -> dict[str, set[str]]:
        """Undirected adjacency over all bonds (single or double)."""
        adj: dict[str, set[str]] = {m: set() for m in self.members}
        for a, b in self._bonds:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def single_bond_pairs(self) -> list[tuple[str, str]]:
        return sorted(p for p, d in self._bonds.items() if d == 1)

    def double_bond_pairs(self) -> list[tuple[str, str]]:
        return sorted(p for p, d in self._bonds.items() if d == 2)


def communities(g: AssocGraph) -> list[Community]:
    """Weakly connected components with >= 2 members, sorted by least member.

    Isolated nodes are excluded; ids are assigned 0..k-1 in sort order.
    Distinct communities never share a member.
    """
    adj: dict[str, set[str]] = {n: set() for n in g.nodes}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)

    seen: set[str] = set()
    component_members: list[set[str]] = []
    for start in g.nodes:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in comp:
                    comp.add(nxt)
                    seen.add(nxt)
                    stack.append(nxt)
        if len(comp) >= 2:
            component_members.append(comp)

    component_members.sort(key=min)
    label = {m: cid for cid, members in enumerate(component_members) for m in members}
    induced: list[list[tuple[str, str]]] = [[] for _ in component_members]
    for e in g.edges:
        induced[label[e[0]]].append(e)
    return [
        Community(cid, frozenset(members), frozenset(induced[cid]), year=g.year)
        for cid, members in enumerate(component_members)
    ]


def _bridge_triangles(pairs: Iterable[tuple[str, str]]) -> int:
    """Triangle count of the undirected graph given by the bridge pairs."""
    adj: dict[str, set[str]] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    count = 0
    for a, b in pairs:
        # each triangle counted once: third node strictly above both endpoints
        hi = max(a, b)
        count += sum(1 for c in adj[a] & adj[b] if c > hi)
    return count


def attribute_vector(c: Community) -> AttributeVector:
    doubles = c.double_bond_pairs()
    reactors = {b for _, b in c.edges}
    triggers = {a for a, _ in c.edges}
    return AttributeVector(
        single_bonds=len(c.single_bond_pairs()),
        bridges=len(doubles),
        diamonds=_bridge_triangles(doubles),
        nuclei=len(c.members),
        reactors=len(reactors),
        triggers=len(triggers),
    )


def roles(c: Community) -> dict[str, Role]:
    """Per-member role derived from the induced edges.

    Every community member has at least one bond, so no member is ever
    neither trigger nor reactor.
    """
    outs = {a for a, _ in c.edges}
    ins = {b for _, b in c.edges}
    result = {}
    for m in c.members:
        if m in outs and m in ins:
            result[m] = Role.BOTH
        elif m in outs:
            result[m] = Role.TRIGGER_ONLY
        else:
            result[m] = Role.REACTOR_ONLY
    return result


def _star_center(c: Community) -> str | None:
    """The unique member bonded to all others with pairwise unbonded leaves,
    all bonds single; None when the community is not star-shaped."""
    if any(d == 2 for d in c._bonds.values()):
        return None
    n = len(c.members)
    if len(c._bonds) != n - 1:
        return None
    for m in sorted(c.members):
        if len(c._bond_adj[m]) == n - 1:
            return m
    return None


def classify_motif(c: Community) -> MotifClass:
    """Total, mutually exclusive motif classification.

    Matching order: pair, bridge-pair, diamond, triangle, arrow, the star
    classes, then complex. Specific shapes win over generic ones.
    """
    n = len(c.members)
    singles = c.single_bond_pairs()
    doubles = c.double_bond_pairs()

    if n == 2:
        return MotifClass.PAIR if len(singles) == 1 else MotifClass.BRIDGE_PAIR
    if n == 3:
        if len(doubles) == 3 and not singles:
            return MotifClass.DIAMOND
        if len(singles) == 3 and not doubles:
            if all(len(c._bond_adj[m]) == 2 for m in c.members):
                outs = {a for a, _ in c.edges}
                ins = {b for _, b in c.edges}
                if outs == c.members and ins == c.members:
                    return MotifClass.TRIANGLE
        if len(singles) == 2 and not doubles:
            (a1, b1), (a2, b2) = sorted(c.edges)
            if b1 == a2 or b2 == a1:
                return MotifClass.ARROW

    center = _star_center(c)
    if center is not None:
        heads = {b for _, b in c.edges}
        tails = {a for a, _ in c.edges}
        if heads == {center}:
            return MotifClass.STAR_IN
        if tails == {center}:
            return MotifClass.STAR_OUT
        return MotifClass.STAR_MIXED
    return MotifClass.COMPLEX


def community_arity(c: Community) -> Arity:
    """Arity of the whole community under the star rule applied everywhere.

    2-ary when no member has two bonded neighbors that are themselves
    bonded, i.e. the undirected bond graph is triangle-free; n-ary otherwise.
    """
    for a, b in c._bonds:
        if c._bond_adj[a] & c._bond_adj[b]:
            return "n-ary"
    return "2-ary"


ATTRIBUTES_CSV_HEADER = "year,community_id,motif,arity,SB,BR,DI,NU,RE,TR"

# Sextuple entries are counts, and clustering computes in float64, which
# holds integers exactly only up to 2**53: larger counts would collapse into
# one another or overflow the distance matrix.
_MAX_COUNT = 2**53


def attributes_csv(comms: Sequence[Community]) -> str:
    """Render one attributes row per community (all values exact integers)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ATTRIBUTES_CSV_HEADER.split(","))
    for c in comms:
        vec = attribute_vector(c)
        writer.writerow(
            [c.year, c.id, classify_motif(c).value, community_arity(c), *vec.as_tuple()]
        )
    return buf.getvalue()


def attributes_from_csv(text: str) -> list[dict]:
    """Parse an attributes CSV written by :func:`attributes_csv`."""
    expected = ATTRIBUTES_CSV_HEADER.split(",")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return []
    if [h.strip() for h in header] != expected:
        raise InputError(f"unexpected attributes CSV header: {','.join(header)!r}")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(expected):
            raise InputError(f"malformed attributes CSV row at line {reader.line_num}")
        try:
            vector = {name: int(value) for name, value in zip(VECTOR_FIELDS, row[4:])}
            year, community_id = int(row[0]), int(row[1])
        except ValueError as exc:
            raise InputError(f"malformed attributes CSV row at line {reader.line_num}") from exc
        for name, value in vector.items():
            if abs(value) > _MAX_COUNT:
                raise InputError(
                    f"attributes CSV row at line {reader.line_num}: "
                    f"{name} exceeds 2**53 in magnitude"
                )
        rows.append(
            {"year": year, "community_id": community_id, "motif": row[2], "arity": row[3], **vector}
        )
    return rows


def community_to_json_dict(c: Community) -> dict:
    member_roles = roles(c)
    return {
        "id": c.id,
        "members": sorted(c.members),
        "edges": [list(e) for e in sorted(c.edges)],
        "vector": attribute_vector(c).as_dict(),
        "motif": classify_motif(c).value,
        "arity": community_arity(c),
        "roles": {m: member_roles[m].value for m in sorted(c.members)},
    }


def communities_json_dict(comms: Sequence[Community], year: int) -> dict:
    return {"year": year, "communities": [community_to_json_dict(c) for c in comms]}
