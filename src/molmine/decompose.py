"""Decomposition of association graphs into molecular structures.

A community is one weakly connected component with at least two members
(edge direction is ignored for membership, so A -> B connects both nuclei).
Each community is described by the attribute sextuple

    (SB, BR, DI, NU, RE, TR)

where SB counts unordered pairs joined by a single bond, BR pairs joined by a
double bond (bridges), DI triangles of the bridge-only undirected graph
(diamonds), NU the nuclei, and RE / TR the members with at least one incoming
/ outgoing edge. Communities also get a motif class (pair, star, arrow,
triangle, diamond, ...), an arity and per-member roles.

The description is computed once per community: ``Community.vector``,
``Community.motif`` and ``Community.arity`` come from one walk over the
community's edges, whose bonds, adjacency and endpoint sets are dropped when
the walk ends; only the three results stay cached on the community. Roles
are computed on demand by :func:`roles`.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring
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
    member; ``edges`` is the induced directed edge set. ``vector``, ``motif``
    and ``arity`` are computed together on first access and then cached.
    """

    id: int
    members: frozenset[str]
    edges: frozenset[tuple[str, str]]
    year: int = 0

    @cached_property
    def _description(self) -> tuple[AttributeVector, MotifClass, Arity]:
        return _describe(self)

    @property
    def vector(self) -> AttributeVector:
        return self._description[0]

    @property
    def motif(self) -> MotifClass:
        return self._description[1]

    @property
    def arity(self) -> Arity:
        return self._description[2]


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


def _describe(c: Community) -> tuple[AttributeVector, MotifClass, Arity]:
    """Sextuple, motif and arity of ``c`` from one walk over its edges."""
    bonds: dict[tuple[str, str], int] = {}  # unordered pair -> directions (1 or 2)
    adj: dict[str, set[str]] = defaultdict(set)  # undirected, over all bonds
    tails: set[str] = set()
    heads: set[str] = set()
    for a, b in c.edges:
        pair = (a, b) if a <= b else (b, a)
        bonds[pair] = bonds.get(pair, 0) + 1
        adj[a].add(b)
        adj[b].add(a)
        tails.add(a)
        heads.add(b)
    doubles = [p for p, d in bonds.items() if d == 2]
    vector = AttributeVector(
        single_bonds=len(bonds) - len(doubles),
        bridges=len(doubles),
        # triangles of bridges, each counted once: from its two lowest members
        diamonds=sum(
            1
            for a, b in doubles
            for x in adj[a] & adj[b]
            if x > b and bonds[a, x] == bonds[b, x] == 2
        ),
        nuclei=len(c.members),
        reactors=len(heads),
        triggers=len(tails),
    )
    # 2-ary when the undirected bond graph is triangle-free
    arity: Arity = "2-ary" if all(adj[a].isdisjoint(adj[b]) for a, b in bonds) else "n-ary"
    return vector, _motif(vector, adj, tails, heads, c.members), arity


def _motif(
    v: AttributeVector,
    adj: dict[str, set[str]],
    tails: set[str],
    heads: set[str],
    members: frozenset[str],
) -> MotifClass:
    """Total, mutually exclusive motif classification.

    Matching order: pair, bridge-pair, diamond, triangle, arrow, the star
    classes, then complex. Specific shapes win over generic ones.
    """
    n, singles, doubles = v.nuclei, v.single_bonds, v.bridges
    if n == 2:
        return MotifClass.PAIR if singles == 1 else MotifClass.BRIDGE_PAIR
    if n == 3:
        if doubles == 3:
            return MotifClass.DIAMOND
        # three single bonds join every pair: a cycle when each member is
        # the tail of one of the three edges
        if singles == 3 and tails == members:
            return MotifClass.TRIANGLE
        # two single bonds share one member: an arrow when it is the head
        # of one edge and the tail of the other
        if singles == 2 and not doubles and tails & heads:
            return MotifClass.ARROW
    # a star: one member bonded to all others, leaves pairwise unbonded,
    # all bonds single
    if not doubles and singles == n - 1:
        for center in sorted(members):
            if len(adj[center]) == n - 1:
                if heads == {center}:
                    return MotifClass.STAR_IN
                if tails == {center}:
                    return MotifClass.STAR_OUT
                return MotifClass.STAR_MIXED
    return MotifClass.COMPLEX


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
        writer.writerow([c.year, c.id, c.motif.value, c.arity, *c.vector.as_tuple()])
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


# Role values as JSON strings.
_ROLE_JSON = {r: encode_basestring(r.value) for r in Role}


def _append_items(
    out: list[str], items: Iterable[Sequence[str]], indent: str, brackets: str
) -> None:
    """Append to ``out`` a JSON array or object at depth ``indent``, laid out
    as by ``json.dumps(indent=2)``; each item is given as its text pieces."""
    start = len(out)
    separator = f",\n  {indent}"
    for pieces in items:
        out.append(separator)
        out += pieces
    if len(out) == start:
        out.append(brackets)
    else:
        out[start] = f"{brackets[0]}\n  {indent}"
        out.append(f"\n{indent}{brackets[1]}")


def _community_pieces(c: Community) -> list[str]:
    """One community's object in the communities document, as text pieces."""
    member_roles = roles(c)
    members = sorted(c.members)
    quoted = {m: encode_basestring(m) for m in members}
    pad = "      "  # the object's keys sit at depth 3
    out = [f'{{\n{pad}"id": {c.id},\n{pad}"members": ']
    _append_items(out, ((quoted[m],) for m in members), pad, "[]")
    out.append(f',\n{pad}"edges": ')
    edges = (
        ("[\n          ", quoted[a], ",\n          ", quoted[b], "\n        ]")
        for a, b in sorted(c.edges)
    )
    _append_items(out, edges, pad, "[]")
    out.append(f',\n{pad}"vector": ')
    _append_items(out, ((f'"{f}": {v}',) for f, v in c.vector.as_dict().items()), pad, "{}")
    out.append(
        f',\n{pad}"motif": {encode_basestring(c.motif.value)}'
        f',\n{pad}"arity": {encode_basestring(c.arity)}'
        f',\n{pad}"roles": '
    )
    member_roles_json = ((quoted[m], ": ", _ROLE_JSON[member_roles[m]]) for m in members)
    _append_items(out, member_roles_json, pad, "{}")
    out.append("\n    }")
    return out


def communities_json(comms: Sequence[Community], year: int) -> str:
    """The communities document of one year, as written to
    ``communities_<year>.json``.

    The text equals ``json.dumps(doc, indent=2, ensure_ascii=False)`` plus a
    newline, for ``doc = {"year": year, "communities": [{"id", "members"
    (sorted), "edges" (sorted [tail, head] pairs), "vector", "motif",
    "arity", "roles" (by sorted member)}, ...]}``. Each member name is
    encoded once, by the function ``json.dumps`` itself uses for strings,
    and the text is joined once from the pieces.
    """
    out = [f'{{\n  "year": {year},\n  "communities": ']
    _append_items(out, map(_community_pieces, comms), "  ", "[]")
    out.append("\n}\n")
    return "".join(out)
