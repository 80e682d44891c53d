"""Wide diamonds and their replacement gadget for counting minimum
dominating sets in simple (typically planar) graphs.

A wide diamond is a set of degree-2 vertices that all see the same two
endpoints. Replacing all but three of them, power of two by power of two,
with pendant-guarded selector gadgets preserves the number of minimum
dominating sets while raising the parameter by the sum of the exponents.
Each gadget sits in a face containing both endpoints, so planarity is
preserved too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .chain_gadget import power_decompose
from .multigraph import MultiGraph, VertexId, link, remove


@dataclass(frozen=True)
class WideDiamond:
    """Degree-2 vertices sharing the two distinct ``endpoints``."""

    members: tuple[VertexId, ...]
    endpoints: tuple[VertexId, VertexId]


def find_wide_diamonds(g: MultiGraph) -> list[WideDiamond]:
    """Maximal wide diamonds of a simple graph: degree-2 vertices grouped
    by their neighbor pair, ordered by endpoint pair."""
    if not g.is_simple:
        raise ValueError("wide diamonds are defined on simple graphs only")
    groups: dict[tuple[VertexId, VertexId], list[VertexId]] = {}
    for v in g.vertices:
        if g.degree(v) == 2:
            pair = g.neighbors(v)
            groups.setdefault(pair, []).append(v)
    return [
        WideDiamond(tuple(sorted(members)), pair)
        for pair, members in sorted(groups.items())
    ]


def _validate_diamond(g: MultiGraph, diamond: WideDiamond) -> None:
    v, u = diamond.endpoints
    if len(diamond.members) < 1:
        raise ValueError("a wide diamond needs at least one member")
    if len(set(diamond.members)) < len(diamond.members):
        raise ValueError("the members of a wide diamond must be distinct")
    if v == u:
        raise ValueError("the endpoints of a wide diamond must be distinct")
    if not g.is_simple:
        raise ValueError("wide diamonds are defined on simple graphs only")
    for c in diamond.members:
        # neighbors() refuses a vertex outside g as unknown
        if set(g.neighbors(c)) != {v, u}:
            raise ValueError(f"vertex {c} does not have exactly the two endpoints as neighbors")


def _splice(g: MultiGraph, diamonds: list[WideDiamond], k: int) -> tuple[MultiGraph, int]:
    """Replace the given disjoint diamonds of g by their gadgets on one copy
    of g's adjacency map, with one running fresh-id counter starting at
    ``g.next_vertex_id``; a diamond of at most four members stays as it is."""
    adj = g.adjacency()
    fresh = g.next_vertex_id
    for diamond in diamonds:
        if len(diamond.members) <= 4:
            continue
        v, u = diamond.endpoints
        # three members stay, four for an even diamond: a residual 2^0
        # sub-diamond is a single vertex, already as small as its would-be
        # gadget; keeping it in place preserves counts, since a bare pendant
        # pair has no dominator once a solution selects inside a sibling gadget
        replaced = sorted(diamond.members)[4 - len(diamond.members) % 2 :]
        for c in replaced:
            remove(adj, c)
        for p in power_decompose(len(replaced)):
            x_v, x_u = fresh, fresh + 1
            fresh += 2
            link(adj, v, x_v)
            link(adj, u, x_u)
            for _ in range(p):
                a, b, guard = fresh, fresh + 1, fresh + 2
                fresh += 3
                for pair in ((a, b), (x_v, a), (x_u, a), (x_v, b), (x_u, b), (b, guard)):
                    link(adj, *pair)
            k += p
    return MultiGraph._from_checked(adj), k


def replace_wide_diamond(
    g: MultiGraph, diamond: WideDiamond, k: int
) -> tuple[MultiGraph, int]:
    """Replace a wide diamond of at least five members by its gadget;
    smaller diamonds are returned unchanged.

    Three members stay put (four when the remainder would need a lone
    2^0 sub-diamond); the rest are traded, one gadget per power of two,
    for endpoint attachments x_v, x_u plus, per exponent step, an
    adjacent pair (a_i, b_i) seen by both attachments with a degree-one
    guard e_i on b_i. The parameter grows by the sum of the exponents.
    """
    _validate_diamond(g, diamond)
    return _splice(g, [diamond], k)


def replace_all_wide_diamonds(g: MultiGraph, k: int) -> tuple[MultiGraph, int]:
    """Replace every wide diamond of the simple graph g in one splice; the
    same as replacing those of :func:`find_wide_diamonds` one at a time
    with :func:`replace_wide_diamond`, in that order."""
    return _splice(g, find_wide_diamonds(g), k)


def diamond_observation_check(
    g: MultiGraph, diamond: WideDiamond, dominating: Iterable[VertexId]
) -> list[str]:
    """Properties every minimum dominating set must satisfy on a diamond of
    at least three members; returns the names of the violated ones.

    Intended as a test assertion: the caller supplies a set it already
    knows to be a minimum dominating set.
    """
    if len(diamond.members) < 3:
        raise ValueError("observation requires a diamond with at least three members")
    chosen = set(dominating)
    members = set(diamond.members)
    v, u = diamond.endpoints
    violated = []
    if not chosen & {v, u}:
        violated.append("hits-an-endpoint")
    if {v, u} <= chosen and chosen & members:
        violated.append("both-endpoints-exclude-members")
    if len(chosen & members) > 1:
        violated.append("at-most-one-member")
    return violated
