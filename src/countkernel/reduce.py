"""Reduction rules and the kernel pipeline for counting minimum feedback
vertex sets.

Two classic rules are safe for counting: capping edge multiplicities at two
and deleting degree-at-most-one vertices. The third reduction shrinks the
degree of a vertex v by keeping only a bounded number of v's edges into the
trees of G - (Y_v + v), for a feedback vertex set Y_v avoiding v. Driving
all three with a constant-factor FVS approximation bounds both the number
of vertices of degree other than two and the number of chains of the
output by polynomials in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .multigraph import Marker, MultiGraph, VertexId, find_root, grow_forest, link, peel, remove, runs, tree_roots

#: Approximation ratio of :func:`approx_fvs` (local-ratio algorithm for
#: weighted FVS with unit weights). All pipeline thresholds are this
#: constant times k.
APPROX_RATIO = 2


#: Sentinel: the instance provably has no solution of size at most k.
TRIVIALLY_ZERO = Marker("TRIVIALLY_ZERO")


def check_k(k) -> None:
    """Refuse, with ValueError, a parameter k that is not a plain
    non-negative int; a bool is refused too. The public kernel and counting
    entry points call it before any work."""
    if type(k) is not int or k < 0:
        raise ValueError(f"parameter k must be a nonnegative integer, got {k!r}")


def apply_r1(g: MultiGraph) -> MultiGraph:
    """Cap every edge multiplicity at two; ``g`` itself when no multiplicity
    exceeds two.

    Two parallel edges already form a cycle through both endpoints; extra
    copies change neither the feedback vertex sets nor their count.
    """
    if all(m <= 2 for nb in g._adj.values() for m in nb.values()):
        return g
    return MultiGraph._from_checked({v: {u: min(m, 2) for u, m in nb.items()} for v, nb in g._adj.items()})


def apply_r2(g: MultiGraph) -> MultiGraph:
    """Exhaustively delete vertices of degree at most one, leaving the
    2-core; ``g`` itself when it has no such vertex."""
    low = [v for v, nb in g._adj.items() if len(nb) < 2 and sum(nb.values()) <= 1]
    if not low:
        return g
    adj = g.adjacency()
    peel(adj, low)
    return MultiGraph._from_checked(adj)


def _semidisjoint_cycle(adj: dict, deg: dict) -> Optional[set]:
    """Find a cycle in which every vertex except at most one has degree
    exactly two, or None; ``deg`` holds the degrees in ``adj``, whose keys
    are in increasing order.

    Such a cycle is a degree-2 component (a free-standing cycle) or a
    degree-2 path whose two outside edge slots attach to one shared vertex.
    The first one by smallest vertex is returned: ``runs`` meets the paths
    in map order, and the keys of ``adj`` increase.
    """
    deg2 = {v for v, d in deg.items() if d == 2}
    return next((ends.union(path) for path, ends in runs(adj, deg2) if len(ends) <= 1), None)


def _shortened(adj: dict, forbidden: Optional[VertexId]) -> dict:
    """The map ``adj`` with each maximal path of two or more degree-2
    vertices other than ``forbidden`` cut to its smallest vertex, joined to
    the path's two outside neighbours (by a double edge when they are one
    vertex), and each free cycle of three or more to its two smallest,
    joined by a double edge; ``adj`` itself when no path or cycle is that
    long. Keys keep their order, so they still increase, and rows that no
    cut changes are ``adj``'s own: the result is for reading only.

    The local ratio treats a path's vertices alike: they start at unit
    weight, keep degree two, and reach zero or are peeled together; each of
    its tie-breaks meets the smallest first, and in reverse deletion the
    others go back while it is still out. So the kept vertex stands for the
    path, and the approximate set is the same.
    """
    # a degree-2 vertex with one neighbour is a free 2-cycle or hangs off a
    # vertex of degree three or more, so no cut drops it
    deg2 = {v: nb for v, nb in adj.items() if len(nb) == 2 and sum(nb.values()) == 2 and v != forbidden}
    # the paths of two or more are those of the vertices with a neighbour in
    # deg2, and runs reads only their rows
    inner = {v: nb for v, nb in deg2.items() if not deg2.keys().isdisjoint(nb)}
    if not inner:
        return adj
    short = dict(adj)
    for path, ends in runs(inner, inner.keys()):
        kept = sorted(path)[: 2 - bool(ends)]
        for v in path:
            if v in kept:
                short[v] = {}
            else:
                del short[v]
        # only the path's two ends have edges leaving it; when both meet
        # one vertex, the kept vertex gets a double edge to it
        for u in ends:
            if short[u] is adj[u]:
                short[u] = dict(adj[u])
            short[u].pop(path[0], None)
            short[u].pop(path[-1], None)
            link(short, kept[0], u, 3 - len(ends))
        if not ends:
            link(short, *kept, 2)
    return short


def approx_fvs(g: MultiGraph, forbidden: Optional[VertexId] = None) -> frozenset:
    """Feedback vertex set of size at most APPROX_RATIO times the optimum,
    optionally among the sets avoiding ``forbidden``.

    Local-ratio algorithm for weighted FVS: repeatedly subtract a uniform
    fraction of either a semidisjoint cycle's weights or degree-proportional
    weights, collect vertices whose weight reaches zero, then discard the
    redundant ones in reverse collection order. The forbidden vertex is
    priced above twice the weight of any candidate solution, so the ratio
    guarantee keeps it out. Both phases run on g's map with every long
    degree-2 path cut to one vertex (see :func:`_shortened`), which returns
    the set the full map would: the local-ratio phase consumes a copy of
    that map, and reverse deletion reads it.

    The cut depends on ``forbidden`` only when it is a degree-2 vertex with
    two neighbours, which splits its path. Every other call on one graph
    cuts the same map, so the first makes it, compacted, and keeps it in
    the graph's ``_cut`` slot, and later calls read it without scanning g.
    """
    if forbidden is not None and forbidden not in g:
        raise ValueError(f"unknown vertex {forbidden}")
    if forbidden is not None and len(g._adj[forbidden]) == 2 and g.degree(forbidden) == 2:
        short = _shortened(g._adj, forbidden)
    else:
        if g._cut is None:
            short = _shortened(g._adj, None)
            # a dict keeps its table when keys are deleted, so a cut that
            # dropped vertices is kept as a compact copy
            g._cut = short if short is g._adj else dict(short)
        short = g._cut
    adj = {v: dict(nb) for v, nb in short.items()}
    # the weight of v is num[v] over a denominator shared by all vertices;
    # the steps only compare weights and test them for zero, so the shared
    # denominator is never needed and the arithmetic stays integral
    num = dict.fromkeys(adj, 1)
    if forbidden is not None:
        # priced from g's vertex count, not the shortened map's: the weight
        # steps below read it, so the set stays the one g's own map gives
        num[forbidden] = 2 * g.num_vertices + 1
    peel(adj, [v for v, nb in adj.items() if len(nb) < 2 and sum(nb.values()) <= 1])

    stack = []
    while adj:
        deg = {v: sum(nb.values()) for v, nb in adj.items()}
        cycle = _semidisjoint_cycle(adj, deg)
        if cycle is not None:
            gamma = min(num[v] for v in cycle)
            for v in cycle:
                num[v] -= gamma
        else:
            # subtract w(a) / d(a) * d(v) from every w(v), for a of least
            # w / d; scaling all weights by d(a) keeps them integers
            a = next(iter(adj))
            for v in adj:
                if num[v] * deg[a] < num[a] * deg[v]:
                    a = v
            num_a, deg_a = num[a], deg[a]
            common = 0
            for v in adj:
                num[v] = x = num[v] * deg_a - num_a * deg[v]
                common = math.gcd(common, x)
            if common > 1:
                for v in adj:
                    num[v] //= common
        # the keys of adj increase, so zero comes out sorted
        zero = [x for x in adj if num[x] == 0]
        stack += zero
        peel(adj, zero)

    chosen = _reverse_delete(short, stack)
    if forbidden in chosen:
        raise RuntimeError("approximation selected the forbidden vertex")
    return frozenset(chosen)


def _reverse_delete(adj: dict, stack: list[VertexId]) -> set[VertexId]:
    """Drop every vertex of ``stack``, last first, whose removal from the
    chosen set leaves G - chosen a forest, for the graph G with adjacency
    map ``adj``; G - stack must be a forest.

    Putting a vertex back into the forest only merges trees, so one
    union-find over the growing forest decides each step: v goes back iff
    it would close no cycle with the forest.
    """
    chosen = set(stack)
    parent: dict = {}
    if not grow_forest(adj, parent, [v for v in adj if v not in chosen]):
        raise RuntimeError("the graph minus the collected vertices is not a forest")
    for v in reversed(stack):
        if grow_forest(adj, parent, (v,)):
            chosen.discard(v)
    return chosen


def degree_reduce(
    g: MultiGraph, k: int, v: VertexId, y_v: Iterable[VertexId]
) -> MultiGraph:
    """Delete edges at ``v`` so that its degree is at most |Y_v| * (k + 4)
    without changing the number of minimum FVSs of size at most k.

    For each u in Y_v, trees of G - (Y_v + v) with an edge to both v and u
    are marked, stopping once k + 2 of them are; v keeps only its edges
    into marked trees. Requires multiplicities already capped at two and
    Y_v a feedback vertex set avoiding v. Returns ``g`` itself when no edge
    goes.
    """
    y_v = set(y_v)
    if v not in g:
        raise ValueError(f"unknown vertex {v}")
    if v in y_v:
        raise ValueError("the feedback vertex set must avoid the reduced vertex")
    for u in y_v:
        if u not in g:
            raise ValueError(f"unknown vertex {u} in feedback vertex set")
    adj = g._adj
    if any(m > 2 for nb in adj.values() for m in nb.values()):
        raise ValueError("graph is not reduced with respect to multiplicity capping")
    # one union-find over the forest G - (Y_v + v); Y_v is a feedback vertex
    # set iff that is a forest and v closes no cycle with it
    parent: dict = {}
    grown = grow_forest(adj, parent, [x for x in adj if x != v and x not in y_v])
    v_trees = tree_roots(adj, parent, v) if grown else None
    if v_trees is None:
        raise ValueError("the provided set is not a feedback vertex set")
    # trees in order of their smallest vertex
    smallest: dict = {}
    for x in parent:
        smallest.setdefault(find_root(parent, x), x)

    marked: set = set()
    for u in sorted(y_v):
        shared = v_trees.intersection(find_root(parent, n) for n in adj[u] if n in parent)
        have = len(shared & marked)
        for t in sorted(shared, key=smallest.__getitem__):
            if have >= k + 2:
                break
            if t not in marked:
                marked.add(t)
                have += 1

    # v has a single edge into each tree it touches; those into unmarked
    # trees go, from a copy of the map
    dropped = [n for n in adj[v] if n in parent and find_root(parent, n) not in marked]
    if not dropped:
        return g
    adj = g.adjacency()
    for n in dropped:
        del adj[v][n], adj[n][v]
    return MultiGraph._from_checked(adj)


@dataclass(frozen=True)
class KernelBounds:
    """Guaranteed structural bounds on a non-trivial kernel output."""

    rho: int
    k: int

    @property
    def max_v_neq2(self) -> int:
        return self.rho * self.k + self.rho**2 * self.k**2 * (self.k + 4)

    @property
    def max_chains(self) -> int:
        return self.rho * self.k + 2 * self.rho**2 * self.k**2 * (self.k + 4)


def kernelize_fvs(g: MultiGraph, k: int):
    """Reduce (g, k) to an instance with the same number of minimum FVSs of
    size at most k, with structure bounded by :class:`KernelBounds`.

    Returns TRIVIALLY_ZERO when the pipeline proves the count is zero,
    otherwise a (graph, parameter) pair with parameter at most k.

    Each vertex v of the approximate set is either forced (Y_v, the
    approximate set avoiding v, exceeds 2k) or degree-reduced against Y_v.
    The reduction is skipped when it cannot drop an edge: when
    deg(v) <= k + 2 and the current graph has no degree-1 vertex. A tree
    of G - (Y_v + v) that meets no vertex of Y_v hangs off v by one edge,
    so it holds a degree-1 vertex; without one, every tree at v is shared
    with some u in Y_v, and as v touches at most k + 2 trees, each u marks
    all of those it shares. Whether a degree-1 vertex exists is asked again
    only after the graph changes, and an unchanged graph keeps its path cut
    between the ``approx_fvs`` calls.
    """
    check_k(k)
    cur = apply_r1(g)
    approx = approx_fvs(cur)
    if len(approx) > APPROX_RATIO * k:
        return TRIVIALLY_ZERO

    k_out = k
    pendant = None  # whether cur has a degree-1 vertex, once asked
    for v in sorted(approx):
        y_v = approx_fvs(cur, forbidden=v)
        if len(y_v) > APPROX_RATIO * k:
            # no solution of size at most k avoids v, so v is in all of
            # them; peel it off a copy of the map, as graphs are never edited
            adj = cur.adjacency()
            remove(adj, v)
            cur, pendant = MultiGraph._from_checked(adj), None
            k_out -= 1
            continue
        if cur.degree(v) <= k + 2:
            # only a tree hanging off v alone can lose its edge to v, and
            # such a tree holds a degree-1 vertex
            if pendant is None:
                pendant = any(len(nb) == 1 and sum(nb.values()) == 1 for nb in cur._adj.values())
            if not pendant:
                continue
        out = degree_reduce(cur, k, v, y_v)
        if out is not cur:
            cur, pendant = out, None
    if k_out < 0:
        # more forced vertices than budget
        return TRIVIALLY_ZERO
    return apply_r2(cur), k_out
