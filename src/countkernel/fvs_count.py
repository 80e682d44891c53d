"""Exact counting of minimum feedback vertex sets.

The counter works on (size, count) pairs combined with an operator that
keeps the smaller size and adds counts on ties. The core recursion solves
the weighted *disjoint* problem: given a feedback vertex set W of G and a
vertex-weight function, compute the minimum size of an FVS of G avoiding W
together with the sum, over all such minimum sets S, of the product of the
weights in S. Running it over all subsets of one known FVS (the
"compression" loop) yields the number of minimum feedback vertex sets of
size at most k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional

from .multigraph import MultiGraph, VertexId
from .reduce import APPROX_RATIO, approx_fvs

INFINITE = math.inf


@dataclass(frozen=True)
class CountPair:
    """A (size, count) value: the minimum size of a solution, or infinity
    when none exists, and the (weighted) number of solutions attaining it.

    Counts are plain Python integers, so they never overflow. ``size`` is
    infinite only together with a zero count.
    """

    size: int | float
    count: int

    def __post_init__(self):
        if self.size == INFINITE:
            if self.count != 0:
                raise ValueError("an infeasible pair must have count 0")
        elif not isinstance(self.size, int) or self.size < 0:
            raise ValueError(f"size must be a nonnegative integer or infinity, got {self.size!r}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")

    @property
    def feasible(self) -> bool:
        return self.size != INFINITE


#: Identity of ``oplus``: no solution of any size.
INFEASIBLE = CountPair(INFINITE, 0)


def oplus(x: CountPair, y: CountPair) -> CountPair:
    """Combine two pairs: the smaller size wins, equal sizes add counts."""
    if x.size < y.size:
        return x
    if x.size > y.size:
        return y
    return CountPair(x.size, x.count + y.count)


def shift(pair: CountPair, size: int, weight: int) -> CountPair:
    """``pair`` with ``size`` vertices added to every solution and each
    solution's weight multiplied by ``weight``; infeasible stays infeasible."""
    return CountPair(pair.size + size, pair.count * weight)


def dj_fvs(
    g: MultiGraph,
    banned: Iterable[VertexId],
    k: int,
    weights: Optional[Mapping[VertexId, int]] = None,
) -> CountPair:
    """Weighted disjoint minimum FVS sum of ``g`` with respect to ``banned``.

    Returns (a, b) where a is the minimum size of a feedback vertex set of
    the graph that avoids ``banned`` entirely (infinite if every such set
    is larger than k) and b sums, over all those minimum sets, the product
    of their vertex weights. ``weights`` maps every vertex to a positive
    integer; None means unit weights. ``banned`` must itself be a feedback
    vertex set of the graph.
    """
    w = {v: 1 if weights is None else weights.get(v) for v in g.vertices}
    for v, x in w.items():
        if x is None:
            raise ValueError(f"vertex {v} has no weight")
        if x < 1:
            raise ValueError(f"vertex {v} has non-positive weight {x}")
    banned = frozenset(banned)
    unknown = banned - set(g.vertices)
    if unknown:
        raise ValueError(f"banned vertices {sorted(unknown)} are not in the graph")
    return _dj(g, w, banned, k)


def _dj(g: MultiGraph, w: dict, banned: frozenset, k: int) -> CountPair:
    # non-branching rewrites run as a loop so the recursion depth tracks
    # only genuine branch points; forced picks fold into a running
    # (size offset, weight product) applied to the branching result
    forced_size = 0
    forced_weight = 1

    def wrap(pair: CountPair) -> CountPair:
        return shift(pair, forced_size, forced_weight)

    while True:
        rest = [v for v in g.vertices if v not in banned]
        if g.has_cycle_within(rest):
            raise ValueError("banned set is not a feedback vertex set of the graph")

        if k < 0:
            return wrap(INFEASIBLE)
        if g.has_cycle_within(banned):
            return wrap(INFEASIBLE)
        if not rest:
            return wrap(CountPair(0, 1))

        # degree <= 1 vertices lie on no cycle
        low = next((v for v in rest if g.degree(v) <= 1), None)
        if low is not None:
            g = g.delete_vertices({low})
            continue

        # contract a free edge between two degree-2 vertices; the merged
        # vertex carries the weight sum, representing either original choice
        contracted = False
        for u, v, _ in g.edges():
            if (
                u not in banned
                and v not in banned
                and g.degree(u) == 2
                and g.degree(v) == 2
            ):
                g, s = g.contract_edge(u, v)
                w = {x: w[x] for x in g.vertices if x != s} | {s: w[u] + w[v]}
                contracted = True
                break
        if contracted:
            continue

        # a vertex closing a cycle with the banned set is forced into
        # every solution
        forced = next(
            (v for v in rest if g.has_cycle_within(banned | {v})), None
        )
        if forced is not None:
            forced_size += 1
            forced_weight *= w[forced]
            g = g.delete_vertices({forced})
            k -= 1
            continue
        break

    def took(vertex, new_banned, budget):
        sub = _dj(g.delete_vertices({vertex}), w, new_banned, budget)
        return shift(sub, 1, w[vertex])

    # branch on a vertex with two banned neighbors: either it joins the
    # banned side or it enters the solution
    for v in rest:
        if len(set(g.neighbors(v)) & banned) >= 2:
            x0 = _dj(g, w, banned | {v}, k)
            x1 = took(v, banned, k - 1)
            return wrap(oplus(x0, x1))

    # remaining structure: every tree of H = G - banned has an internal
    # vertex whose H-neighbors are all leaves except at most one
    hdeg = {
        v: sum(g.edge_mult(v, n) for n in g.neighbors(v) if n not in banned)
        for v in rest
    }
    v = None
    for cand in rest:
        if hdeg[cand] < 2:
            continue
        heavy = sum(
            1 for n in set(g.neighbors(cand)) if n not in banned and hdeg[n] >= 2
        )
        if heavy <= 1:
            v = cand
            break
    if v is None:
        raise RuntimeError(
            "branching invariant violated: no internal tree vertex with at "
            "most one internal neighbor"
        )

    def leaf_children(vertex):
        out = []
        for c in g.neighbors(vertex):
            if c in banned or hdeg[c] != 1:
                continue
            nbrs = set(g.neighbors(c))
            others = nbrs - {vertex}
            if len(nbrs) == 2 and vertex in nbrs and others <= banned:
                out.append(c)
        return out

    w_nbrs = set(g.neighbors(v)) & banned
    if len(w_nbrs) == 1:
        cands = leaf_children(v)
        if not cands:
            raise RuntimeError("branching invariant violated: no pendant child")
        c = cands[0]
        if g.has_cycle_within(banned | {v, c}):
            x00 = INFEASIBLE
        else:
            x00 = _dj(g, w, banned | {v, c}, k)
        x10 = took(v, banned, k - 1)
        x01 = took(c, banned | {v}, k - 1)
        return wrap(oplus(oplus(x00, x10), x01))

    if len(w_nbrs) == 0:
        cands = leaf_children(v)
        if len(cands) < 2:
            raise RuntimeError("branching invariant violated: fewer than two pendant children")
        c1, c2 = cands[0], cands[1]
        if g.has_cycle_within(banned | {v, c1, c2}):
            x000 = INFEASIBLE
        else:
            x000 = _dj(g, w, banned | {v, c1, c2}, k)
        x100 = took(v, banned, k - 1)
        x010 = took(c1, banned | {v, c2}, k - 1)
        x001 = took(c2, banned | {v, c1}, k - 1)
        sub = _dj(g.delete_vertices({c1, c2}), w, banned | {v}, k - 2)
        x011 = shift(sub, 2, w[c1] * w[c2])
        return wrap(oplus(oplus(oplus(oplus(x000, x100), x010), x001), x011))

    raise RuntimeError("unreachable: vertex with >= 2 banned neighbors survived branching")


def fvs_compression(g: MultiGraph, k: int, fvs: Iterable[VertexId]) -> CountPair:
    """Count minimum feedback vertex sets of size at most k, given any
    feedback vertex set ``fvs`` of g.

    Every solution is split into its intersection with ``fvs`` and a part
    disjoint from it, so iterating over all subsets and combining the
    disjoint results yields (feedback vertex number, #minFVS(g, k)), or
    the infeasible pair when the feedback vertex number exceeds k.
    """
    z = sorted(set(fvs))
    for v in z:
        if v not in g:
            raise ValueError(f"unknown vertex {v} in feedback vertex set")
    if g.has_cycle_within(set(g.vertices) - set(z)):
        raise ValueError("the provided set is not a feedback vertex set")

    total = INFEASIBLE
    for r in range(len(z) + 1):
        if r > k:
            break
        for taken in combinations(z, r):
            rest_graph = g.delete_vertices(taken)
            weights = {v: 1 for v in rest_graph.vertices}
            part = _dj(rest_graph, weights, frozenset(z) - set(taken), k - r)
            total = oplus(total, shift(part, r, 1))
    return total


def count_min_fvs_pair(g: MultiGraph, k: int) -> CountPair:
    """(feedback vertex number, #minFVS(g, k)) via approximation plus
    compression; infeasible pair when no solution of size <= k exists."""
    z = approx_fvs(g)
    if len(z) > APPROX_RATIO * k:
        # the approximation is within factor APPROX_RATIO of optimum, so
        # the feedback vertex number exceeds k
        return INFEASIBLE
    return fvs_compression(g, k, z)


def count_min_fvs(g: MultiGraph, k: int) -> int:
    """Number of minimum feedback vertex sets of g of size at most k."""
    return count_min_fvs_pair(g, k).count
