"""Exact counting of minimum feedback vertex sets.

The counter works on (size, count) pairs combined with an operator that
keeps the smaller size and adds counts on ties. The core recursion solves
the weighted *disjoint* problem: given a feedback vertex set W of G and a
vertex-weight function, compute the minimum size of an FVS of G avoiding W
together with the sum, over all such minimum sets S, of the product of the
weights in S. It branches by one rule: a free vertex v enters the
solution, or is banned together with its first 2 - b children, where b
counts the banned trees v touches, and each child has one more branch
that takes it instead. The children are the leaves of the free tree next
to v: once the free forest is shrunk, exactly the free vertices with one
edge to v and one banned edge. Compression counts the minimum feedback
vertex sets of size at most k by first making the same choice for each
vertex of one known FVS Z; a ban that closes a cycle among the banned
vertices cuts the tree below it. Any vertex is taken by one step
(``_take``): delete it and count what is left. The tree carries the size
and the weight product of the vertices taken on the way down, so a node
with size s has k - s left to take, and a leaf returns the pair it
carries; nothing is added on the way back. The pearls of chain gadgets
are first folded into vertex weights on the counter's own map and start
that size, so a gadget instance is counted at the budget it was made
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .multigraph import MultiGraph, VertexId, grow_forest, link, peel, remove, runs, tree_roots
from .reduce import APPROX_RATIO, approx_fvs, check_k

INFINITE = math.inf


@dataclass(frozen=True)
class CountPair:
    """A (size, count) value: the minimum size of a solution, or infinity
    when none exists, and the (weighted) number of solutions attaining it.

    Sizes and counts are plain Python integers, never bools or floats, so
    counts never overflow. ``size`` is infinite only together with a zero
    count.
    """

    size: int | float
    count: int

    def __post_init__(self):
        size, count = self.size, self.count
        if type(count) is not int:
            raise ValueError(f"count must be an integer, got {count!r}")
        if type(size) is int:
            if size < 0 or count < 0:
                raise ValueError(f"size and count must be nonnegative, got {self!r}")
        elif size != INFINITE or count:
            raise ValueError(f"size must be int, or inf in an infeasible pair (count 0): {self!r}")

    @property
    def feasible(self) -> bool:
        return self.size != INFINITE


#: Identity of ``oplus``: no solution of any size.
INFEASIBLE = CountPair(INFINITE, 0)


def oplus(x: CountPair, y: CountPair) -> CountPair:
    """Combine two pairs: the smaller size wins, equal sizes add counts; of
    two infeasible pairs, ``y`` itself is returned."""
    if x.size < y.size:
        return x
    if x.size > y.size or y.size == INFINITE:
        return y
    return CountPair(x.size, x.count + y.count)


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
    banned = set(banned)
    adj, w = _checked(g, banned, weights)
    check_k(k)
    return _dj(adj, w, banned, k)


#: A vertex -> {neighbour: multiplicity} map, as built by
#: :meth:`MultiGraph.adjacency`, that ``_dj`` edits in place.
Adjacency = dict[VertexId, dict[VertexId, int]]


def _contract_paths(adj: Adjacency, w: dict, banned: set) -> None:
    """Contract every maximal path of two or more free (unbanned) degree-2
    vertices into its first vertex, which carries the path's weight sum; the
    paths are met in map order of their first key.

    The free part is a forest, so every cycle through one path vertex runs
    through the whole path: a minimum solution takes at most one of them,
    and any one serves. No degree changes, so no vertex drops to degree one.
    """
    deg2 = {v for v, nb in adj.items() if v not in banned and sum(nb.values()) == 2}
    inner = {v for v in deg2 if not deg2.isdisjoint(adj[v])}
    # a contraction deletes its own path and links its head to a vertex
    # outside ``inner``, so the paths found up front stay as they were
    for path, _ in list(runs(adj, inner)):
        head, tail = path[0], path[-1]
        b = next(u for u in adj[tail] if u != path[-2])
        w[head] = sum(w[v] for v in path)
        for v in path[1:]:
            remove(adj, v)
        link(adj, head, b)


def _shrink(adj: Adjacency, w: dict, banned: set) -> list:
    """Peel the free vertices, the keys of ``adj`` outside ``banned``, which
    lie on no cycle once at degree at most one, then contract free paths;
    the free vertices that remain, in map order."""
    low = [v for v, nb in adj.items() if v not in banned and len(nb) < 2 and sum(nb.values()) <= 1]
    peel(adj, low, banned)
    _contract_paths(adj, w, banned)
    return [v for v in adj if v not in banned]


def _checked(
    g: MultiGraph, banned: set, weights: Optional[Mapping[VertexId, int]]
) -> tuple[Adjacency, dict]:
    """The entry check of :func:`dj_fvs` and :func:`fvs_compression`: g's
    adjacency map and a fresh vertex -> weight map, all ones when
    ``weights`` is None. Else ValueError, unless ``weights`` gives every
    vertex a positive int and ``banned`` is a set of g's vertices whose
    removal leaves a forest.
    """
    if weights is None:
        w = dict.fromkeys(g.vertices, 1)
    else:
        w = {}
        for v in g.vertices:
            x = weights.get(v)
            if x is None:
                raise ValueError(f"vertex {v} has no weight")
            if type(x) is not int:
                raise ValueError(f"vertex {v} has non-integer weight {x!r}")
            if x < 1:
                raise ValueError(f"vertex {v} has non-positive weight {x}")
            w[v] = x
    unknown = banned - set(g.vertices)
    if unknown:
        raise ValueError(f"vertices {sorted(unknown)} of the given set are not in the graph")
    if g.has_cycle_within(set(g.vertices) - banned):
        raise ValueError("the given set is not a feedback vertex set of the graph")
    return g.adjacency(), w


def _take(
    adj: Adjacency, w: dict, banned: set, v: VertexId, k: int, size: int, weight: int, todo: tuple = ()
) -> CountPair:
    """The branch that puts v into the solution: delete it from a copy of
    ``adj`` and count that with ``banned`` less v banned and ``todo`` still
    to decide, v joining the ``size`` vertices of product ``weight`` taken
    so far; refused when that would take more than k. A taken vertex is
    deleted, never banned; the arguments are left as they are."""
    if size >= k:
        return INFEASIBLE
    sub = {u: nb.copy() for u, nb in adj.items()}
    remove(sub, v)
    return _dj(sub, dict(w), banned - {v}, k, todo, size + 1, weight * w[v])


def _dj(
    adj: Adjacency, w: dict, banned: set, k: int, todo: tuple = (), size: int = 0, weight: int = 1
) -> CountPair:
    # this call owns adj, w and banned and edits them in place. It carries
    # the ``size`` vertices of product ``weight`` taken on the way here, so
    # k - size is what is left to take, and each leaf's pair (size, weight)
    # is a whole solution class, which collects in acc. A vertex is taken in
    # a child call on copies, or banned as this call goes on; so recursion
    # nests only along takes. Forced picks add to size and weight in place.
    acc = INFEASIBLE
    roots: dict = {}
    acyclic = grow_forest(adj, roots, banned)

    # decide todo first, in order; a ban closing a cycle cuts the rest
    for i, z in enumerate(todo):
        if size > k or not acyclic:
            return acc
        acc = oplus(acc, _take(adj, w, banned, z, k, size, weight, todo[i + 1 :]))
        banned.add(z)
        acyclic = grow_forest(adj, roots, (z,))

    # now the free vertices, the unbanned keys of adj, induce a forest, as
    # the callers check; deleting, banning or contracting them keeps it one
    while True:
        if size > k or not acyclic:
            return acc
        free = _shrink(adj, w, banned)
        if not free:
            return oplus(acc, CountPair(size, weight))

        # a free vertex closing a cycle with the banned set is forced into
        # every solution: a multiple edge into it, or two edges into one
        # banned tree. tree_roots reads banned edges only, so taking one at
        # once leaves the verdict on the others as it was
        banned_nbrs = {}
        for v in free:
            trees = tree_roots(adj, roots, v)
            if trees is None:
                size += 1
                weight *= w[v]
                remove(adj, v)
            else:
                banned_nbrs[v] = len(trees)
        if len(banned_nbrs) < len(free):
            continue

        # branch on a vertex with two banned neighbours or, failing that, on
        # an internal vertex of a tree of H = G - banned whose H-neighbours
        # are all leaves except at most one; every tree of H has one
        v = next((v for v in free if banned_nbrs[v] >= 2), None)
        children = ()
        if v is None:
            hdeg = {v: sum(m for u, m in adj[v].items() if u not in banned) for v in free}
            for v in free:
                if hdeg[v] >= 2 and sum(1 for u in adj[v] if u not in banned and hdeg[u] >= 2) <= 1:
                    break
            else:
                raise RuntimeError("branching invariant violated: no internal tree vertex")
            # no free vertex here is forced or touches two banned trees, and
            # _shrink left none of degree <= 1 and no free degree-2 path: so
            # a leaf of H has one edge to v and one banned, and v has at
            # least 2 - b leaves (with b = 0 and hdeg 2, v and a leaf would
            # form such a path). Fewer would still count exactly, only under
            # a weaker bound on the search
            children = [c for c in adj[v] if c not in banned and hdeg[c] == 1][: 2 - banned_nbrs[v]]

        # v enters the solution, or joins the banned side with its children,
        # each of which may instead be taken: every cycle through two of
        # them runs through v, so {v} beats both
        acc = oplus(acc, _take(adj, w, banned, v, k, size, weight))
        banned.update((v, *children))
        for c in children:
            acc = oplus(acc, _take(adj, w, banned, c, k, size, weight))
        acyclic = grow_forest(adj, roots, (v, *children))


def _compress(adj: Adjacency, w: dict, z: set, k: int, size: int = 0) -> CountPair:
    """Count on ``adj``, which it edits, with weights ``w``, taking or
    banning each vertex of the feedback vertex set ``z`` first, with
    ``size`` vertices already taken and k - size left to take. The free
    forest is shrunk once, with z banned: a peeled vertex lies on no cycle,
    and a contracted path stays free, whichever vertices of z are taken."""
    _shrink(adj, w, z)
    return _dj(adj, {v: w[v] for v in adj}, set(), k, tuple(sorted(z)), size)


def fvs_compression(
    g: MultiGraph,
    k: int,
    fvs: Iterable[VertexId],
    weights: Optional[Mapping[VertexId, int]] = None,
) -> CountPair:
    """Count minimum feedback vertex sets of size at most k, given any
    feedback vertex set ``fvs`` of g.

    Every solution is split into its intersection with ``fvs`` and a part
    disjoint from it, so taking or banning each vertex of ``fvs`` yields
    (feedback vertex number, #minFVS(g, k)), or the infeasible pair when
    the feedback vertex number exceeds k. With ``weights`` (a positive
    integer per vertex; None means unit weights) each minimum set counts
    the product of its vertices' weights.
    """
    z = set(fvs)
    adj, w = _checked(g, z, weights)
    check_k(k)
    return _compress(adj, w, z, k)


def _fold_pearls(adj: Adjacency, w: dict) -> int:
    """Fold every pearl of the graph with adjacency map ``adj`` into the
    weight of its hub, in place; returns the number of pearls folded.

    A pearl is a pair (a, b) of unit-weight vertices where b's only edge
    is a double edge to a, and a has exactly two neighbours, b and a hub
    h, both joined by double edges; the chain gadgets hang p pearls on a
    hub. Every feedback vertex set takes a, or both b and h, and a
    minimum one never takes both a and b. So the minimum sets of the
    graph are exactly S + {a} and, when S holds h, S + {b}, for S a
    minimum set of the graph less a and b: one more vertex, and sets that
    hold h count twice. The fold deletes a and b and doubles h's weight,
    and a hub with p pearls ends as one vertex of weight 2**p.

    Each vertex is tried as a once. A fold changes the edges of no vertex
    but its hub, whose weight it raises, so a unit-weight a and b still
    have the graph's own edges, and a hub whose degree fell to two is
    never taken for a pendant b.
    """
    folded = 0
    for a in list(adj):
        nb = adj.get(a)
        if nb is None or w[a] != 1 or len(nb) != 2 or sum(nb.values()) != 4:
            continue
        nbrs = sorted(nb)
        for b, h in (nbrs, nbrs[::-1]):
            if w[b] == 1 and sum(adj[b].values()) == 2 and nb[h] == 2:
                remove(adj, a)
                remove(adj, b)
                w[h] *= 2
                folded += 1
                break
    return folded


def count_min_fvs_pair(g: MultiGraph, k: int) -> CountPair:
    """(feedback vertex number, #minFVS(g, k)) via approximation plus
    compression; infeasible pair when no solution of size <= k exists.

    Pearls are folded into hub weights first (see :func:`_fold_pearls`),
    and the folded pearls start the counter's size, so a chain-gadget
    instance is counted with k minus the number of pearls left to take,
    not at the raised parameter the gadgets spent on them. The fold and
    the compression share one copy of g's map, with no entry check: the
    weights are built here, and ``approx_fvs`` raises unless it returns an
    FVS of what it reads, that copy or, when nothing was folded, g itself.
    """
    check_k(k)
    adj = g.adjacency()
    w = dict.fromkeys(adj, 1)
    folded = _fold_pearls(adj, w)
    z = approx_fvs(MultiGraph._from_checked(adj) if folded else g)
    if len(z) > APPROX_RATIO * (k - folded):
        # the approximation is within factor APPROX_RATIO of optimum, so
        # the pearls and a minimum set of the rest exceed k
        return INFEASIBLE
    return _compress(adj, w, set(z), k, folded)


def count_min_fvs(g: MultiGraph, k: int) -> int:
    """Number of minimum feedback vertex sets of g of size at most k."""
    return count_min_fvs_pair(g, k).count
