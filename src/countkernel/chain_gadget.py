"""Replacement of long chains by compact gadgets that preserve the number
of minimum feedback vertex sets.

A chain of L degree-2 vertices is split into subpaths whose sizes are the
distinct powers of two summing to L. A subpath of size 2^p becomes a hub
vertex w wired to the two flanking attachment points (a double edge when
they coincide) plus p pearl pairs (a_i, b_i), each pair tied to w and to
each other by double edges. Picking w breaks the flank cycle and leaves
2^p ways to clear the pairs; avoiding w forces all a_i; overall exactly as
many minimum solutions as the original chain offered, at a parameter
raised by p. The counter folds the pearls back into a hub weight of 2^p
(``fvs_count._fold_pearls``), so a gadget instance is counted at the k the
chains were replaced at, not at the raised parameter.
"""

from __future__ import annotations

from .multigraph import Chain, Marker, MultiGraph


#: Sentinel: some chain exceeds the replacement threshold.
TOO_LONG = Marker("TOO_LONG")


def power_decompose(n: int) -> list[int]:
    """Distinct exponents p with sum(2**p) == n, in descending order."""
    if n < 1:
        raise ValueError(f"cannot decompose {n} into powers of two")
    return [p for p in range(n.bit_length() - 1, -1, -1) if n >> p & 1]


def _flanked_path(chain: Chain):
    """Return (left attachment, vertices to replace, right attachment) for
    a chain; the attachments are its sorted endpoints, one vertex when both
    ends of the chain hang on it."""
    path = chain.path
    if not chain.endpoints:
        # free-standing cycle: its smallest vertex becomes the shared
        # endpoint and the rest of the ring is replaced
        return path[0], path[1:], path[0]
    return chain.endpoints[0], path, chain.endpoints[-1]


def _replace(g: MultiGraph, chains: list[Chain], k: int) -> tuple[MultiGraph, int]:
    """Replace the given chains of g by their gadgets in one rebuild: drop
    every replaced vertex, then append the gadgets with one running
    fresh-id counter starting at ``g.next_vertex_id``."""
    flanked = [_flanked_path(c) for c in chains]
    gone = {v for _, replaced, _ in flanked for v in replaced}
    vertices = [v for v in g.vertices if v not in gone]
    edges = [(u, v, m) for u, v, m in g.edges() if u not in gone and v not in gone]
    fresh = g.next_vertex_id

    for left, replaced, right in flanked:
        prev = left
        for p in power_decompose(len(replaced)):
            hub = fresh
            fresh += 1
            vertices.append(hub)
            edges.append((prev, hub, 1))
            for _ in range(p):
                a, b = fresh, fresh + 1
                fresh += 2
                vertices.extend((a, b))
                edges.append((hub, a, 2))
                edges.append((a, b, 2))
            k += p
            prev = hub
        edges.append((prev, right, 1))

    return MultiGraph(vertices, edges), k


def replace_chain(g: MultiGraph, chain: Chain, k: int) -> tuple[MultiGraph, int]:
    """Replace one chain of g by its gadget; returns the new graph and the
    raised parameter.

    The graph outside the chain and the chain's outside neighborhood are
    untouched, and the number of minimum FVSs of size at most k in g equals
    that of size at most k' in the result.
    """
    match = None
    for c in g.chains():
        if frozenset(c.path) == frozenset(chain.path):
            match = c
            break
    if match is None or frozenset(match.endpoints) != frozenset(chain.endpoints):
        raise ValueError("the given chain is not a chain of this graph")
    return _replace(g, [match], k)


def replace_all_chains(g: MultiGraph, k: int, threshold: int):
    """Replace every chain of g, or return TOO_LONG if any chain has more
    than ``threshold`` vertices (the caller should then count directly).

    The result equals replacing the chains one at a time with
    :func:`replace_chain`, in ``g.chains()`` order.
    """
    if threshold < 1:
        raise ValueError("threshold must be a positive integer")
    todo = g.chains()
    if any(len(c.path) > threshold for c in todo):
        return TOO_LONG
    return _replace(g, todo, k)
