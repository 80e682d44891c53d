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

from .multigraph import Chain, Marker, MultiGraph, link, remove


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
    """Replace the given chains of g by their gadgets on one copy of g's
    adjacency map: drop every replaced vertex, then link the gadgets in,
    with one running fresh-id counter starting at ``g.next_vertex_id``."""
    flanked = [_flanked_path(c) for c in chains]
    adj = g.adjacency()
    for _, replaced, _ in flanked:
        for v in replaced:
            remove(adj, v)
    fresh = g.next_vertex_id

    for left, replaced, right in flanked:
        prev = left
        for p in power_decompose(len(replaced)):
            hub = fresh
            link(adj, prev, hub)
            for a in range(hub + 1, hub + 2 * p, 2):
                link(adj, hub, a, 2)
                link(adj, a, a + 1, 2)
            fresh += 2 * p + 1
            k += p
            prev = hub
        link(adj, prev, right)

    return MultiGraph._from_checked(adj), k


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
    if type(threshold) is not int or threshold < 1:
        raise ValueError("threshold must be a positive integer")
    todo = g.chains()
    if any(len(c.path) > threshold for c in todo):
        return TOO_LONG
    return _replace(g, todo, k)
