"""Deterministic instance generators for tests and the command line.

Randomness comes from a self-contained 64-bit linear congruential generator
(Knuth's MMIX constants) so the same seed yields the same instance in any
language:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

``random_multigraph`` draws endpoint indices as (state >> 32) mod n and
floats as (state >> 11) / 2^53, in the order documented in its body.
"""

from __future__ import annotations

from .multigraph import MultiGraph

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """Deterministic 64-bit linear congruential generator."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish draw from 0..n-1: the top 32 bits modulo n. The low
        bits of a power-of-two-modulus LCG cycle quickly and must not be
        used; the modulo bias of the top bits is irrelevant at these
        sizes and keeps the recipe portable."""
        return (self.next_u64() >> 32) % n

    def unit(self) -> float:
        """Float in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) / float(1 << 53)


def cycle_graph(n: int) -> MultiGraph:
    """Cycle on vertices 1..n; n = 2 gives a double edge."""
    if n < 2:
        raise ValueError("a cycle needs at least two vertices")
    if n == 2:
        return MultiGraph([1, 2], [(1, 2, 2)])
    edges = [(i, i + 1, 1) for i in range(1, n)] + [(n, 1, 1)]
    return MultiGraph(range(1, n + 1), edges)


def path_graph(n: int) -> MultiGraph:
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return MultiGraph(range(1, n + 1), [(i, i + 1, 1) for i in range(1, n)])


def complete_graph(n: int) -> MultiGraph:
    vs = range(1, n + 1)
    return MultiGraph(vs, [(u, v, 1) for u in vs for v in vs if u < v])


def theta_graph(l1: int, l2: int, l3: int) -> MultiGraph:
    """Two branch vertices joined by three internally disjoint paths with
    l1, l2, l3 edges each."""
    lengths = (l1, l2, l3)
    if any(l < 1 for l in lengths):
        raise ValueError("every theta path needs at least one edge")
    vertices = [1, 2]
    edges = []
    fresh = 3
    for length in lengths:
        prev = 1
        for _ in range(length - 1):
            vertices.append(fresh)
            edges.append((prev, fresh, 1))
            prev = fresh
            fresh += 1
        edges.append((prev, 2, 1))
    return MultiGraph(vertices, edges)


def grid_graph(rows: int, cols: int) -> MultiGraph:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    vid = lambda r, c: r * cols + c + 1
    vertices = range(1, rows * cols + 1)
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1))
    return MultiGraph(vertices, edges)


def diamond_host(size: int) -> MultiGraph:
    """Endpoints 1 and 2 plus ``size`` common degree-2 neighbors."""
    if size < 1:
        raise ValueError("a wide diamond needs at least one member")
    members = range(3, size + 3)
    edges = [(1, c, 1) for c in members] + [(2, c, 1) for c in members]
    return MultiGraph([1, 2, *members], edges)


def random_multigraph(n: int, m: int, seed: int, promote2: float = 0.0) -> MultiGraph:
    """Erdos-Renyi-style multigraph on vertices 1..n with m distinct vertex
    pairs as edges, each independently promoted to multiplicity two with
    probability ``promote2``.

    Draw order per accepted or rejected attempt: u = below(n), v = below(n)
    (rejected when u = v or the pair was already chosen); after all m pairs
    are fixed, one unit() draw per pair, in the order the pairs were
    sampled, decides promotion.
    """
    if n < 0 or m < 0:
        raise ValueError("sizes must be nonnegative")
    if m > n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} distinct pairs on {n} vertices")
    if not 0 <= promote2 <= 1:
        raise ValueError(f"promotion probability must be in [0, 1], got {promote2}")
    rng = Lcg(seed)
    chosen: list[tuple[int, int]] = []
    have = set()
    while len(chosen) < m:
        u = 1 + rng.below(n)
        v = 1 + rng.below(n)
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in have:
            continue
        have.add(pair)
        chosen.append(pair)
    edges = []
    for u, v in chosen:
        mult = 2 if rng.unit() < promote2 else 1
        edges.append((u, v, mult))
    return MultiGraph(range(1, n + 1), edges)
