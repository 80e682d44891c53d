"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from countkernel import MultiGraph
from countkernel.generators import Lcg, random_multigraph


def without(g: MultiGraph, drop) -> MultiGraph:
    """g less the vertices ``drop`` and their edges, rebuilt through the
    validating constructor."""
    drop = set(drop)
    return MultiGraph(
        [v for v in g.vertices if v not in drop],
        [(u, v, m) for u, v, m in g.edges() if u not in drop and v not in drop],
    )


def delete_edge_one(g, u, v):
    """g with one copy of the edge {u, v} removed."""
    edges = [(a, b, m - 1 if {a, b} == {u, v} else m) for a, b, m in g.edges()]
    return MultiGraph(g.vertices, [(a, b, m) for a, b, m in edges if m])


def chain_host(length, endpoint_edge_mult=2):
    """Vertices 1 and 2 tied together directly, plus a chain of ``length``
    between them."""
    vs = [1, 2] + list(range(3, 3 + length))
    edges = [(1, 2, endpoint_edge_mult)]
    prev = 1
    for c in range(3, 3 + length):
        edges.append((prev, c, 1))
        prev = c
    edges.append((prev, 2, 1))
    return MultiGraph(vs, edges)


def is_fvs(g: MultiGraph, s) -> bool:
    """True iff deleting ``s`` from g leaves a forest."""
    return not g.has_cycle_within(set(g.vertices) - set(s))


def components(g: MultiGraph, within) -> list[tuple]:
    """Vertex sets of the connected components of the subgraph of g induced
    by ``within``, each sorted, ordered by smallest member; a union-find over
    g.edges()."""
    parent = {v: v for v in within}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, _ in g.edges():
        if u in parent and v in parent:
            parent[root(u)] = root(v)
    comps: dict = {}
    for v in sorted(parent):
        comps.setdefault(root(v), []).append(v)
    return [tuple(c) for c in comps.values()]


def seeded_corpus(count: int) -> list[MultiGraph]:
    """Deterministic multigraph corpus: n <= 14, m <= 18, multiplicities
    up to 3 (every seventh graph gets one multiplicity-3 edge to exercise
    the capping rule)."""
    graphs = []
    for i in range(count):
        n = 3 + (i * 7) % 12
        m = min((i * 5) % 19, n * (n - 1) // 2)
        g = random_multigraph(n, m, seed=1_000_003 + i, promote2=0.25 if i % 2 else 0.0)
        if i % 7 == 0 and g.edges():
            u, v, _ = g.edges()[0]
            bumped = [(a, b, 3 if (a, b) == (u, v) else mm) for a, b, mm in g.edges()]
            g = MultiGraph(g.vertices, bumped)
        graphs.append(g)
    return graphs


def multi_diamond_host(seed: int) -> MultiGraph:
    """A simple graph with two to five wide diamonds of 1 to 12 members each
    on three to six host vertices, so that diamonds often share an
    endpoint, plus random edges between the host vertices. Two diamonds
    drawn on one pair merge into one."""
    rng = Lcg(seed)
    h = 3 + rng.below(4)
    pairs = [(u, v) for u in range(1, h + 1) for v in range(u + 1, h + 1)]
    vertices = list(range(1, h + 1))
    edges = [pair for pair in pairs if rng.below(3) == 0]
    for _ in range(2 + rng.below(4)):
        u, v = pairs[rng.below(len(pairs))]
        members = range(len(vertices) + 1, len(vertices) + 2 + rng.below(12))
        vertices += members
        edges += [(u, c) for c in members] + [(v, c) for c in members]
    return MultiGraph(vertices, edges)


@pytest.fixture(scope="session")
def small_corpus() -> list[MultiGraph]:
    return seeded_corpus(60)


@st.composite
def multigraphs(draw, max_vertices: int = 9, max_mult: int = 3):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = []
    if pairs:
        chosen = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 14))
        )
        for u, v in chosen:
            mult = draw(st.integers(min_value=1, max_value=max_mult))
            edges.append((u, v, mult))
    return MultiGraph(vertices, edges)


@st.composite
def chained_multigraphs(draw, max_vertices: int = 100):
    """Random multigraphs with edges subdivided into paths and
    free-standing cycles added, so that chains of many lengths and every
    flank kind occur; at most ``max_vertices`` vertices."""
    g = draw(multigraphs(max_vertices=min(7, max_vertices)))
    vertices, edges = list(g.vertices), []
    fresh = g.next_vertex_id
    for u, v, m in g.edges():
        length = draw(st.integers(0, min(6, max_vertices - len(vertices))))
        path = list(range(fresh, fresh + length))
        fresh += length
        vertices += path
        ends = [u, *path, v]
        edges += [(a, b, 1) for a, b in zip(ends, ends[1:])]
        if m > 1:
            edges.append((u, v, m - 1))
    for _ in range(draw(st.integers(0, 2))):
        if max_vertices - len(vertices) < 2:
            break
        length = draw(st.integers(2, min(9, max_vertices - len(vertices))))
        ring = list(range(fresh, fresh + length))
        fresh += length
        vertices += ring
        edges += [(a, b, 1) for a, b in zip(ring, ring[1:] + ring[:1])]
    return MultiGraph(vertices, edges)


@st.composite
def relabelled_chained_multigraphs(draw, max_vertices: int = 48):
    """``chained_multigraphs`` with up to two pendant paths hung on it and
    its ids permuted, so that the smallest id of a path of degree-2
    vertices sits anywhere along it, not only at one end; at most
    ``max_vertices`` vertices."""
    g = draw(chained_multigraphs(max_vertices=max_vertices - 8))
    vertices, edges = list(g.vertices), g.edges()
    fresh = g.next_vertex_id
    for _ in range(draw(st.integers(0, 2)) if vertices else 0):
        path = [draw(st.sampled_from(vertices)), *range(fresh, fresh + draw(st.integers(1, 4)))]
        fresh = path[-1] + 1
        vertices += path[1:]
        edges += [(a, b, 1) for a, b in zip(path, path[1:])]
    ids = dict(zip(vertices, draw(st.permutations(range(1, len(vertices) + 1)))))
    return MultiGraph(ids.values(), [(ids[u], ids[v], m) for u, v, m in edges])
