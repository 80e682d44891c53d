"""Undirected multigraphs with edge multiplicities and the structural
queries (degrees, chains, components, contractions) used throughout the
package.

Graphs are immutable after construction: every mutating operation returns
a new graph, so instances can be shared freely. Parallel edges are allowed
and an edge of multiplicity two counts as a cycle of length two; self-loops
are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

VertexId = int


class Marker:
    """A named sentinel value, compared by identity."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


def find_root(parent: dict, x: VertexId) -> VertexId:
    """Root of ``x`` in the union-find ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def grow_forest(adj: dict, parent: dict, vertices: Iterable[VertexId]) -> bool:
    """Add the distinct ``vertices`` to ``parent``, a union-find over the
    members of an induced forest of the graph with adjacency map ``adj``,
    joining each to its member neighbors. False when the members then
    induce a cycle (a multiplicity-2 edge is a 2-cycle); ``parent`` is then
    only partly updated."""
    for v in vertices:
        parent[v] = v
        for u, mult in adj[v].items():
            if u not in parent:
                continue
            if mult >= 2:
                return False
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


@dataclass(frozen=True)
class Chain:
    """A connected component of G - V_neq2(G).

    ``path`` lists the component's vertices in adjacency order (a cyclic
    order when the component is itself a cycle). ``endpoints`` is the
    sorted outside neighborhood; it is empty exactly when the component is
    a full cycle.
    """

    path: tuple[VertexId, ...]
    endpoints: tuple[VertexId, ...]

    def __len__(self) -> int:
        return len(self.path)


class MultiGraph:
    """Undirected multigraph over integer vertex ids.

    Edges are stored as an unordered-pair -> multiplicity map, so
    multiplicity updates and degree queries are cheap.
    """

    __slots__ = ("_vertices", "_adj")

    def __init__(
        self,
        vertices: Iterable[VertexId] = (),
        edges: Iterable[tuple] = (),
    ):
        """Build a graph from vertices and ``(u, v)`` or ``(u, v, mult)``
        edge entries. Repeated pairs accumulate their multiplicities.
        """
        vs = sorted(set(vertices))
        adj: dict[VertexId, dict[VertexId, int]] = {v: {} for v in vs}
        for entry in edges:
            if len(entry) == 2:
                u, v = entry
                mult = 1
            else:
                u, v, mult = entry
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            if mult < 1:
                raise ValueError(f"edge ({u}, {v}) has non-positive multiplicity {mult}")
            adj[u][v] = adj[u].get(v, 0) + mult
            adj[v][u] = adj[v].get(u, 0) + mult
        self._vertices = tuple(vs)
        self._adj = adj

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: VertexId) -> bool:
        return v in self._adj

    def _require(self, v: VertexId) -> None:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v}")

    def degree(self, v: VertexId) -> int:
        """Number of edge endpoints at ``v``; parallel edges count fully."""
        self._require(v)
        return sum(self._adj[v].values())

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        self._require(v)
        return tuple(sorted(self._adj[v]))

    def adjacency(self) -> dict[VertexId, dict[VertexId, int]]:
        """A fresh vertex -> {neighbor: multiplicity} map of the graph, its
        keys in increasing order, for algorithms that consume or update it
        in place."""
        return {v: dict(nb) for v, nb in self._adj.items()}

    def edge_mult(self, u: VertexId, v: VertexId) -> int:
        """Multiplicity of the edge {u, v}; 0 when absent."""
        self._require(u)
        self._require(v)
        return self._adj[u].get(v, 0)

    def edges(self) -> list[tuple[VertexId, VertexId, int]]:
        """All edges as (u, v, mult) with u < v, sorted."""
        out = []
        for u in self._vertices:
            for v, mult in self._adj[u].items():
                if u < v:
                    out.append((u, v, mult))
        out.sort()
        return out

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, _, m in self.edges())

    @property
    def is_simple(self) -> bool:
        return all(m == 1 for _, _, m in self.edges())

    @property
    def next_vertex_id(self) -> VertexId:
        """Smallest id never used by this graph; fresh vertices start here."""
        return self._vertices[-1] + 1 if self._vertices else 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __hash__(self):
        return hash((self._vertices, tuple(self.edges())))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.num_vertices}, edges={self.edges()!r})"

    # -- structure -------------------------------------------------------

    def is_forest(self) -> bool:
        """True iff the graph is acyclic; a multiplicity-2 edge is a 2-cycle."""
        return not self.has_cycle_within(self._vertices)

    def v_neq2(self) -> set[VertexId]:
        """Vertices whose degree differs from two."""
        return {v for v in self._vertices if self.degree(v) != 2}

    def has_cycle_within(self, subset: Iterable[VertexId]) -> bool:
        """True iff the subgraph induced by ``subset`` contains a cycle,
        without materializing the subgraph."""
        return not grow_forest(self._adj, {}, set(subset))

    def connected_components(
        self, within: Optional[Iterable[VertexId]] = None
    ) -> list[tuple[VertexId, ...]]:
        """Vertex sets of the connected components, each sorted, ordered by
        smallest member; of the subgraph induced by ``within`` when given,
        without materializing it."""
        return self._components(set(self._vertices if within is None else within))

    def _components(self, allowed: set[VertexId]) -> list[tuple[VertexId, ...]]:
        seen: set[VertexId] = set()
        comps = []
        for start in self._vertices:
            if start not in allowed or start in seen:
                continue
            comp = [start]
            seen.add(start)
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for y in self._adj[x]:
                    if y in allowed and y not in seen:
                        seen.add(y)
                        comp.append(y)
                        frontier.append(y)
            comps.append(tuple(sorted(comp)))
        return comps

    def chains(self) -> list[Chain]:
        """Chains of the graph: connected components of G - V_neq2(G), in
        order of smallest contained vertex id.

        The path of a cycle component starts at its smallest vertex and
        proceeds toward that vertex's smallest neighbor; the path of a
        non-cycle component starts at its smaller end vertex.
        """
        deg2 = {v for v in self._vertices if self.degree(v) == 2}
        out = []
        for comp in self._components(deg2):
            comp_set = set(comp)
            inner_deg = {
                v: sum(m for n, m in self._adj[v].items() if n in comp_set)
                for v in comp
            }
            ends = [v for v in comp if inner_deg[v] <= 1]
            if ends:
                path = self._walk(min(ends), comp_set)
            else:
                # cycle component; both walk directions exist, pick the
                # smaller second vertex
                z = comp[0]
                path = self._walk(z, comp_set, stop=z)
            endpoints = sorted(
                {n for v in comp for n in self._adj[v] if n not in comp_set}
            )
            out.append(Chain(tuple(path), tuple(endpoints)))
        return out

    def _walk(self, start, comp_set, stop=None):
        path = [start]
        prev, cur = None, start
        while True:
            nxt = [n for n in sorted(self._adj[cur]) if n in comp_set and n != prev]
            if not nxt or nxt[0] == stop:
                return path
            prev, cur = cur, nxt[0]
            path.append(cur)

    # -- derived graphs ----------------------------------------------------

    def _build(self, vertices, edges) -> "MultiGraph":
        g = MultiGraph.__new__(MultiGraph)
        vs = sorted(vertices)
        adj: dict[VertexId, dict[VertexId, int]] = {v: {} for v in vs}
        for u, v, mult in edges:
            adj[u][v] = adj[u].get(v, 0) + mult
            adj[v][u] = adj[v].get(u, 0) + mult
        g._vertices = tuple(vs)
        g._adj = adj
        return g

    def induced(self, keep: Iterable[VertexId]) -> "MultiGraph":
        """Subgraph induced by ``keep``."""
        keep = set(keep)
        for v in keep:
            self._require(v)
        edges = [(u, v, m) for u, v, m in self.edges() if u in keep and v in keep]
        return self._build(keep, edges)

    def delete_vertices(self, remove: Iterable[VertexId]) -> "MultiGraph":
        """Graph with the vertices in ``remove`` (and their edges) deleted."""
        remove = set(remove)
        for v in remove:
            self._require(v)
        return self.induced(set(self._vertices) - remove)

    def delete_edge_one(self, u: VertexId, v: VertexId) -> "MultiGraph":
        """Decrement the multiplicity of {u, v} by one."""
        if self.edge_mult(u, v) == 0:
            raise ValueError(f"no edge between {u} and {v}")
        edges = []
        for a, b, m in self.edges():
            if {a, b} == {u, v}:
                m -= 1
            if m > 0:
                edges.append((a, b, m))
        return self._build(self._vertices, edges)

    def contract_edge(self, u: VertexId, v: VertexId) -> tuple["MultiGraph", VertexId]:
        """Contract the edge {u, v} into a fresh vertex.

        Edges between u or v and a common neighbor stack up as parallel
        edges of the new vertex; the u-v edges themselves disappear (no
        self-loop is created). Returns the new graph and the fresh vertex.
        """
        if self.edge_mult(u, v) == 0:
            raise ValueError(f"cannot contract non-adjacent pair ({u}, {v})")
        s = self.next_vertex_id
        relabel = {u: s, v: s}
        edges = []
        for a, b, m in self.edges():
            if {a, b} == {u, v}:
                continue
            edges.append((relabel.get(a, a), relabel.get(b, b), m))
        vertices = (set(self._vertices) - {u, v}) | {s}
        return self._build(vertices, edges), s
