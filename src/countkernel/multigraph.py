"""Undirected multigraphs with edge multiplicities, the structural queries
(degrees, chains, components, induced subgraphs) used throughout the
package, and what algorithms on a mutable adjacency map share with them:
a union-find over an induced forest (``find_root``), the probe
``tree_roots`` that tells whether a vertex would close a cycle with it and
which of its trees the vertex touches, ``grow_forest`` built on that probe,
and the path ``walk``.

Graphs are immutable after construction: deleting vertices returns a new
graph, so instances can be shared freely. Parallel edges are allowed and
an edge of multiplicity two counts as a cycle of length two; self-loops
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


def tree_roots(adj: dict, parent: dict, v: VertexId) -> Optional[set]:
    """Roots of the trees of ``parent``, a union-find over the members of an
    induced forest of the graph with adjacency map ``adj``, that the
    non-member ``v`` has edges into; None when ``v`` would close a cycle
    with them: a multiple edge into a tree, or two edges into one tree."""
    roots = set()
    for u, mult in adj[v].items():
        if u in parent:
            root = find_root(parent, u)
            if mult >= 2 or root in roots:
                return None
            roots.add(root)
    return roots


def grow_forest(adj: dict, parent: dict, vertices: Iterable[VertexId]) -> bool:
    """Add the distinct ``vertices``, in order, to ``parent``, a union-find
    over the members of an induced forest of the graph with adjacency map
    ``adj``, joining each to the trees it touches. False at the first
    vertex that would close a cycle (a multiplicity-2 edge is a 2-cycle);
    that vertex and the ones after it stay out of ``parent``."""
    for v in vertices:
        roots = tree_roots(adj, parent, v)
        if roots is None:
            return False
        parent[v] = v
        for root in roots:
            parent[root] = v
    return True


def walk(
    adj: dict, inner: set, start: VertexId, prev: Optional[VertexId] = None
) -> list[VertexId]:
    """Vertices of ``inner`` from ``start`` to one end of its path in the
    graph with adjacency map ``adj``, leaving ``start`` away from ``prev``;
    every vertex of ``inner`` has at most two neighbours in it. A path that
    closes back on ``start`` (a cycle) stops before repeating it."""
    path = [start]
    while True:
        nxt = next((u for u in adj[path[-1]] if u != prev and u in inner), None)
        if nxt is None or nxt == start:
            return path
        prev = path[-1]
        path.append(nxt)


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

    def connected_components(self) -> list[tuple[VertexId, ...]]:
        """Vertex sets of the connected components, each sorted, ordered by
        smallest member."""
        seen: set[VertexId] = set()
        comps = []
        for start in self._vertices:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for y in self._adj[x]:
                    if y not in seen:
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
        adj = self._adj
        deg2 = {v for v, nb in adj.items() if sum(nb.values()) == 2}
        seen: set[VertexId] = set()
        out = []
        for z in self._vertices:
            if z not in deg2 or z in seen:
                continue
            # z is the smallest vertex of its chain, which may run on
            # both sides of it
            ahead = walk(adj, deg2, z)
            if len(ahead) > 2 and z in adj[ahead[-1]]:
                # the run closed back on z, a cycle component; both walk
                # directions exist, pick the smaller second vertex
                path = ahead if ahead[1] < ahead[-1] else ahead[:1] + ahead[:0:-1]
            else:
                back = walk(adj, deg2, z, ahead[1] if len(ahead) > 1 else None)
                path = back[:0:-1] + ahead
                if path[-1] < path[0]:
                    path.reverse()
            seen.update(path)
            # only the two ends have edges leaving the chain, and every such
            # edge goes to a vertex of degree other than two
            endpoints = {u for v in (path[0], path[-1]) for u in adj[v] if u not in deg2}
            out.append(Chain(tuple(path), tuple(sorted(endpoints))))
        return out

    # -- derived graphs ----------------------------------------------------

    def induced(self, keep: Iterable[VertexId]) -> "MultiGraph":
        """Subgraph induced by ``keep``, neighbors in increasing order as
        from sorted edges, since the counter's branch order follows them."""
        keep = set(keep)
        for v in keep:
            self._require(v)
        g = MultiGraph.__new__(MultiGraph)
        g._vertices = tuple(v for v in self._vertices if v in keep)
        g._adj = {
            v: {u: self._adj[v][u] for u in sorted(self._adj[v]) if u in keep}
            for v in g._vertices
        }
        return g

    def delete_vertices(self, remove: Iterable[VertexId]) -> "MultiGraph":
        """Graph with the vertices in ``remove`` (and their edges) deleted."""
        remove = set(remove)
        for v in remove:
            self._require(v)
        return self.induced(set(self._vertices) - remove)
