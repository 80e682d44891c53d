"""Undirected multigraphs with edge multiplicities, the structural queries
(degrees, chains, cycles within a vertex set) used throughout the package,
and the helpers that algorithms on a mutable vertex -> {neighbour:
multiplicity} map share: the union-find ``find_root``, the cycle probe
``tree_roots`` and ``grow_forest`` (reverse deletion, degree reduction, the
counter); the edge insert ``link`` (the gadget splices, the local ratio's
path cutting, the counter), the vertex delete ``remove`` (the gadget
splices, the forced peel, the counter) and the degree-at-most-1 worklist
``peel`` (R2, the local ratio, the counter); and the maximal-path scanner
``runs`` (``chains()``, the local ratio's path cutting and semidisjoint
cycles, the counter's path contraction).

Graphs are never edited after construction, so instances can be shared
freely: a stage that changes a graph edits a map of its own and wraps it.
Parallel edges are allowed and an edge of multiplicity two counts as a cycle
of length two; self-loops are rejected. The constructor checks every vertex
and edge of the graphs from Python callers and the generators. Pipeline
stages build the map they need with this toolkit and wrap it unchecked, so
each graph is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Optional

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


def link(adj: dict, u: VertexId, v: VertexId, mult: int = 1) -> None:
    """Add ``mult`` parallel edges {u, v} to the adjacency map ``adj``; an
    endpoint not yet in ``adj`` is added at its end, ``u`` first."""
    nu = adj.setdefault(u, {})
    nv = adj.setdefault(v, {})
    nu[v] = nu.get(v, 0) + mult
    nv[u] = nv.get(u, 0) + mult


def remove(adj: dict, v: VertexId) -> dict:
    """Delete ``v`` and its edges from the adjacency map ``adj``; returns
    v's neighbour -> multiplicity map."""
    nb = adj.pop(v)
    for u in nb:
        del adj[u][v]
    return nb


def peel(adj: dict, low: Iterable[VertexId], keep: Container = ()) -> None:
    """Delete the queued vertices ``low`` from the adjacency map ``adj``,
    then every vertex outside ``keep`` that this leaves with degree at most
    one, until none is left. With every vertex of degree at most one queued
    and nothing kept, what remains is the 2-core, whatever the queue order."""
    low = list(low)
    while low:
        v = low.pop()
        if v in adj:
            for u in remove(adj, v):
                nb = adj[u]
                if len(nb) < 2 and sum(nb.values()) <= 1 and u not in keep:
                    low.append(u)


def _away(adj: dict, left: set, v: VertexId) -> list[VertexId]:
    """The vertices of ``left`` from ``v``'s first neighbour in it onwards,
    each step to the first neighbour still in ``left``; each is discarded
    from ``left`` as it is reached."""
    path = []
    while True:
        for u in adj[v]:
            if u in left:
                break
        else:
            return path
        left.discard(u)
        path.append(u)
        v = u


def runs(adj: dict, inner: set) -> Iterator[tuple[list[VertexId], set]]:
    """The maximal paths of ``inner`` in the graph with adjacency map
    ``adj``, one per component, in map order of their first key; every
    vertex of ``inner`` has at most two neighbours in it. Yields
    ``(path, ends)``: ``path`` runs from one end to the other, and ``ends``
    holds the vertices outside ``inner`` that its two ends have edges to. A
    cycle of ``inner`` comes back whole, with empty ``ends``."""
    left = set(inner)
    for z in adj:
        if z in left:
            left.discard(z)
            path = _away(adj, left, z)[::-1] + [z] + _away(adj, left, z)
            # only the ends have edges leaving the path
            ends = {u for v in (path[0], path[-1]) for u in adj[v] if u not in inner}
            yield path, ends


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

    The graph is its vertex -> {neighbour: multiplicity} map, keys in
    increasing order: every query reads it, and wrapping a checked map is
    O(1). The one other slot, ``_cut``, keeps the local ratio's path-cut
    copy of that map (see :func:`countkernel.reduce.approx_fvs`) once a
    call has made it; since the map never changes, neither does the cut.
    """

    __slots__ = ("_adj", "_cut")

    def __init__(
        self,
        vertices: Iterable[VertexId] = (),
        edges: Iterable[tuple] = (),
    ):
        """Build a graph from int vertices and ``(u, v)`` or ``(u, v, mult)``
        edge entries. Repeated pairs accumulate their multiplicities.
        """
        vs = list(vertices)
        if not {int}.issuperset(map(type, vs)):
            bad = next(v for v in vs if type(v) is not int)
            raise ValueError(f"vertex {bad!r} is not an int")
        vs = sorted(set(vs))
        adj: dict[VertexId, dict[VertexId, int]] = {v: {} for v in vs}
        for entry in edges:
            if len(entry) == 2:
                u, v = entry
                mult = 1
            else:
                u, v, mult = entry
            if not (type(u) is type(v) is type(mult) is int):
                if type(u) is not int or type(v) is not int:
                    raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
                raise ValueError(f"edge ({u}, {v}) has non-integer multiplicity {mult!r}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            try:
                nu, nv = adj[u], adj[v]
            except KeyError:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set") from None
            if mult < 1:
                raise ValueError(f"edge ({u}, {v}) has non-positive multiplicity {mult}")
            nu[v] = nu.get(v, 0) + mult
            nv[u] = nv.get(u, 0) + mult
        self._adj = adj
        self._cut = None

    @classmethod
    def _from_checked(cls, adj: dict[VertexId, dict[VertexId, int]]) -> "MultiGraph":
        """The graph owning ``adj``, a map its caller built and checked: int
        keys increasing, symmetric, no self-loops, positive int multiplicities.
        Neighbour order is kept, since the counter's branch order follows it."""
        g = cls.__new__(cls)
        g._adj = adj
        g._cut = None
        return g

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

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

    def edges(self) -> list[tuple[VertexId, VertexId, int]]:
        """All edges as (u, v, mult) with u < v, sorted."""
        out = []
        for u, nb in self._adj.items():
            for v, mult in nb.items():
                if u < v:
                    out.append((u, v, mult))
        out.sort()
        return out

    @property
    def total_multiplicity(self) -> int:
        return sum(sum(nb.values()) for nb in self._adj.values()) // 2

    @property
    def is_simple(self) -> bool:
        return all(m == 1 for nb in self._adj.values() for m in nb.values())

    @property
    def next_vertex_id(self) -> VertexId:
        """Smallest id never used by this graph; fresh vertices start here."""
        return next(reversed(self._adj)) + 1 if self._adj else 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        return hash((self.vertices, tuple(self.edges())))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.num_vertices}, edges={self.edges()!r})"

    # -- structure -------------------------------------------------------

    def v_neq2(self) -> set[VertexId]:
        """Vertices whose degree differs from two."""
        return {v for v, nb in self._adj.items() if sum(nb.values()) != 2}

    def has_cycle_within(self, subset: Iterable[VertexId]) -> bool:
        """True iff the subgraph induced by ``subset`` contains a cycle,
        without materializing the subgraph."""
        return not grow_forest(self._adj, {}, set(subset))

    def chains(self) -> list[Chain]:
        """Chains of the graph: connected components of G - V_neq2(G), in
        order of smallest contained vertex id.

        The path of a cycle component starts at its smallest vertex and
        proceeds toward that vertex's smallest neighbor; the path of a
        non-cycle component starts at its smaller end vertex.
        """
        adj = self._adj
        deg2 = {v for v, nb in adj.items() if sum(nb.values()) == 2}
        out = []
        # every edge leaving a chain goes to a vertex of degree other than two
        for path, endpoints in runs(adj, deg2):
            if path[-1] < path[0]:
                path.reverse()
            if not endpoints and path[-1] < path[1]:
                # a cycle, from its smallest vertex z; turn it toward the
                # smaller of z's two neighbours
                path[1:] = path[:0:-1]
            out.append(Chain(tuple(path), tuple(sorted(endpoints))))
        return out
