from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import countkernel
from countkernel import TOO_LONG, TRIVIALLY_ZERO, Chain, MultiGraph, brute_min_fvs, chain_gadget, reduce
from countkernel.ds_gadget import find_wide_diamonds, replace_all_wide_diamonds, replace_wide_diamond
from countkernel.generators import cycle_graph, diamond_host, theta_graph
from countkernel.multigraph import find_root, grow_forest, link, peel, runs, tree_roots

from conftest import chained_multigraphs, components, multi_diamond_host, multigraphs, without


def chains_reference(g: MultiGraph) -> list[Chain]:
    """chains() as the components of the degree-2 vertices, each walked
    from its smaller end (a cycle from its smallest vertex) by taking the
    smallest neighbour in the component other than the one just left."""
    deg2 = {v for v in g.vertices if g.degree(v) == 2}
    out = []
    adj = g.adjacency()
    for comp in components(g, deg2):
        comp_set = set(comp)
        inner_deg = {v: sum(m for n, m in adj[v].items() if n in comp_set) for v in comp}
        ends = [v for v in comp if inner_deg[v] <= 1]
        start = min(ends) if ends else comp[0]
        stop = None if ends else start
        path, prev = [start], None
        while True:
            nxt = [n for n in g.neighbors(path[-1]) if n in comp_set and n != prev]
            if not nxt or nxt[0] == stop:
                break
            prev = path[-1]
            path.append(nxt[0])
        endpoints = sorted({n for v in comp for n in g.neighbors(v) if n not in comp_set})
        out.append(Chain(tuple(path), tuple(endpoints)))
    return out


@st.composite
def reordered(draw, graphs):
    """A graph of ``graphs`` rebuilt from its edges in a random order and
    orientation, so that neighbour order differs from vertex order."""
    g = draw(graphs)
    edges = draw(st.permutations(g.edges()))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return MultiGraph(g.vertices, [(v, u, m) if f else (u, v, m) for (u, v, m), f in zip(edges, flips)])


def test_construction_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        MultiGraph([1], [(1, 1)])


def test_construction_rejects_unknown_endpoints():
    with pytest.raises(ValueError, match="outside the vertex set"):
        MultiGraph([1, 2], [(1, 3)])


def test_construction_rejects_bad_multiplicity():
    with pytest.raises(ValueError, match="multiplicity"):
        MultiGraph([1, 2], [(1, 2, 0)])
    for mult in (1.5, 2.0, True):
        with pytest.raises(ValueError, match=f"non-integer multiplicity {mult!r}"):
            MultiGraph([1, 2, 3], [(1, 2, mult)])


def test_construction_rejects_non_int_ids():
    # a bool equals an int, so it would pass the membership test and merge
    # into that vertex's entries; a str id breaks next_vertex_id later
    for vertices in ([1, True, 3], [1.0, 2], ["a", "b"], [1, "b"]):
        with pytest.raises(ValueError, match="vertex .* is not an int"):
            MultiGraph(vertices, [])
    for edge in ((True, 2), (1, 2.0, 1), ("1", 2)):
        with pytest.raises(ValueError, match="endpoint that is not an int"):
            MultiGraph([1, 2, 3], [edge])


def test_duplicate_edge_entries_accumulate():
    g = MultiGraph([1, 2], [(1, 2), (2, 1, 2)])
    assert g.adjacency()[1].get(2, 0) == 3


def test_degree_counts_multiplicity():
    g = MultiGraph([1, 2], [(1, 2, 2)])
    assert g.degree(1) == 2
    assert g.degree(2) == 2


def test_degree_isolated_and_triangle():
    g = MultiGraph([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)])
    assert g.degree(4) == 0
    assert g.degree(2) == 2


def test_degree_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex"):
        cycle_graph(3).degree(9)


def test_v_neq2_examples():
    assert cycle_graph(8).v_neq2() == set()
    star = MultiGraph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
    assert star.v_neq2() == {1, 2, 3, 4}
    assert theta_graph(2, 3, 4).v_neq2() == {1, 2}


def test_chains_full_cycle():
    (chain,) = cycle_graph(8).chains()
    assert len(chain.path) == 8
    assert chain.endpoints == ()


def test_chains_theta():
    chains = theta_graph(2, 3, 4).chains()
    assert [len(c.path) for c in chains] == [1, 2, 3]
    assert all(c.endpoints == (1, 2) for c in chains)


def test_chains_none_on_matching():
    g = MultiGraph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert g.chains() == []


def test_chains_path_order_is_adjacent():
    g = theta_graph(5, 6, 7)
    for chain in g.chains():
        assert len(set(chain.path)) == len(chain.path)
        for a, b in zip(chain.path, chain.path[1:]):
            assert g.adjacency()[a].get(b, 0) >= 1


@given(multigraphs())
def test_degree_sum_is_twice_multiplicity(g: MultiGraph):
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.total_multiplicity


@given(multigraphs())
def test_chains_partition_degree_two_vertices(g: MultiGraph):
    covered = [v for chain in g.chains() for v in chain.path]
    assert sorted(covered) == sorted(set(g.vertices) - g.v_neq2())
    assert len(covered) == len(set(covered))


@given(multigraphs())
def test_chain_endpoints_are_outside_neighbors(g: MultiGraph):
    for chain in g.chains():
        body = set(chain.path)
        outside = {n for v in body for n in g.neighbors(v) if n not in body}
        assert set(chain.endpoints) == outside
        assert len(chain.endpoints) <= 2


@settings(max_examples=300)
@given(reordered(st.one_of(multigraphs(), chained_multigraphs(max_vertices=40))))
@example(MultiGraph([1, 2, 3, 4, 5], [(5, 4, 2), (1, 2), (2, 3), (3, 1)]))  # C_2 + C_3
@example(MultiGraph([1, 2, 3, 4], [(2, 1, 2), (2, 3), (3, 4), (4, 2)]))  # 1 hangs on 2
def test_chains_match_reference(g: MultiGraph):
    assert g.chains() == chains_reference(g)


@given(multigraphs())
def test_has_cycle_within_matches_induced_forest(g: MultiGraph):
    # the oracle's union-find is independent of has_cycle_within
    vs = list(g.vertices)
    half = set(vs[: len(vs) // 2])
    for sub in (half, vs):
        induced = without(g, set(vs).difference(sub))
        assert g.has_cycle_within(sub) == (brute_min_fvs(induced, 0).size != 0)


def test_tree_roots_and_grow_forest_contract():
    # members 1-2 and 3 form two trees; 5 has a double edge into {3}, 6 two
    # edges into {1, 2}, 4 no member neighbour and 7 one edge into each tree
    g = MultiGraph(
        range(1, 8),
        [(1, 2, 1), (3, 5, 2), (1, 6, 1), (2, 6, 1), (4, 5, 1), (1, 7, 1), (3, 7, 1)],
    )
    adj = g.adjacency()
    parent: dict = {}
    assert grow_forest(adj, parent, [1, 2, 3])
    before = dict(parent)
    for v in (5, 6):
        assert tree_roots(adj, parent, v) is None
        assert not grow_forest(adj, parent, [v])
        assert parent == before
    assert tree_roots(adj, parent, 4) == set()
    assert tree_roots(adj, parent, 7) == {find_root(parent, 1), find_root(parent, 3)}
    # growing stops at the first vertex closing a cycle; it and the ones
    # after it stay out
    assert not grow_forest(adj, parent, [4, 6, 7])
    assert set(parent) == {1, 2, 3, 4}
    assert grow_forest(adj, parent, [7])
    assert find_root(parent, 1) == find_root(parent, 3) == find_root(parent, 7)


@given(multigraphs(), st.data())
def test_peel_spares_keep(g: MultiGraph, data):
    keep = data.draw(st.sets(st.sampled_from(g.vertices)) if g.vertices else st.just(set()))
    adj = g.adjacency()
    peel(adj, [v for v in g.vertices if v not in keep and g.degree(v) <= 1], keep)
    assert keep <= set(adj)
    assert all(sum(adj[v].values()) >= 2 for v in adj if v not in keep)


@given(multigraphs(), st.randoms(use_true_random=False))
def test_peel_of_low_vertices_is_r2_in_any_order(g: MultiGraph, rng):
    low = [v for v in g.vertices if g.degree(v) <= 1]
    rng.shuffle(low)
    adj = g.adjacency()
    peel(adj, low)
    assert without(g, set(g.vertices) - set(adj)) == reduce.apply_r2(g)


@given(st.one_of(multigraphs(), chained_multigraphs(max_vertices=40)), st.data())
def test_runs_cover_each_component_of_inner_in_map_order(g: MultiGraph, data):
    adj = g.adjacency()
    deg2 = {v for v in g.vertices if g.degree(v) == 2}
    # a subset of the degree-2 vertices, as the counter passes: ends may
    # then hold degree-2 vertices outside it
    some = data.draw(st.sets(st.sampled_from(sorted(deg2))) if deg2 else st.just(set()))
    for inner in (deg2, some):
        found = []
        for path, ends in runs(adj, inner):
            assert len(set(path)) == len(path)
            assert all(b in adj[a] for a, b in zip(path, path[1:]))
            assert ends == {u for v in path for u in adj[v] if u not in inner}
            if all(set(adj[v]) <= set(path) for v in path):
                # a cycle component comes back whole, closing on itself
                assert not ends and path[0] in adj[path[-1]]
            found.append(tuple(sorted(path)))
        assert found == components(g, inner)
        assert adj == g.adjacency()


def test_link_adds_parallel_edges_and_appends_new_vertices():
    adj = MultiGraph([1, 2], [(1, 2)]).adjacency()
    link(adj, 2, 1)
    link(adj, 1, 2, 2)
    assert adj == {1: {2: 4}, 2: {1: 4}}
    link(adj, 1, 9)
    link(adj, 7, 8, 2)
    link(adj, 9, 2)
    assert list(adj) == [1, 2, 9, 7, 8]
    assert list(adj[1]) == [2, 9] and list(adj[2]) == [1, 9]
    assert adj[7] == {8: 2} and adj[8] == {7: 2} and adj[9] == {1: 1, 2: 1}


def assert_checked(h: MultiGraph) -> None:
    """``h``, which a stage wrapped unchecked, is the graph the checking
    constructor builds from its own vertices and edges, and both answer
    the queries that read the map as their definitions from ``edges()``."""
    rebuilt = MultiGraph(h.vertices, h.edges())
    assert h.vertices == tuple(sorted(h.vertices))
    assert h == rebuilt and hash(h) == hash(rebuilt)
    edges = h.edges()
    degree = dict.fromkeys(h.vertices, 0)
    for u, v, m in edges:
        degree[u] += m
        degree[v] += m
    for g in (h, rebuilt):
        assert g.num_vertices == len(degree)
        assert g.next_vertex_id == max(degree, default=0) + 1
        assert g.is_simple == all(m == 1 for _, _, m in edges)
        assert g.total_multiplicity == sum(m for _, _, m in edges)
        assert g.v_neq2() == {v for v, d in degree.items() if d != 2}


@settings(deadline=None)
@given(chained_multigraphs(max_vertices=40), st.integers(0, 3))
def test_unchecked_wraps_keep_the_constructor_contract(g: MultiGraph, k: int):
    r1 = reduce.apply_r1(g)
    wraps = [r1, reduce.apply_r2(g), chain_gadget.replace_all_chains(r1, k, g.num_vertices + 1)[0]]
    for v in sorted(reduce.approx_fvs(r1)):
        wraps.append(reduce.degree_reduce(r1, k, v, reduce.approx_fvs(r1, forbidden=v)))
    kern = reduce.kernelize_fvs(g, k)
    if kern is not TRIVIALLY_ZERO:
        wraps.append(kern[0])
        wraps.append(chain_gadget.replace_all_chains(kern[0], k, g.num_vertices + 1)[0])
    for h in wraps:
        assert_checked(h)


def test_diamond_splice_keeps_the_constructor_contract():
    for size in range(5, 13):
        g = diamond_host(size)
        (diamond,) = find_wide_diamonds(g)
        assert_checked(replace_wide_diamond(g, diamond, 1)[0])
    for seed in range(20):
        assert_checked(replace_all_wide_diamonds(multi_diamond_host(seed), 1)[0])


def test_sentinels_are_named_singletons():
    assert chain_gadget.TOO_LONG is countkernel.TOO_LONG
    assert reduce.TRIVIALLY_ZERO is countkernel.TRIVIALLY_ZERO
    assert TOO_LONG is not TRIVIALLY_ZERO
    assert repr(TOO_LONG) == "TOO_LONG"
    assert repr(TRIVIALLY_ZERO) == "TRIVIALLY_ZERO"
