from __future__ import annotations

from itertools import combinations

import pytest

from countkernel import (
    INFEASIBLE,
    MultiGraph,
    brute_min_ds,
    brute_min_fvs,
    enumerate_min_ds,
    has_k5_or_k33_minor,
)
from countkernel.generators import (
    complete_graph,
    cycle_graph,
    diamond_host,
    grid_graph,
    path_graph,
    random_multigraph,
    theta_graph,
)

from conftest import delete_edge_one


def test_fvs_examples():
    pair = brute_min_fvs(cycle_graph(5), 1)
    assert (pair.size, pair.count) == (1, 5)
    pair = brute_min_fvs(MultiGraph([1, 2], [(1, 2, 2)]), 3)
    assert (pair.size, pair.count) == (1, 2)
    pair = brute_min_fvs(path_graph(4), 0)
    assert (pair.size, pair.count) == (0, 1)


def test_fvs_infeasible_when_budget_too_small():
    assert brute_min_fvs(complete_graph(4), 1) == INFEASIBLE
    assert brute_min_fvs(cycle_graph(3), -1) == INFEASIBLE


def test_fvs_guard():
    with pytest.raises(ValueError, match="refuses graphs"):
        brute_min_fvs(cycle_graph(21), 1)
    # explicit override admits slightly larger instances
    pair = brute_min_fvs(cycle_graph(25), 1, max_vertices=30)
    assert (pair.size, pair.count) == (1, 25)


def test_ds_examples():
    pair = brute_min_ds(MultiGraph([1]), 1)
    assert (pair.size, pair.count) == (1, 1)
    pair = brute_min_ds(diamond_host(5), 2)
    assert (pair.size, pair.count) == (2, 11)


def test_ds_c4_all_pairs_dominate():
    # every one of the six 2-subsets of a 4-cycle dominates it; checked
    # against a from-scratch enumeration written set-wise
    g = cycle_graph(4)
    pair = brute_min_ds(g, 2)
    hits = []
    for combo in combinations(g.vertices, 2):
        covered = set(combo)
        for v in combo:
            covered.update(g.neighbors(v))
        if covered == set(g.vertices):
            hits.append(combo)
    assert len(hits) == 6
    assert (pair.size, pair.count) == (2, 6)


def test_ds_requires_simple_graph():
    with pytest.raises(ValueError, match="simple"):
        brute_min_ds(MultiGraph([1, 2], [(1, 2, 2)]), 1)


def test_ds_guard():
    with pytest.raises(ValueError, match="refuses graphs"):
        brute_min_ds(grid_graph(3, 7), 3)


def test_enumerate_min_ds_matches_count():
    g = diamond_host(6)
    pair = brute_min_ds(g, 4)
    sets = enumerate_min_ds(g, 4)
    assert len(sets) == pair.count
    assert all(len(s) == pair.size for s in sets)
    assert enumerate_min_ds(cycle_graph(6), 1) == []


def test_fvs_matches_ds_on_empty_graph():
    assert brute_min_fvs(MultiGraph(), 0).count == 1
    assert brute_min_ds(MultiGraph(), 0).count == 1


def test_fvs_isomorphism_invariance():
    for seed in range(15):
        g = random_multigraph(8, 11, seed=2_000 + seed, promote2=0.25)
        relabel = {v: 50 - 3 * v for v in g.vertices}
        flipped = MultiGraph(
            [relabel[v] for v in g.vertices],
            [(relabel[u], relabel[v], m) for u, v, m in g.edges()],
        )
        for k in (0, 2, 4):
            assert brute_min_fvs(g, k) == brute_min_fvs(flipped, k)


def test_fvs_edge_deletion_never_raises_optimum():
    for seed in range(15):
        g = random_multigraph(8, 12, seed=3_000 + seed, promote2=0.25)
        base = brute_min_fvs(g, 8).size
        for u, v, _ in g.edges()[:4]:
            smaller = brute_min_fvs(delete_edge_one(g, u, v), 8).size
            assert smaller <= base


def test_minor_k5_and_k33():
    assert has_k5_or_k33_minor(complete_graph(5))
    assert has_k5_or_k33_minor(complete_graph(6))
    k33 = MultiGraph(range(1, 7), [(a, b, 1) for a in (1, 2, 3) for b in (4, 5, 6)])
    assert has_k5_or_k33_minor(k33)


def test_minor_subdivision_detected():
    # subdivide one K33 edge; subdivisions are minors
    edges = [(a, b, 1) for a in (1, 2, 3) for b in (4, 5, 6) if (a, b) != (3, 6)]
    edges += [(3, 7, 1), (7, 6, 1)]
    assert has_k5_or_k33_minor(MultiGraph(range(1, 8), edges))


def test_minor_planar_graphs_clean():
    assert not has_k5_or_k33_minor(path_graph(9))
    assert not has_k5_or_k33_minor(grid_graph(3, 4))
    assert not has_k5_or_k33_minor(theta_graph(2, 3, 4))
    # K5 minus an edge is planar
    edges = [(u, v, 1) for u in range(1, 6) for v in range(u + 1, 6) if (u, v) != (1, 2)]
    assert not has_k5_or_k33_minor(MultiGraph(range(1, 6), edges))


def test_minor_petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    pet = MultiGraph(range(10), [(u, v, 1) for u, v in outer + inner + spokes])
    assert has_k5_or_k33_minor(pet)


def test_minor_ignores_multiplicities():
    doubled = MultiGraph(range(1, 5), [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)])
    assert not has_k5_or_k33_minor(doubled)


def test_minor_guard():
    with pytest.raises(ValueError, match="refuses graphs"):
        has_k5_or_k33_minor(grid_graph(4, 4))
    assert not has_k5_or_k33_minor(grid_graph(4, 4), max_vertices=16)
