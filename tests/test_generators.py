from __future__ import annotations

import pytest

from countkernel.generators import (
    Lcg,
    cycle_graph,
    diamond_host,
    grid_graph,
    path_graph,
    random_multigraph,
    theta_graph,
)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: path_graph(0), "at least one vertex"),
        (lambda: theta_graph(0, 1, 1), "at least one edge"),
        (lambda: grid_graph(0, 3), "must be positive"),
        (lambda: diamond_host(0), "at least one member"),
        (lambda: random_multigraph(-1, 0, 1), "must be nonnegative"),
    ],
    ids=["path", "theta", "grid", "diamond_host", "random_multigraph"],
)
def test_generators_refuse_empty_or_negative_sizes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_lcg_known_values():
    # frozen so the documented cross-language recipe cannot drift
    rng = Lcg(42)
    assert rng.next_u64() == 10481999410520546993
    assert rng.next_u64() == 4159066171780167020
    rng = Lcg(42)
    assert rng.below(10) == (10481999410520546993 >> 32) % 10 == 9


def test_cycle_shapes():
    assert cycle_graph(2).edges() == [(1, 2, 2)]
    g = cycle_graph(6)
    assert all(g.degree(v) == 2 for v in g.vertices)
    with pytest.raises(ValueError):
        cycle_graph(1)


def test_theta_shape():
    g = theta_graph(1, 2, 2)
    assert g.degree(1) == g.degree(2) == 3
    assert g.num_vertices == 2 + 0 + 1 + 1


def test_grid_shape():
    g = grid_graph(3, 4)
    assert g.num_vertices == 12
    assert g.total_multiplicity == 3 * 3 + 2 * 4  # vertical + horizontal runs


def test_diamond_host_shape():
    g = diamond_host(5)
    assert g.num_vertices == 7
    assert all(g.neighbors(c) == (1, 2) for c in range(3, 8))


def test_random_multigraph_is_deterministic():
    a = random_multigraph(10, 14, 42, promote2=0.4)
    b = random_multigraph(10, 14, 42, promote2=0.4)
    assert a == b


def test_random_multigraph_edge_budget():
    g = random_multigraph(9, 13, 7)
    assert len(g.edges()) == 13
    assert all(m == 1 for _, _, m in g.edges())
    promoted = random_multigraph(9, 13, 7, promote2=1.0)
    assert all(m == 2 for _, _, m in promoted.edges())


@pytest.mark.parametrize("promote2", [-0.1, 1.5, float("nan"), float("inf")])
def test_random_multigraph_rejects_bad_promotion(promote2):
    with pytest.raises(ValueError, match="promotion probability"):
        random_multigraph(3, 3, 1, promote2=promote2)


def test_random_multigraph_rejects_impossible():
    with pytest.raises(ValueError, match="cannot place"):
        random_multigraph(3, 4, 1)
