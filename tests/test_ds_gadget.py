from __future__ import annotations

import pytest

from countkernel import (
    MultiGraph,
    WideDiamond,
    brute_min_ds,
    diamond_observation_check,
    enumerate_min_ds,
    find_wide_diamonds,
    replace_all_wide_diamonds,
    replace_wide_diamond,
    write_instance,
)
from countkernel.generators import complete_graph, cycle_graph, diamond_host

from conftest import multi_diamond_host, without


def test_find_on_c4_two_diamonds():
    found = find_wide_diamonds(cycle_graph(4))
    assert found == [
        WideDiamond((2, 4), (1, 3)),
        WideDiamond((1, 3), (2, 4)),
    ]


def test_find_on_k4_empty():
    assert find_wide_diamonds(complete_graph(4)) == []


def test_find_on_host():
    (d,) = find_wide_diamonds(diamond_host(5))
    assert d.members == (3, 4, 5, 6, 7)
    assert d.endpoints == (1, 2)


def test_find_rejects_multigraph():
    with pytest.raises(ValueError, match="simple"):
        find_wide_diamonds(MultiGraph([1, 2], [(1, 2, 2)]))


def test_replace_small_diamond_unchanged():
    g = diamond_host(4)
    (d,) = find_wide_diamonds(g)
    assert replace_wide_diamond(g, d, 2) == (g, 2)


def test_replace_seven_member_diamond():
    g = diamond_host(7)
    (d,) = find_wide_diamonds(g)
    out, k2 = replace_wide_diamond(g, d, 2)
    assert k2 == 4
    # three kept members plus x_v, x_u and two guarded pairs
    assert out.num_vertices - 2 == 11


def test_replace_ten_member_diamond_parameter():
    g = diamond_host(10)
    (d,) = find_wide_diamonds(g)
    _, k2 = replace_wide_diamond(g, d, 2)
    assert k2 == 2 + 3


def test_replace_five_member_host_counts():
    g = diamond_host(5)
    (d,) = find_wide_diamonds(g)
    out, k2 = replace_wide_diamond(g, d, 2)
    before = brute_min_ds(g, 2)
    after = brute_min_ds(out, k2)
    assert (before.size, before.count) == (2, 11)
    assert (after.size, after.count) == (2 + (k2 - 2), 11)


def test_replace_locality():
    g = diamond_host(9)
    (d,) = find_wide_diamonds(g)
    out, _ = replace_wide_diamond(g, d, 2)
    replaced = set(d.members[3:])
    fresh = set(out.vertices) - set(g.vertices)
    assert without(g, replaced) == without(out, fresh)
    outside = {n for v in fresh for n in out.neighbors(v) if n not in fresh}
    assert outside == {1, 2}


def test_replace_validation_errors():
    g = diamond_host(5)
    with pytest.raises(ValueError, match="distinct"):
        replace_wide_diamond(g, WideDiamond((3,), (1, 1)), 2)
    with pytest.raises(ValueError, match="at least one member"):
        replace_wide_diamond(g, WideDiamond((), (1, 2)), 2)
    with pytest.raises(ValueError, match="exactly the two endpoints"):
        replace_wide_diamond(g, WideDiamond((1,), (3, 4)), 2)
    with pytest.raises(ValueError, match="unknown vertex"):
        replace_wide_diamond(g, WideDiamond((99,), (1, 2)), 2)
    # one double edge makes the host a multigraph
    doubled = MultiGraph(g.vertices, g.edges() + [(1, 3, 1)])
    with pytest.raises(ValueError, match="simple graphs only"):
        replace_wide_diamond(doubled, WideDiamond((3, 4, 5, 6, 7), (1, 2)), 2)
    # a repeated member is refused, not deleted twice or counted twice
    host = diamond_host(8)
    for members in ((3, 4, 5, 6, 7, 7), (3, 3, 3, 3, 3, 4)):
        with pytest.raises(ValueError, match="members of a wide diamond must be distinct"):
            replace_wide_diamond(host, WideDiamond(members, (1, 2)), 1)


def test_replace_all_wide_diamonds_matches_replacing_each_in_turn():
    shared = 0
    for seed in range(200):
        g, k = multi_diamond_host(7_000 + seed), seed % 4
        diamonds = find_wide_diamonds(g)
        h, k2 = g, k
        for d in diamonds:
            h, k2 = replace_wide_diamond(h, d, k2)
        assert write_instance(*replace_all_wide_diamonds(g, k)) == write_instance(h, k2), seed
        ends = [x for d in diamonds if len(d.members) > 4 for x in d.endpoints]
        shared += len(ends) > len(set(ends))
    # many hosts have two replaced diamonds on one endpoint
    assert shared >= 40


def test_observation_check_passes_on_minimum_sets():
    g = diamond_host(5)
    (d,) = find_wide_diamonds(g)
    sets = enumerate_min_ds(g, 3)
    assert len(sets) == 11
    for chosen in sets:
        assert diamond_observation_check(g, d, chosen) == []


def test_observation_check_flags_violations():
    g = diamond_host(5)
    (d,) = find_wide_diamonds(g)
    assert diamond_observation_check(g, d, {3, 4}) == [
        "hits-an-endpoint",
        "at-most-one-member",
    ]
    assert diamond_observation_check(g, d, {1, 2, 3}) == [
        "both-endpoints-exclude-members"
    ]
    assert diamond_observation_check(g, d, {1, 2}) == []


def test_replace_on_random_simple_hosts():
    from countkernel.generators import Lcg

    cases = 0
    for seed in range(60):
        rng = Lcg(123_000 + seed)
        h = 3 + rng.below(5)
        pairs = [(u, v) for u in range(1, h + 1) for v in range(1, h + 1) if u < v]
        edges = []
        taken = set()
        for _ in range(rng.below(len(pairs) + 1)):
            i = rng.below(len(pairs))
            if i not in taken:
                taken.add(i)
                edges.append((*pairs[i], 1))
        size = 5 + rng.below(6)
        u = 2 + rng.below(h - 1)
        nid = h + 1
        members = list(range(nid, nid + size))
        g = MultiGraph(
            list(range(1, h + 1)) + members,
            edges + [(1, c, 1) for c in members] + [(u, c, 1) for c in members],
        )
        diamond = next(
            (d for d in find_wide_diamonds(g) if set(d.members) == set(members)), None
        )
        if diamond is None:
            continue  # a host vertex joined the same diamond
        gamma = brute_min_ds(g, g.num_vertices, max_vertices=22).size
        for k in (gamma - 1, gamma, gamma + 1):
            before = brute_min_ds(g, k, max_vertices=22)
            g2, k2 = replace_wide_diamond(g, diamond, k)
            after = brute_min_ds(g2, k2, max_vertices=30)
            assert before.count == after.count, (seed, h, size, k)
            cases += 1
    assert cases >= 80


def test_observation_check_requires_three_members():
    g = diamond_host(2)
    d = next(x for x in find_wide_diamonds(g) if x.endpoints == (1, 2))
    with pytest.raises(ValueError, match="three members"):
        diamond_observation_check(g, d, {1})
