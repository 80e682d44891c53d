from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countkernel import (
    TOO_LONG,
    Chain,
    MultiGraph,
    brute_min_fvs,
    power_decompose,
    replace_all_chains,
    replace_chain,
)
from countkernel.chain_gadget import _flanked_path
from countkernel.generators import cycle_graph, theta_graph

from conftest import chain_host, chained_multigraphs, without


def flanked_path_reference(g, chain):
    """(left, replaced, right) of a chain read from the graph: the
    neighbours of its ends outside it, the lower one on the left."""
    path = list(chain.path)
    if not chain.endpoints:
        return path[0], path[1:], path[0]
    if len(path) == 1:
        slots = sorted(n for n in g.neighbors(path[0]) for _ in range(g.adjacency()[path[0]].get(n, 0)))
        return slots[0], path, slots[1]
    left = next(n for n in g.neighbors(path[0]) if n not in chain.path)
    right = next(n for n in g.neighbors(path[-1]) if n not in chain.path)
    if right < left:
        path.reverse()
        left, right = right, left
    return left, path, right


def test_power_decompose_examples():
    assert power_decompose(8) == [3]
    assert power_decompose(5) == [2, 0]
    assert power_decompose(1) == [0]


def test_power_decompose_rejects_zero():
    with pytest.raises(ValueError):
        power_decompose(0)


@given(st.integers(min_value=1, max_value=10_000))
def test_power_decompose_property(n):
    exps = power_decompose(n)
    assert sum(2**p for p in exps) == n
    assert len(set(exps)) == len(exps)
    assert exps == sorted(exps, reverse=True)


def test_replace_chain_of_eight_structure():
    g = chain_host(8)
    (chain,) = g.chains()
    out, k2 = replace_chain(g, chain, 1)
    assert k2 == 1 + 3
    # hub plus three pearl pairs
    new = sorted(set(out.vertices) - set(g.vertices))
    assert len(new) == 7
    hub = new[0]
    assert out.adjacency()[1].get(hub, 0) == 1 and out.adjacency()[2].get(hub, 0) == 1
    doubles = [(u, v) for u, v, m in out.edges() if m == 2 and hub in (u, v)]
    assert len(doubles) == 3


def test_replace_chain_of_five_two_gadgets():
    g = chain_host(5)
    (chain,) = g.chains()
    out, k2 = replace_chain(g, chain, 2)
    assert k2 == 2 + 2
    assert len(set(out.vertices) - set(g.vertices)) == 6  # (1+2*2) + (1+0)


def test_replace_chain_locality():
    g = chain_host(6)
    (chain,) = g.chains()
    out, _ = replace_chain(g, chain, 1)
    body = set(chain.path)
    new_body = set(out.vertices) - set(g.vertices)
    assert without(g, body) == without(out, new_body)
    outside = {n for v in new_body for n in out.neighbors(v) if n not in new_body}
    assert outside == set(chain.endpoints)


def test_replace_full_cycle_double_edge_pair():
    g = cycle_graph(2)  # double edge, one 2-vertex cycle chain
    (chain,) = g.chains()
    out, k2 = replace_chain(g, chain, 1)
    assert k2 == 1
    assert out.num_vertices == 2
    (edge,) = out.edges()
    assert edge[2] == 2
    assert brute_min_fvs(out, 1) == brute_min_fvs(g, 1)


def test_replace_single_vertex_chain_with_two_endpoints():
    # triangle with one degree-2 corner: chain of length one, two endpoints
    g = MultiGraph([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4)])
    chain = [c for c in g.chains() if c.path == (4,)][0]
    out, k2 = replace_chain(g, chain, 1)
    assert k2 == 1
    assert brute_min_fvs(out, 1).count == brute_min_fvs(g, 1).count


def test_replace_chain_rejects_foreign_chain():
    g = chain_host(4)
    with pytest.raises(ValueError, match="not a chain"):
        replace_chain(g, Chain((1,), (2,)), 1)
    other = cycle_graph(9).chains()[0]
    with pytest.raises(ValueError, match="not a chain"):
        replace_chain(g, other, 1)


def test_replace_preserves_counts_small_sweep():
    for length in range(1, 11):
        g = chain_host(length)
        (chain,) = g.chains()
        out, k2 = replace_chain(g, chain, 1)
        before = brute_min_fvs(g, 1)
        after = brute_min_fvs(out, k2, max_vertices=24)
        assert before.count == after.count
        assert after.size == before.size + (k2 - 1)


def test_replacement_size_accounting():
    for length in (1, 3, 7, 12, 21, 32):
        g = chain_host(length)
        (chain,) = g.chains()
        out, k2 = replace_chain(g, chain, 0)
        exps = power_decompose(length)
        assert k2 == sum(exps)
        assert len(set(out.vertices) - set(g.vertices)) == sum(1 + 2 * p for p in exps)
        log = length.bit_length()
        assert k2 <= log * (log + 1) // 2


def test_replace_all_chains_c8():
    out = replace_all_chains(cycle_graph(8), 1, 8)
    assert out is not TOO_LONG
    g2, k2 = out
    assert k2 == 4
    pair = brute_min_fvs(g2, k2)
    assert (pair.size, pair.count) == (4, 8)


def test_replace_all_chains_too_long():
    assert replace_all_chains(cycle_graph(8), 1, 4) is TOO_LONG


def test_replace_all_chains_no_chains_is_identity():
    g = MultiGraph([1, 2, 3, 4], [(u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)])
    assert replace_all_chains(g, 2, 10) == (g, 2)


def test_replace_all_chains_theta():
    g = theta_graph(3, 4, 5)
    out, k2 = replace_all_chains(g, 1, 8)
    before = brute_min_fvs(g, 1)
    after = brute_min_fvs(out, k2, max_vertices=24)
    assert before.count == after.count


def test_replace_all_chains_rejects_bad_threshold():
    for threshold in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="threshold must be a positive integer"):
            replace_all_chains(cycle_graph(4), 1, threshold)


def test_replaced_standalone_cycle_closed_form():
    # the gadget for C_n keeps exactly n minimum solutions at the raised
    # parameter; enumerate wherever the raised optimum keeps that tractable
    for n in range(3, 41):
        exps = power_decompose(n - 1)
        if sum(exps) > 6:
            continue
        out, k2 = replace_all_chains(cycle_graph(n), 1, n)
        assert k2 == 1 + sum(exps)
        pair = brute_min_fvs(out, k2, max_vertices=24)
        assert (pair.size, pair.count) == (k2, n)


def test_replace_on_random_hosts_with_varied_attachments():
    # chains grafted onto random hosts, including both flanks on the same
    # vertex (single-endpoint chains)
    from countkernel.generators import Lcg, random_multigraph

    cases = 0
    for seed in range(70):
        rng = Lcg(777_000 + seed)
        h = 3 + rng.below(6)
        m = min(rng.below(12), h * (h - 1) // 2)
        host = random_multigraph(h, m, seed=55_000 + seed, promote2=0.3)
        length = 1 + rng.below(8)
        a, b = 1 + rng.below(h), 1 + rng.below(h)
        nid = host.next_vertex_id
        chain_vs = list(range(nid, nid + length))
        edges = list(host.edges())
        prev = a
        for c in chain_vs:
            edges.append((prev, c, 1))
            prev = c
        edges.append((prev, b, 1))
        g = MultiGraph(list(host.vertices) + chain_vs, edges)
        target = next((c for c in g.chains() if set(chain_vs) <= set(c.path)), None)
        if target is None or not set(target.path) <= set(chain_vs):
            continue  # a degree-2 attachment vertex merged into the chain
        fvn = brute_min_fvs(g, g.num_vertices, max_vertices=24).size
        for k in (fvn - 1, fvn, fvn + 1):
            before = brute_min_fvs(g, k, max_vertices=24)
            g2, k2 = replace_chain(g, target, k)
            after = brute_min_fvs(g2, k2, max_vertices=32)
            assert before.count == after.count, (seed, length, a, b, k)
            cases += 1
    assert cases >= 100


def test_replace_mixed_chain_kinds():
    # disjoint cycle chain plus the three proper chains of a theta graph
    theta = theta_graph(2, 2, 3)
    shift = {v: v + 10 for v in theta.vertices}
    vs = list(cycle_graph(6).vertices) + [shift[v] for v in theta.vertices]
    edges = list(cycle_graph(6).edges()) + [
        (shift[u], shift[v], m) for u, v, m in theta.edges()
    ]
    g = MultiGraph(vs, edges)
    out, k2 = replace_all_chains(g, 2, 8)
    before = brute_min_fvs(g, 2)
    after = brute_min_fvs(out, k2, max_vertices=24)
    assert before.count == after.count
    assert after.size == before.size + (k2 - 2)


@given(chained_multigraphs())
def test_flanked_path_matches_graph_reading_reference(g):
    for chain in g.chains():
        left, replaced, right = _flanked_path(chain)
        ref_left, ref_replaced, ref_right = flanked_path_reference(g, chain)
        assert (left, sorted(replaced), right) == (ref_left, sorted(ref_replaced), ref_right)


@settings(max_examples=200, deadline=None)
@given(chained_multigraphs(), st.integers(0, 4))
def test_replace_all_chains_matches_replace_chain_fold(g, k):
    cur, cur_k = g, k
    for chain in g.chains():
        cur, cur_k = replace_chain(cur, chain, cur_k)
    assert replace_all_chains(g, k, max(1, g.num_vertices)) == (cur, cur_k)
