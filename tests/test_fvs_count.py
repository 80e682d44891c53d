from __future__ import annotations

import math
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from countkernel import (
    INFEASIBLE,
    CountPair,
    MultiGraph,
    apply_r1,
    approx_fvs,
    brute_min_fvs,
    count_min_fvs,
    count_min_fvs_pair,
    dj_fvs,
    fvs_compression,
    oplus,
    replace_all_chains,
)
from countkernel.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_multigraph,
    theta_graph,
)

from conftest import chained_multigraphs, is_fvs, without


count_pairs = st.one_of(
    st.just(INFEASIBLE),
    st.builds(
        CountPair,
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=999),
    ),
)


def test_oplus_examples():
    assert oplus(CountPair(1, 7), CountPair(3, 4)) == CountPair(1, 7)
    assert oplus(CountPair(2, 3), CountPair(2, 5)) == CountPair(2, 8)
    assert oplus(INFEASIBLE, CountPair(4, 0)) == CountPair(4, 0)
    assert oplus(INFEASIBLE, INFEASIBLE) is INFEASIBLE
    other = CountPair(math.inf, 0)
    assert oplus(INFEASIBLE, other) is other and oplus(other, INFEASIBLE) is INFEASIBLE


@given(count_pairs, count_pairs, count_pairs)
def test_oplus_associative_commutative(x, y, z):
    assert oplus(oplus(x, y), z) == oplus(x, oplus(y, z))
    assert oplus(x, y) == oplus(y, x)
    assert oplus(x, INFEASIBLE) == x


def test_count_pair_invariant_enforced():
    with pytest.raises(ValueError, match="infeasible pair"):
        CountPair(math.inf, 3)
    with pytest.raises(ValueError):
        CountPair(-1, 0)
    with pytest.raises(ValueError):
        CountPair(2, -1)
    with pytest.raises(ValueError, match="size must be"):
        CountPair(True, 1)
    with pytest.raises(ValueError, match="count must be an integer, got 1.5"):
        CountPair(1, 1.5)
    with pytest.raises(ValueError, match="count must be an integer, got True"):
        CountPair(2, True)
    with pytest.raises(ValueError, match="count must be an integer, got 1.0"):
        CountPair(1, 1.0)


def test_weighted_graph_validation():
    g = path_graph(2)
    with pytest.raises(ValueError, match="no weight"):
        dj_fvs(g, set(), 1, weights={1: 1})
    with pytest.raises(ValueError, match="non-positive weight"):
        dj_fvs(g, set(), 1, weights={1: 1, 2: 0})
    ring = cycle_graph(4)
    with pytest.raises(ValueError, match="vertex 2 has non-integer weight 1.5"):
        dj_fvs(ring, set(), 1, weights={1: 1, 2: 1.5, 3: 1, 4: 1})
    with pytest.raises(ValueError, match="vertex 3 has non-integer weight '2'"):
        fvs_compression(ring, 1, {1}, weights={1: 1, 2: 1, 3: "2", 4: 1})
    with pytest.raises(ValueError, match="vertex 4 has no weight"):
        fvs_compression(ring, 1, {1}, weights={1: 1, 2: 1, 3: 1})
    with pytest.raises(ValueError, match="vertex 1 has non-integer weight True"):
        fvs_compression(cycle_graph(3), 1, {1}, weights={1: True, 2: True, 3: True})


def test_dj_banning_everything_on_forest():
    g = path_graph(3)
    assert dj_fvs(g, set(g.vertices), 5) == CountPair(0, 1)


def test_dj_cyclic_banned_set_is_infeasible():
    g = cycle_graph(3)
    assert dj_fvs(g, set(g.vertices), 5) == INFEASIBLE


def test_dj_double_edge_forces_free_vertex():
    g = MultiGraph([1, 2], [(1, 2, 2)])
    assert dj_fvs(g, {1}, 1) == CountPair(1, 1)


def test_dj_rejects_non_fvs_banned_set():
    # the banned set is checked before the budget; fvs_compression checks
    # its set with the same messages
    cases = [(cycle_graph(4), set(), 2), (cycle_graph(4), set(), -1), (complete_graph(4), {1}, 2)]
    for g, banned, budget in cases:
        with pytest.raises(ValueError, match="not a feedback vertex set"):
            dj_fvs(g, banned, budget)
    with pytest.raises(ValueError, match="not in the graph"):
        dj_fvs(cycle_graph(3), {9}, 2)


def test_dj_negative_budget():
    # a negative k is refused, not counted as an empty budget
    g = MultiGraph([1, 2], [(1, 2, 2)])
    with pytest.raises(ValueError, match="parameter k must be a nonnegative integer"):
        dj_fvs(g, {1}, -1)


def test_dj_weights_multiply():
    # double edge where the free vertex has weight 7: one minimum set {2}
    g = MultiGraph([1, 2], [(1, 2, 2)])
    assert dj_fvs(g, {1}, 3, weights={1: 1, 2: 7}) == CountPair(1, 7)


def test_dj_path_contraction_equals_heavy_vertex():
    # a unit-weight path through the banned hub behaves like one vertex
    # carrying the path's total weight
    for length in (2, 3, 6):
        ring = cycle_graph(length + 1)  # vertex 1 plus a path of `length`
        spread = dj_fvs(ring, {1}, 4)
        lumped_graph = MultiGraph([1, 2], [(1, 2, 2)])
        lumped = dj_fvs(lumped_graph, {1}, 4, weights={1: 1, 2: length})
        assert spread == lumped == CountPair(1, length)


def test_dj_invariant_under_relabeling():
    for seed in range(12):
        g = random_multigraph(7, 9, seed=40 + seed, promote2=0.3)
        banned = set(g.vertices[:2])
        if g.has_cycle_within(set(g.vertices) - banned):
            continue
        base = dj_fvs(g, banned, 4)
        relabel = {v: 100 - v for v in g.vertices}
        flipped = MultiGraph(
            [relabel[v] for v in g.vertices],
            [(relabel[u], relabel[v], m) for u, v, m in g.edges()],
        )
        assert dj_fvs(flipped, {relabel[v] for v in banned}, 4) == base


def brute_disjoint(g, weights, banned, k):
    """From-scratch weighted disjoint minimum FVS sum by enumeration."""
    free = sorted(set(g.vertices) - set(banned))
    for size in range(0, min(k, len(free)) + 1):
        total = 0
        from itertools import combinations

        for combo in combinations(free, size):
            if is_fvs(g, combo):
                prod = 1
                for v in combo:
                    prod *= weights[v]
                total += prod
        if total:
            return CountPair(size, total)
    return INFEASIBLE


def spider_host(arms, w_edges):
    """Hub 1 with ``arms`` pendant paths of length two whose tips attach to
    the banned vertices 90 and 91; drives the leaf branchings."""
    vs = [1, 90, 91]
    edges = []
    nid = 2
    for i in range(arms):
        mid = nid
        nid += 1
        vs.append(mid)
        edges.append((1, mid, 1))
        edges.append((mid, 90 if i % 2 else 91, 1))
    if w_edges:
        edges.append((90, 91, 1))
    if arms == 0:
        edges.append((1, 90, 1))
    return MultiGraph(vs, edges)


def caterpillar_host(children, w_edge):
    """Vertex 1 with one edge into the banned pair and ``children`` pendant
    leaves whose other edges also reach the banned pair; drives the
    one-banned-neighbor leaf branching."""
    vs = [1, 90, 91] + list(range(2, 2 + children))
    edges = [(1, 90, 1)]
    for c in range(2, 2 + children):
        edges.append((1, c, 1))
        edges.append((c, 91, 1))
    if w_edge:
        edges.append((90, 91, 1))
    return MultiGraph(vs, edges)


def test_dj_matches_brute_force_on_structured_and_random():
    from itertools import combinations

    cases = []
    for arms in (2, 3, 4):
        for w_edges in (False, True):
            cases.append((spider_host(arms, w_edges), {90, 91}))
            cases.append((caterpillar_host(arms, w_edges), {90, 91}))
    for seed in range(30):
        n = 5 + seed % 5
        m = min((seed * 3) % 13, n * (n - 1) // 2)
        g = random_multigraph(n, m, seed=6_000 + seed, promote2=0.25)
        for bsize in (0, 1, 2):
            banned = set(g.vertices[:bsize])
            if not g.has_cycle_within(set(g.vertices) - banned):
                cases.append((g, banned))
                break

    for idx, (g, banned) in enumerate(cases):
        weights = {v: 1 + (v * (idx + 1)) % 3 for v in g.vertices}
        for k in (0, 1, 2, 4):
            assert dj_fvs(g, banned, k, weights=weights) == brute_disjoint(g, weights, banned, k)


@pytest.mark.parametrize(
    "edges, weights",
    [
        # vertex 1 touches both banned trees: it is taken or banned
        ([(1, 90), (1, 91), (5, 90), (5, 91)], {1: 2, 5: 3}),
        # vertex 1 touches one banned tree: taken, or banned with its
        # pendant child 2, or banned while 2 is taken
        ([(1, 90), (1, 2), (1, 3), (2, 91), (3, 91)], {1: 5, 2: 2, 3: 3}),
        # vertex 1 touches none: taken, or banned with its pendant children
        # 2 and 3, or banned with one of them while the other is taken
        ([(1, 2), (1, 3), (1, 4), (2, 90), (3, 90), (4, 91)], {1: 5, 2: 2, 3: 3, 4: 7}),
    ],
    ids=["two-banned-neighbours", "one-banned-neighbour", "no-banned-neighbour"],
)
def test_dj_branch_rule_matches_brute_force(edges, weights):
    g = MultiGraph(sorted({v for e in edges for v in e}), [(u, v, 1) for u, v in edges])
    weights = {90: 1, 91: 1, **weights}
    for k in range(4):
        assert dj_fvs(g, {90, 91}, k, weights=weights) == brute_disjoint(g, weights, {90, 91}, k)


@st.composite
def disjoint_instances(draw):
    """A multigraph of at most 10 vertices (edges subdivided into paths of
    up to six vertices, free-standing cycles added), a banned set that is
    a feedback vertex set (its own cycles allowed), and weights 1..3."""
    g = draw(chained_multigraphs(max_vertices=10))
    banned = draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
    assume(not g.has_cycle_within(set(g.vertices) - banned))
    weights = {v: draw(st.integers(1, 3)) for v in g.vertices}
    return g, banned, weights


@settings(max_examples=300, deadline=None)
@given(disjoint_instances(), st.integers(0, 4))
def test_dj_matches_brute_force_property(instance, k):
    g, banned, weights = instance
    assert dj_fvs(g, banned, k, weights=weights) == brute_disjoint(g, weights, banned, k)


def test_dj_deep_same_budget_branching():
    # every free vertex has two banned neighbours, so each one is a branch
    # point whose same-budget branch (ban it too) holds the next one: 1250
    # nested branch points, past the default recursion limit if each one
    # were a call
    g = path_graph(2501)
    assert dj_fvs(g, [v for v in range(1, 2502, 2)], 0) == CountPair(0, 1)


def test_direct_count_long_cycle_is_fast():
    start = time.perf_counter()
    pair = count_min_fvs_pair(cycle_graph(4097), 1)
    assert time.perf_counter() - start < 2
    assert pair == CountPair(1, 4097)


def test_direct_count_long_theta_is_fast():
    start = time.perf_counter()
    pair = count_min_fvs_pair(theta_graph(2000, 2000, 2000), 1)
    assert time.perf_counter() - start < 2
    # either branch vertex meets all three paths
    assert pair == CountPair(1, 2)


def necklace(blocks, length):
    """``blocks`` disjoint ``cycle_graph(length)`` copies, each joined to
    the one before by a single bridge."""
    vertices, edges = [], []
    for i in range(blocks):
        ring = cycle_graph(length)
        offset = i * length
        vertices += [offset + v for v in ring.vertices]
        edges += [(offset + u, offset + v, m) for u, v, m in ring.edges()]
        if i:
            edges.append((offset, offset + 1, 1))
    return MultiGraph(vertices, edges)


def test_direct_count_long_necklace_is_fast():
    # a take-or-ban tree with 64 leaves over a 24000-vertex graph (no ban
    # of one cycle's Z vertex closes a cycle): the free paths are
    # contracted once per count, not once per leaf
    g = necklace(6, 4000)
    start = time.perf_counter()
    pair = count_min_fvs_pair(g, 6)
    assert time.perf_counter() - start < 2
    assert pair == CountPair(6, 4000**6)


def compression_reference(g, k, fvs):
    """Slow reference for ``fvs_compression``: every subset of ``fvs``
    runs the disjoint counter on the whole unit-weight graph minus the
    subset, with nothing peeled or contracted beforehand."""
    z = sorted(set(fvs))
    total = INFEASIBLE
    for r in range(min(k, len(z)) + 1):
        for taken in combinations(z, r):
            part = dj_fvs(without(g, taken), set(z).difference(taken), k - r)
            if part.feasible:
                total = oplus(total, CountPair(part.size + r, part.count))
    return total


@settings(max_examples=300, deadline=None)
@given(chained_multigraphs(max_vertices=12), st.integers(0, 4), st.data())
def test_compression_matches_per_subset_reference(g, k, data):
    # the approximate FVS, a superset of it whose extra vertices may sit
    # anywhere, even on a free path, and every vertex, so that most banned
    # sides hold a cycle and whole subtrees of the take-or-ban tree are cut
    z = set(approx_fvs(g))
    extra = data.draw(st.sets(st.sampled_from(g.vertices), max_size=2)) if g.vertices else set()
    for fvs in (z, z | extra, set(g.vertices)):
        assert fvs_compression(g, k, fvs) == compression_reference(g, k, fvs)


@st.composite
def bridged_blocks(draw):
    """One to three random blocks of 3..6 vertices with multiplicities 1..2,
    each joined to the block before by a single bridge or left apart."""
    vertices, edges, previous = [], [], None
    for _ in range(draw(st.integers(1, 3))):
        block = list(range(len(vertices) + 1, len(vertices) + draw(st.integers(3, 6)) + 1))
        pairs = list(combinations(block, 2))
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))):
            edges.append((u, v, draw(st.integers(1, 2))))
        if previous is not None and draw(st.booleans()):
            edges.append((draw(st.sampled_from(previous)), draw(st.sampled_from(block)), 1))
        vertices += block
        previous = block
    return MultiGraph(vertices, edges)


@settings(max_examples=300, deadline=None)
@given(bridged_blocks())
def test_count_matches_brute_force_on_bridged_blocks(g):
    optimum = brute_min_fvs(g, g.num_vertices)
    for k in range(7):
        expected = optimum if k >= optimum.size else INFEASIBLE
        assert count_min_fvs_pair(g, k) == expected


@settings(max_examples=300, deadline=None)
@given(chained_multigraphs(max_vertices=10), st.integers(0, 4), st.data())
def test_weighted_compression_matches_brute_force(g, k, data):
    weights = {v: data.draw(st.integers(1, 3)) for v in g.vertices}
    pair = fvs_compression(g, k, approx_fvs(g), weights=weights)
    assert pair == brute_disjoint(g, weights, set(), k)


@settings(max_examples=200, deadline=None)
@given(chained_multigraphs(max_vertices=8), st.integers(0, 3))
def test_count_on_gadget_instances_matches_brute_force(g, k):
    # every chain becomes a gadget, and the counter folds its pearls back
    # into hub weights; the pair must be the gadget graph's own and the
    # original's at the budget shifted by k' - k, also one below (when that
    # is a budget at all) and one above k'
    g = apply_r1(g)
    gadget, k_prime = replace_all_chains(g, k, 10**9)
    assume(gadget.num_vertices <= 16)
    lift = k_prime - k
    for budget in range(max(k_prime - 1, 0), k_prime + 2):
        pair = count_min_fvs_pair(gadget, budget)
        assert pair == brute_min_fvs(gadget, budget)
        inner = brute_min_fvs(g, budget - lift)
        assert pair == (CountPair(inner.size + lift, inner.count) if inner.feasible else INFEASIBLE)


def test_count_pearl_folding_edge_cases():
    # a path of double edges offers pearls at both ends and, after one
    # fold, a heavy hub that must not fold again; vertex 1 below has
    # degree four and two neighbours, but a triple and a single edge
    graphs = [
        MultiGraph(range(1, n + 1), [(v, v + 1, 2) for v in range(1, n)]) for n in range(2, 9)
    ]
    graphs.append(MultiGraph([1, 2, 3, 4], [(1, 2, 3), (1, 3, 1), (3, 4, 1), (2, 4, 1)]))
    for g in graphs:
        for k in range(g.num_vertices):
            assert count_min_fvs_pair(g, k) == brute_min_fvs(g, k)


def test_count_reduced_long_cycle_is_fast():
    # 120 pearls on 15 hubs: counted at k = 1 after folding, not at k' = 121
    gadget, k_prime = replace_all_chains(cycle_graph(65535), 1, 65535)
    start = time.perf_counter()
    pair = count_min_fvs_pair(gadget, k_prime)
    assert time.perf_counter() - start < 1
    assert (k_prime, pair) == (121, CountPair(121, 65535))


def disjoint_copies(h: MultiGraph, copies: int) -> MultiGraph:
    """``copies`` disjoint copies of h, whose vertices are 1..n."""
    n = h.num_vertices
    return MultiGraph(
        range(1, copies * n + 1),
        [(u + i * n, v + i * n, m) for i in range(copies) for u, v, m in h.edges()],
    )


@pytest.mark.parametrize(
    "h, copies, per_copy",
    [(cycle_graph(3), 10, CountPair(1, 3)), (complete_graph(4), 5, CountPair(2, 6))],
    ids=["10-triangles", "5-K4"],
)
def test_count_disjoint_copies_closed_form(h, copies, per_copy):
    # 30 and 20 vertices, past what brute force checks here: a minimum set
    # takes a minimum set of every copy, so sizes add and counts multiply
    # over many nested takes
    g = disjoint_copies(h, copies)
    a = per_copy.size * copies
    assert count_min_fvs_pair(g, a) == CountPair(a, per_copy.count**copies)
    assert count_min_fvs_pair(g, a - 1) == INFEASIBLE


def test_compression_triangle():
    assert fvs_compression(cycle_graph(3), 1, {1}) == CountPair(1, 3)


def test_compression_forest_empty_fvs():
    assert fvs_compression(path_graph(4), 0, set()) == CountPair(0, 1)


def test_compression_c4_budget_zero():
    assert fvs_compression(cycle_graph(4), 0, {1}) == INFEASIBLE


def test_compression_rejects_non_fvs():
    # the same messages as dj_fvs gives for its banned set
    with pytest.raises(ValueError, match="not a feedback vertex set"):
        fvs_compression(complete_graph(4), 2, {1})
    with pytest.raises(ValueError, match="not in the graph"):
        fvs_compression(cycle_graph(3), 2, {1, 9})


def test_count_cycles_equal_length():
    for n in (3, 7, 12):
        assert count_min_fvs(cycle_graph(n), 1) == n
        assert count_min_fvs(cycle_graph(n), 3) == n


def test_count_forest_is_one():
    assert count_min_fvs(path_graph(7), 0) == 1
    assert count_min_fvs(MultiGraph(), 2) == 1


def test_count_k4_budget_one():
    assert count_min_fvs(complete_graph(4), 1) == 0
    assert count_min_fvs(complete_graph(4), 2) == 6


def test_count_monotone_plateau(small_corpus):
    for g in small_corpus[:30]:
        optimum = brute_min_fvs(g, g.num_vertices)
        for k in range(0, optimum.size + 3):
            expected = optimum.count if k >= optimum.size else 0
            assert count_min_fvs(g, k) == expected


def test_count_pair_reports_feedback_vertex_number(small_corpus):
    for g in small_corpus[:20]:
        optimum = brute_min_fvs(g, g.num_vertices)
        pair = count_min_fvs_pair(g, optimum.size + 1)
        assert pair == optimum
