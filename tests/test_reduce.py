from __future__ import annotations

import sys
import time
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countkernel import reduce
from countkernel import (
    APPROX_RATIO,
    TRIVIALLY_ZERO,
    KernelBounds,
    MultiGraph,
    apply_r1,
    apply_r2,
    approx_fvs,
    brute_min_fvs,
    count_or_reduce,
    degree_reduce,
    kernelize_fvs,
    write_instance,
)
from countkernel.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_multigraph,
    theta_graph,
)

from conftest import (
    chained_multigraphs,
    components,
    delete_edge_one,
    is_fvs,
    multigraphs,
    relabelled_chained_multigraphs,
    without,
)


def brute_fvn_excluding(g, forbidden):
    """Smallest FVS size among sets avoiding ``forbidden``."""
    others = [v for v in g.vertices if v != forbidden]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            if is_fvs(g, combo):
                return size
    raise AssertionError("unreachable: removing all other vertices is an FVS")


def test_r1_caps_multiplicities():
    g = MultiGraph([1, 2, 3], [(1, 2, 3), (2, 3, 5), (1, 3, 1)])
    reduced = apply_r1(g)
    assert [m for _, _, m in reduced.edges()] == [2, 1, 2]
    assert [m for _, _, m in g.edges()] == [3, 1, 5]


def test_r1_identity_on_simple():
    for g in (cycle_graph(6), MultiGraph([1, 2, 3], [(1, 2, 2), (2, 3, 1)])):
        assert apply_r1(g) is g


def test_r2_erases_paths_and_forests():
    assert apply_r2(path_graph(5)).num_vertices == 0
    forest = MultiGraph(range(1, 8), [(1, 2), (2, 3), (4, 5), (6, 7)])
    assert apply_r2(forest).num_vertices == 0


def test_r2_keeps_cycle_drops_pendant():
    g = MultiGraph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (3, 6)])
    assert apply_r2(g) == cycle_graph(5)
    g = cycle_graph(5)
    assert apply_r2(g) is g


def test_r2_leaves_min_degree_two():
    for i in range(25):
        g = random_multigraph(9, 12, seed=500 + i, promote2=0.3)
        reduced = apply_r2(g)
        assert all(reduced.degree(v) >= 2 for v in reduced.vertices)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(multigraphs(), relabelled_chained_multigraphs(max_vertices=24)),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_outputs_do_not_depend_on_row_order(g, k, rng):
    # rows keep the order their edges came in, so a graph built from the
    # same edges shuffled, endpoints flipped, has its rows in another
    # order; its kernel, counts and approximate sets must be g's
    edges = [(v, u, m) for u, v, m in g.edges()]
    rng.shuffle(edges)
    h = MultiGraph(g.vertices, edges)
    kernel, other = kernelize_fvs(g, k), kernelize_fvs(h, k)
    assert other == kernel
    if kernel is not TRIVIALLY_ZERO:
        assert write_instance(*other) == write_instance(*kernel)
    for cap in (1, None):
        assert count_or_reduce(h, k, cap) == count_or_reduce(g, k, cap)
    for forbidden in (None, *g.vertices):
        assert approx_fvs(h, forbidden) == approx_fvs(g, forbidden)


def test_approx_on_forest_is_empty():
    assert approx_fvs(path_graph(6)) == frozenset()
    assert approx_fvs(MultiGraph()) == frozenset()


def test_approx_on_c5():
    out = approx_fvs(cycle_graph(5))
    assert 1 <= len(out) <= 2
    assert is_fvs(cycle_graph(5), out)


def test_approx_forbidden_on_double_edge():
    g = MultiGraph([1, 2], [(1, 2, 2)])
    assert approx_fvs(g, forbidden=1) == frozenset({2})
    assert approx_fvs(g, forbidden=2) == frozenset({1})


def test_approx_unknown_forbidden():
    with pytest.raises(ValueError, match="unknown vertex"):
        approx_fvs(cycle_graph(3), forbidden=9)


def test_approx_is_fvs_and_within_ratio(small_corpus):
    for g in small_corpus:
        out = approx_fvs(g)
        assert is_fvs(g, out)
        optimum = brute_min_fvs(g, g.num_vertices).size
        assert len(out) <= APPROX_RATIO * optimum


def test_approx_forbidden_excluded_and_within_ratio(small_corpus):
    for g in small_corpus[:25]:
        for forbidden in g.vertices[:2]:
            out = approx_fvs(g, forbidden=forbidden)
            assert forbidden not in out
            assert is_fvs(g, out)
            assert len(out) <= APPROX_RATIO * brute_fvn_excluding(g, forbidden)


def star_of_triangles(tree_count):
    """Hub v=1 and u=2, plus ``tree_count`` single-vertex trees adjacent to
    both; every v-u cycle runs through one tree."""
    trees = list(range(3, 3 + tree_count))
    edges = [(1, t) for t in trees] + [(2, t) for t in trees]
    return MultiGraph([1, 2, *trees], edges)


def test_degree_reduce_no_tree_edges_is_identity():
    g = cycle_graph(5)
    # 1 has no edges into the forest left by removing {2, 5} and itself
    out = degree_reduce(g, 1, 1, {2, 5})
    assert out is g


def test_degree_reduce_star_of_triangles_keeps_k_plus_two():
    g = star_of_triangles(5)
    out = degree_reduce(g, 1, 1, {2})
    assert out.degree(1) == 3  # k + 2 tree edges survive
    before = brute_min_fvs(g, 1)
    after = brute_min_fvs(out, 1)
    assert before == after
    assert before.count == 2


def test_degree_reduce_bound_holds():
    g = star_of_triangles(9)
    for k in (0, 1, 2):
        out = degree_reduce(g, k, 1, {2})
        assert out.degree(1) <= 1 * (k + 4)


def test_degree_reduce_preserves_counts_on_random_instances():
    for i in range(40):
        n = 4 + i % 8
        m = min((i * 3) % 14, n * (n - 1) // 2)
        g = apply_r1(random_multigraph(n, m, seed=900 + i, promote2=0.2))
        if g.num_vertices == 0:
            continue
        v = g.vertices[i % g.num_vertices]
        y_v = approx_fvs(g, forbidden=v)
        for k in (0, 1, 2, 3):
            out = degree_reduce(g, k, v, y_v)
            assert brute_min_fvs(g, k) == brute_min_fvs(out, k)


def test_degree_reduce_precondition_errors():
    g = MultiGraph([1, 2, 3], [(1, 2, 3), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(ValueError, match="multiplicity capping"):
        degree_reduce(g, 1, 1, {2})
    with pytest.raises(ValueError, match="avoid the reduced vertex"):
        degree_reduce(cycle_graph(4), 1, 1, {1})
    with pytest.raises(ValueError, match="not a feedback vertex set"):
        degree_reduce(cycle_graph(4), 1, 1, set())
    with pytest.raises(ValueError, match="unknown vertex"):
        degree_reduce(cycle_graph(4), 1, 9, {1})
    with pytest.raises(ValueError, match="unknown vertex 99 in feedback vertex set"):
        degree_reduce(apply_r1(cycle_graph(5)), 1, 1, {2, 99})


def test_kernelize_forest_gives_empty_graph():
    for k in (0, 1, 3):
        out = kernelize_fvs(path_graph(5), k)
        assert out is not TRIVIALLY_ZERO
        g2, k2 = out
        assert g2.num_vertices == 0 and k2 == k


def test_kernelize_cycle_unchanged():
    g = cycle_graph(11)
    g2, k2 = kernelize_fvs(g, 1)
    assert g2 == g and k2 == 1


def test_kernelize_k5_is_zero():
    out = kernelize_fvs(complete_graph(5), 1)
    if out is TRIVIALLY_ZERO:
        return
    g2, k2 = out
    assert brute_min_fvs(g2, k2).count == 0


def test_kernelize_counts_and_bounds(small_corpus):
    for g in small_corpus:
        for k in (0, 1, 2, 3):
            want = brute_min_fvs(g, k)
            out = kernelize_fvs(g, k)
            if out is TRIVIALLY_ZERO:
                assert want.count == 0
                continue
            g2, k2 = out
            assert k2 <= k
            assert brute_min_fvs(g2, k2).count == want.count
            bounds = KernelBounds(APPROX_RATIO, k)
            assert len(g2.v_neq2()) <= bounds.max_v_neq2
            assert len(g2.chains()) <= bounds.max_chains


def test_kernelize_idempotent_on_counts(small_corpus):
    for g in small_corpus[:25]:
        out = kernelize_fvs(g, 2)
        if out is TRIVIALLY_ZERO:
            continue
        g2, k2 = out
        again = kernelize_fvs(g2, k2)
        want = brute_min_fvs(g2, k2).count
        if again is TRIVIALLY_ZERO:
            assert want == 0
            continue
        g3, k3 = again
        assert brute_min_fvs(g3, k3).count == want
        bounds = KernelBounds(APPROX_RATIO, k2)
        assert len(g3.v_neq2()) <= bounds.max_v_neq2
        assert len(g3.chains()) <= bounds.max_chains


def test_kernel_bounds_formulae():
    b = KernelBounds(2, 3)
    assert b.max_v_neq2 == 2 * 3 + 4 * 9 * 7
    assert b.max_chains == 2 * 3 + 2 * 4 * 9 * 7


# -- rebuild-per-edit references for the kernel's hot loops -----------------


def reverse_delete_reference(g, stack):
    """Reverse deletion with one rebuild and one forest check per vertex."""
    chosen = set(stack)
    for v in reversed(stack):
        if is_fvs(g, chosen - {v}):
            chosen.discard(v)
    return chosen


def semidisjoint_cycle_reference(adj):
    """First semidisjoint cycle by smallest vertex, degrees recounted."""
    deg = {v: sum(nb.values()) for v, nb in adj.items()}
    deg2 = {v for v, d in deg.items() if d == 2}
    seen = set()
    for start in sorted(deg2):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y in deg2 and y not in seen:
                    seen.add(y)
                    comp.append(y)
                    frontier.append(y)
        outside = [n for v in comp for n, m in adj[v].items() if n not in comp for _ in range(m)]
        if not outside:
            return set(comp)
        if len(outside) == 2 and outside[0] == outside[1]:
            return set(comp) | {outside[0]}
    return None


def approx_fvs_reference(g, forbidden=None):
    """The local-ratio loop with Fraction weights and full rescans per
    step, then reverse_delete_reference."""
    if g.num_vertices == 0:
        return frozenset()
    weights = {v: Fraction(1) for v in g.vertices}
    if forbidden is not None:
        weights[forbidden] = Fraction(2 * g.num_vertices + 1)
    adj = {v: dict(sorted(nb.items())) for v, nb in g.adjacency().items()}

    def remove(v):
        for u in adj[v]:
            del adj[u][v]
        del adj[v]

    def cleanup():
        while True:
            low = [v for v, nb in adj.items() if sum(nb.values()) <= 1]
            if not low:
                return
            for v in low:
                remove(v)

    stack = []
    cleanup()
    while adj:
        cycle = semidisjoint_cycle_reference(adj)
        if cycle is not None:
            gamma = min(weights[v] for v in cycle)
            for v in cycle:
                weights[v] -= gamma
        else:
            gamma = min(weights[v] / sum(nb.values()) for v, nb in adj.items())
            for v, nb in adj.items():
                weights[v] -= gamma * sum(nb.values())
        for v in sorted(x for x in adj if weights[x] == 0):
            remove(v)
            stack.append(v)
        cleanup()
    return frozenset(reverse_delete_reference(g, stack))


def degree_reduce_reference(g, k, v, y_v):
    """degree_reduce's tree marking on a rebuilt forest, then one
    delete_edge_one per neighbour of v in an unmarked tree."""
    y_v = set(y_v)
    forest_comps = components(g, set(g.vertices) - y_v - {v})
    tree_of = {x: i for i, comp in enumerate(forest_comps) for x in comp}
    v_trees = {tree_of[n] for n in g.neighbors(v) if n in tree_of}
    marked = set()
    for u in sorted(y_v):
        shared = sorted({tree_of[n] for n in g.neighbors(u) if n in tree_of} & v_trees)
        have = sum(1 for t in shared if t in marked)
        for t in shared:
            if have >= k + 2:
                break
            if t not in marked:
                marked.add(t)
                have += 1
    cur = g
    for n in g.neighbors(v):
        if n in tree_of and tree_of[n] not in marked:
            cur = delete_edge_one(cur, n, v)
    return cur


@st.composite
def forest_complements(draw):
    """A multigraph and an ordered vertex list whose removal leaves a
    forest: the vertices a greedy pass over a random order could not add
    to the forest, plus a random share of the rest."""
    g = draw(multigraphs())
    order = draw(st.permutations(g.vertices))
    forest = []
    for v in order[: draw(st.integers(0, len(order)))]:
        if not g.has_cycle_within(forest + [v]):
            forest.append(v)
    return g, [v for v in order if v not in forest]


@settings(max_examples=200, deadline=None)
@given(forest_complements())
def test_reverse_delete_matches_reference(case):
    g, stack = case
    assert reduce._reverse_delete(g.adjacency(), stack) == reverse_delete_reference(g, stack)


@settings(max_examples=200, deadline=None)
@given(st.one_of(multigraphs(), chained_multigraphs(max_vertices=16)), st.data())
def test_approx_fvs_matches_reference_and_is_minimal(g, data):
    forbidden = data.draw(st.sampled_from((None, *g.vertices)))
    out = approx_fvs(g, forbidden=forbidden)
    assert out == approx_fvs_reference(g, forbidden)
    assert forbidden not in out
    assert is_fvs(g, out)
    for v in out:
        assert not is_fvs(g, out - {v})


@settings(max_examples=100, deadline=None)
@given(relabelled_chained_multigraphs(), st.data())
def test_approx_fvs_matches_reference_on_relabelled_runs(g, data):
    # approx_fvs cuts each long degree-2 path to its smallest vertex, which
    # here may sit anywhere along it; the set must be the full map's
    assert approx_fvs(g) == approx_fvs_reference(g)
    inside = [v for v in g.vertices if g.degree(v) == 2]
    if inside:
        forbidden = data.draw(st.sampled_from(inside))
        assert approx_fvs(g, forbidden) == approx_fvs_reference(g, forbidden)


def test_shortened_map_shapes():
    # a free cycle keeps its two smallest vertices, joined by a double edge
    assert reduce._shortened(cycle_graph(6)._adj, None) == {1: {2: 2}, 2: {1: 2}}
    # a path whose two ends meet one vertex keeps its smallest vertex, tied
    # to that one by a double edge
    g = MultiGraph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 1), (1, 6), (6, 5), (5, 1)])
    assert reduce._shortened(g._adj, None) == {1: {2: 2, 5: 2}, 2: {1: 2}, 5: {1: 2}}
    # the forbidden vertex splits its path: 1-3-4-5-6-7-2 keeps 3 and 6
    g = theta_graph(6, 2, 2)
    assert reduce._shortened(g._adj, 5) == {
        1: {3: 1, 8: 1, 9: 1},
        2: {6: 1, 8: 1, 9: 1},
        3: {1: 1, 5: 1},
        5: {3: 1, 6: 1},
        6: {5: 1, 2: 1},
        8: {1: 1, 2: 1},
        9: {1: 1, 2: 1},
    }
    # with nothing to cut, the map itself
    k4 = complete_graph(4)
    assert reduce._shortened(k4._adj, None) is k4._adj


@settings(max_examples=40, deadline=None)
@given(relabelled_chained_multigraphs(max_vertices=32), st.randoms(use_true_random=False))
# the cycle's kept vertices 1 and 2, and the theta's kept 3 and 6, are
# forbidden after the graph's cut is made
@example(cycle_graph(6), Random(0))
@example(theta_graph(6, 2, 2), Random(0))
def test_approx_fvs_reuses_the_graph_cut(g, rng):
    # one graph object keeps the cut of its first call; every call on it,
    # in any order, must give what a fresh equal graph and the reference give
    order = [None, *g.vertices]
    rng.shuffle(order)
    for forbidden in order:
        fresh = MultiGraph(g.vertices, g.edges())
        assert approx_fvs(g, forbidden) == approx_fvs(fresh, forbidden) == approx_fvs_reference(g, forbidden)


def test_approx_fvs_keeps_a_compact_cut():
    # the 10 000-cycle is cut to two vertices, and the kept map's table is
    # that of a small dict, not the input's
    g = cycle_graph(10_000)
    assert g._cut is None
    approx_fvs(g)
    assert g._cut == {1: {2: 2}, 2: {1: 2}}
    assert sys.getsizeof(g._cut) < 1000 < sys.getsizeof(g._adj) // 100
    # a forbidden vertex that splits its path cuts a map of its own
    assert approx_fvs(g, 1) == {2}
    assert g._cut == {1: {2: 2}, 2: {1: 2}}
    # with nothing to cut, the graph's own map
    k4 = complete_graph(4)
    approx_fvs(k4, 1)
    assert k4._cut is k4._adj


@pytest.mark.parametrize("n", [2, 3, 4, 9, 1000])
def test_approx_cycle_with_forbidden_vertex(n):
    assert approx_fvs(cycle_graph(n), forbidden=1) == {2}


def petal_hub(d):
    """Hub 1 with d triangles 1-a-b-1."""
    return MultiGraph(range(1, 2 * d + 2), [e for a in range(2, 2 * d + 2, 2) for e in ((1, a), (a, a + 1), (a + 1, 1))])


def subdivided_k2m(m):
    """K_{2,m} on hubs 1 and 2 with every edge subdivided once."""
    return MultiGraph(range(1, 3 * m + 3), [e for a in range(3, 3 * m + 3, 3) for e in ((1, a), (a, a + 1), (a + 1, a + 2), (a + 2, 2))])


@pytest.mark.parametrize("shape", [petal_hub, subdivided_k2m])
def test_approx_many_paths_at_one_vertex_is_linear(shape):
    # every path ends at a hub; cutting each by copying the hub's whole row
    # is quadratic and takes seconds at this size
    for f in (None, 3):
        assert approx_fvs(shape(5), f) == approx_fvs_reference(shape(5), f)
    g = shape(10_000)
    start = time.perf_counter()
    out = approx_fvs(g)
    assert time.perf_counter() - start < 1
    assert out == {1}


@st.composite
def hubbed_multigraphs(draw):
    """A random multigraph plus two hubs joined to random vertex sets, so
    that a vertex often reaches many trees that a small FVS also reaches."""
    g = draw(multigraphs())
    vertices, edges = [*g.vertices], g.edges()
    for hub in (g.next_vertex_id, g.next_vertex_id + 1):
        if vertices:
            edges += [(hub, x) for x in draw(st.sets(st.sampled_from(vertices)))]
        vertices.append(hub)
    return apply_r1(MultiGraph(vertices, edges))


@settings(max_examples=200, deadline=None)
@given(hubbed_multigraphs(), st.integers(0, 4), st.data())
def test_degree_reduce_matches_per_edge_reference(g, k, data):
    v = data.draw(st.sampled_from(g.vertices))
    y_v = set(approx_fvs(g, forbidden=v))
    # any superset avoiding v is still a feedback vertex set avoiding v
    y_v |= data.draw(st.sets(st.sampled_from([x for x in g.vertices if x != v] or [None])))
    y_v.discard(None)
    assert degree_reduce(g, k, v, y_v) == degree_reduce_reference(g, k, v, y_v)


def apply_r2_reference(g):
    """Degree-<=1 deletion with one rebuild per peeling round."""
    cur = g
    while True:
        drop = [v for v in cur.vertices if cur.degree(v) <= 1]
        if not drop:
            return cur
        cur = without(cur, drop)


@settings(max_examples=200, deadline=None)
@given(st.one_of(multigraphs(), chained_multigraphs(max_vertices=16)))
def test_apply_r2_matches_per_round_reference(g):
    out = apply_r2(g)
    assert out == apply_r2_reference(g)
    if all(g.degree(v) >= 2 for v in g.vertices):
        assert out is g


def kernelize_reference(g, k):
    """kernelize_fvs with a rebuild per edit: each forced vertex through
    without, every other vertex of the approximation through
    degree_reduce_reference, and the end through apply_r2_reference."""
    cur = apply_r1(g)
    approx = approx_fvs(cur)
    if len(approx) > APPROX_RATIO * k:
        return TRIVIALLY_ZERO
    k_out = k
    for v in sorted(approx):
        y_v = approx_fvs(cur, forbidden=v)
        if len(y_v) > APPROX_RATIO * k:
            cur = without(cur, {v})
            k_out -= 1
        else:
            cur = degree_reduce_reference(cur, k, v, y_v)
    if k_out < 0:
        return TRIVIALLY_ZERO
    return apply_r2_reference(cur), k_out


@st.composite
def forced_hubs(draw):
    """A random multigraph and a k, plus a hub tied by double edges to more
    than 2k vertices, old and new: no feedback vertex set of size at most
    2k avoids the hub."""
    g = draw(multigraphs())
    k = draw(st.integers(0, 3))
    old = draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
    hub = g.next_vertex_id
    new = range(hub + 1, hub + 1 + max(0, 2 * k + 1 - len(old)) + draw(st.integers(0, 2)))
    edges = g.edges() + [(hub, x, 2) for x in (*old, *new)]
    return MultiGraph([*g.vertices, hub, *new], edges), k


@st.composite
def with_pendant_trees(draw, cases):
    """A (graph, k) case drawn from ``cases`` with up to three trees of one to
    four new vertices hung on the graph, each new vertex joined to the
    vertex it hangs from or to an earlier vertex of its tree."""
    g, k = draw(cases)
    vertices, edges = [*g.vertices], g.edges()
    fresh = g.next_vertex_id
    for _ in range(draw(st.integers(0, 3)) if vertices else 0):
        tree = [draw(st.sampled_from(vertices))]
        for x in range(fresh, fresh + draw(st.integers(1, 4))):
            edges.append((draw(st.sampled_from(tree)), x))
            tree.append(x)
        fresh = tree[-1] + 1
        vertices += tree[1:]
    return MultiGraph(vertices, edges), k


@settings(max_examples=200, deadline=None)
@given(with_pendant_trees(st.one_of(forced_hubs(), st.tuples(hubbed_multigraphs(), st.integers(0, 4)))))
# hub 1 is forced and peeled, and the separate triangle is degree-reduced
@example((MultiGraph(range(1, 9), [(1, x, 2) for x in range(2, 6)] + [(6, 7), (7, 8), (6, 8)]), 1))
def test_kernelize_matches_per_edit_reference(case):
    g, k = case
    assert kernelize_fvs(g, k) == kernelize_reference(g, k)


@pytest.mark.parametrize(
    "g, k, reduced",
    [
        # triangle 1-2-3 with the path 1-4-5 hung off 1: Z = {1}, Y_1 = {2}
        # and deg(1) = 3 <= k + 2, but the path's tree meets no vertex of
        # Y_1, so the reduction must run and drop its edge to 1
        *((MultiGraph(range(1, 6), [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5)]), k, [(1, 1)]) for k in (1, 2, 3)),
        # K_{2, k+2+extra}: minimum degree 2, Z = {1} and Y_1 = {2}; at
        # degree k + 2 every tree at 1 is marked and the reduction is
        # skipped, at k + 3 it runs and drops one edge
        *((star_of_triangles(k + 2 + extra), k, [(1, 1)] * extra) for k in (1, 2, 3) for extra in (0, 1)),
        # the reduction at 1 drops the pendant 4, after which no vertex has
        # degree one, so the triangle 5-6-7 is not reduced
        (MultiGraph(range(1, 8), [(1, 2), (2, 3), (1, 3), (1, 4), (5, 6), (6, 7), (5, 7)]), 1, [(1, 1)]),
        # no vertex has degree one until the forced hub 4 is peeled; then 13
        # hangs off 10 alone, and the reduction at 10 must run
        (
            MultiGraph(
                range(1, 14),
                [(1, 2), (2, 3), (1, 3), *((4, x, 2) for x in range(5, 10)), (10, 11), (11, 12), (10, 12), (13, 10), (13, 4)],
            ),
            2,
            [(10, 1)],
        ),
    ],
)
def test_kernelize_reduces_only_where_an_edge_can_go(monkeypatch, g, k, reduced):
    # each degree_reduce call the kernel makes, as the reduced vertex and
    # the number of edges dropped at it
    calls = []
    real = reduce.degree_reduce

    def counting(cur, k, v, y_v):
        out = real(cur, k, v, y_v)
        calls.append((v, cur.degree(v) - out.degree(v)))
        return out

    monkeypatch.setattr(reduce, "degree_reduce", counting)
    assert kernelize_fvs(g, k) == kernelize_reference(g, k)
    assert calls == reduced


def test_r2_pendant_path_is_linear():
    # a triangle with a 4000-vertex pendant path: peeling it one round
    # (and one rebuild) per path vertex is quadratic and takes seconds
    n = 4003
    g = MultiGraph(range(1, n + 1), [(1, 2), (2, 3), (1, 3)] + [(v, v + 1) for v in range(3, n)])
    start = time.perf_counter()
    out = apply_r2(g)
    assert time.perf_counter() - start < 2
    assert out == cycle_graph(3)
