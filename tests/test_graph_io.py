from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countkernel import MultiGraph, ParseError, parse_instance, to_dot, write_instance
from countkernel.graph_io import MAX_VERTICES
from countkernel.generators import cycle_graph

from conftest import multigraphs, without


def test_parse_p3():
    g, k = parse_instance("p cks 3 2\ne 1 2 1\ne 2 3 1\n")
    assert k is None
    assert g.vertices == (1, 2, 3)
    adj = g.adjacency()
    assert adj[1].get(2, 0) == 1 and adj[2].get(3, 0) == 1 and adj[1].get(3, 0) == 0


def test_parse_double_edge_with_k():
    g, k = parse_instance("p cks 2 1 k 1\ne 1 2 2\n")
    assert k == 1
    assert g.adjacency()[1].get(2, 0) == 2


def test_parse_self_loop_names_line():
    with pytest.raises(ParseError, match="line 2: self-loop"):
        parse_instance("p cks 2 1\ne 1 1 1\n")


def test_parse_duplicate_pair():
    with pytest.raises(ParseError, match="line 3: duplicate edge"):
        parse_instance("p cks 2 2\ne 1 2 1\ne 2 1 1\n")


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_instance("p cks 2 1\ne 1 5 1\n")


def test_parse_edge_count_mismatch():
    with pytest.raises(ParseError, match="announces 3 edge lines"):
        parse_instance("p cks 3 3\ne 1 2 1\n")


def test_parse_rejects_vertex_count_above_limit():
    # rejected from the header line, before any vertex is allocated
    with pytest.raises(ParseError, match=f"line 1: header announces {MAX_VERTICES + 1} vertices"):
        parse_instance(f"p cks {MAX_VERTICES + 1} 0\n")


def test_parse_missing_header():
    with pytest.raises(ParseError, match="missing header"):
        parse_instance("# nothing here\n")
    with pytest.raises(ParseError, match="expected header"):
        parse_instance("e 1 2 1\n")


def test_parse_bad_tokens():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("p cks two 1\ne 1 2 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("p cks 2 1\ne 1 2\n")
    with pytest.raises(ParseError, match="multiplicity"):
        parse_instance("p cks 2 1\ne 1 2 0\n")
    # int() reads each of these numbers, but none is a plain ASCII decimal
    for text, line in [
        ("p cks 1_0 1\ne 1 2 1\n", 1),
        ("p cks +2 1\ne 1 2 1\n", 1),
        ("p cks 2 1 k \u0663\ne 1 2 1\n", 1),
        ("p cks 10 1\ne 1_0 2 1\n", 2),
        ("p cks 10 1\ne 1 +2 1\n", 2),
        ("p cks 10 1\ne 1 2 \u0661\n", 2),
        ("p cks 10 1\ne \uff11 2 1\n", 2),
    ]:
        with pytest.raises(ParseError, match=f"line {line}: .*plain decimal"):
            parse_instance(text)
    # lines end at LF only: str.splitlines() would also break these in two
    for sep in ("\u2028", "\x85", "\x0c", "\r"):
        with pytest.raises(ParseError, match="line 1: "):
            parse_instance(f"p cks 2 1{sep}e 1 2 1\n")
    # digits only, but more of them than int() reads
    with pytest.raises(ParseError, match="line 2: "):
        parse_instance("p cks 2 1\ne 1 2 " + "9" * 5000 + "\n")


def test_parse_skips_comments_and_blanks():
    text = "# comment\n\np cks 2 1 k 3\n# another\ne 1 2 1\n\n"
    g, k = parse_instance(text)
    assert k == 3
    assert g.adjacency()[1].get(2, 0) == 1


def test_round_trip_p3_identical():
    text = "p cks 3 2\ne 1 2 1\ne 2 3 1\n"
    g, k = parse_instance(text)
    assert write_instance(g, k) == text


def test_round_trip_preserves_multiplicity():
    text = "p cks 2 1 k 1\ne 1 2 2\n"
    g, k = parse_instance(text)
    assert write_instance(g, k) == text


def neighbour_order(g):
    return [(v, list(nb.items())) for v, nb in g.adjacency().items()]


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.none() | st.integers(0, 5), st.data())
def test_round_trip_property(g, k, data):
    g = without(g, data.draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else ())
    text = write_instance(g, k)
    parsed, k_read = parse_instance(text)
    renum = {v: i + 1 for i, v in enumerate(g.vertices)}
    assert k_read == k
    assert parsed == MultiGraph(renum.values(), [(renum[u], renum[v], m) for u, v, m in g.edges()])
    assert write_instance(parsed, k) == text
    # shuffled and flipped edge lines: the parser keeps each neighbour map
    # in file order, as the validating constructor does
    header, *lines = text.splitlines()
    edges = []
    for line in data.draw(st.permutations(lines)):
        _, u, v, m = line.split()
        edges.append((int(v), int(u), int(m)) if data.draw(st.booleans()) else (int(u), int(v), int(m)))
    shuffled, _ = parse_instance("\n".join([header, *(f"e {u} {v} {m}" for u, v, m in edges)]) + "\n")
    assert neighbour_order(shuffled) == neighbour_order(MultiGraph(range(1, g.num_vertices + 1), edges))


def test_write_empty_graph_header_only():
    assert write_instance(MultiGraph()) == "p cks 0 0\n"


def test_write_renumbers_canonically():
    g = without(cycle_graph(5), {3})
    text = write_instance(g)
    reparsed, _ = parse_instance(text)
    assert reparsed.vertices == (1, 2, 3, 4)
    assert text == write_instance(reparsed)


def test_write_sorts_edge_lines():
    g = MultiGraph([1, 2, 3], [(2, 3), (1, 3), (1, 2)])
    assert write_instance(g).splitlines()[1:] == ["e 1 2 1", "e 1 3 1", "e 2 3 1"]


def test_to_dot_repeats_parallel_edges():
    dot = to_dot(MultiGraph([1, 2], [(1, 2, 2)]))
    assert dot.count("1 -- 2;") == 2
