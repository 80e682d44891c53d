from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countkernel import (
    ExactCount,
    MultiGraph,
    Reduced,
    TRIVIALLY_ZERO,
    apply_r1,
    apply_r2,
    approx_fvs,
    brute_min_fvs,
    cli,
    count_min_fvs,
    count_min_fvs_pair,
    count_or_reduce,
    degree_reduce,
    dj_fvs,
    fvs_compression,
    graph_io,
    kernelize_fvs,
    parse_instance,
    replace_all_chains,
    write_instance,
)
from countkernel.cli import main
from countkernel.generators import complete_graph, cycle_graph, path_graph

from conftest import chained_multigraphs


def run(capsys, argv, expect=0):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == expect, captured.err
    return captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# -- driver ------------------------------------------------------------------


def test_driver_forest_counts_directly():
    out = count_or_reduce(path_graph(4), 0)
    assert out == ExactCount(1, "direct-count", size=0)


def test_driver_trivially_zero_on_k5():
    out = count_or_reduce(complete_graph(5), 1)
    assert out == ExactCount(0, "trivially-zero")


def test_driver_default_threshold_is_two_power_k():
    # C8 with k=1: the single chain (length 8) exceeds 2^1, so the driver
    # counts directly
    out = count_or_reduce(cycle_graph(8), 1)
    assert isinstance(out, ExactCount)
    assert out.path == "direct-count"
    assert out.count == 8
    # with k=3 the threshold 2^3 admits replacement
    out = count_or_reduce(cycle_graph(8), 3)
    assert isinstance(out, Reduced)
    assert brute_min_fvs(out.graph, out.k).count == 8


def test_driver_both_branches_agree():
    for n in (6, 9, 13):
        direct = count_or_reduce(cycle_graph(n), 2, chain_threshold=2)
        reduced = count_or_reduce(cycle_graph(n), 2, chain_threshold=64)
        assert isinstance(direct, ExactCount) and direct.count == n
        assert isinstance(reduced, Reduced)
        assert brute_min_fvs(reduced.graph, reduced.k, max_vertices=24).count == n


@pytest.mark.parametrize("k", [2, 3, 4])
def test_driver_two_power_k_boundary(k):
    # the cycle's one chain holds all n vertices: n = 2^k is replaced,
    # n = 2^k + 1 is counted directly
    assert isinstance(count_or_reduce(cycle_graph(2**k), k), Reduced)
    out = count_or_reduce(cycle_graph(2**k + 1), k)
    assert out == ExactCount(2**k + 1, "direct-count", size=1)


@pytest.mark.parametrize(
    "g, k, threshold",
    [
        # trivially zero, dissolved by the rules and counted directly: each
        # is refused before the kernel runs
        pytest.param(cycle_graph(5), 0, 0, id="C5-k0-0"),
        *(pytest.param(path_graph(3), 1, t, id=f"P3-k1-{t}") for t in (0, -3, 2.5, True)),
        *(pytest.param(cycle_graph(5), 1, t, id=f"C5-k1-{t}") for t in (2.5, True)),
    ],
)
def test_driver_rejects_bad_threshold(g, k, threshold):
    with pytest.raises(ValueError, match="threshold must be a positive integer"):
        count_or_reduce(g, k, chain_threshold=threshold)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(count_or_reduce, id="count_or_reduce"),
        pytest.param(kernelize_fvs, id="kernelize_fvs"),
        pytest.param(count_min_fvs_pair, id="count_min_fvs_pair"),
        pytest.param(count_min_fvs, id="count_min_fvs"),
        pytest.param(lambda g, k: dj_fvs(g, {1}, k), id="dj_fvs"),
        pytest.param(lambda g, k: fvs_compression(g, k, {1}), id="fvs_compression"),
    ],
)
def test_entry_points_refuse_bad_k(entry):
    # each of these once raised TypeError, or answered as if k were an int
    for k in (2.5, 1.0, True, False, -1, "1", None):
        with pytest.raises(ValueError, match="parameter k must be a nonnegative integer"):
            entry(cycle_graph(5), k)


def double_star(leaves):
    """Vertex 1 tied by a double edge to each of 2..leaves+1: it lies in
    every solution of size below ``leaves``, so the kernel peels it when
    ``leaves`` exceeds 2k."""
    return MultiGraph(range(1, leaves + 2), [(1, x, 2) for x in range(2, leaves + 2)])


@pytest.mark.parametrize(
    "g, k, threshold",
    [
        # the kernel peels vertex 1 and is then empty
        (double_star(3), 1, None),
        # after peeling, a disjoint 9-cycle is counted directly
        (
            MultiGraph(
                range(1, 16),
                double_star(5).edges() + [(i, i + 1, 1) for i in range(7, 15)] + [(7, 15, 1)],
            ),
            2,
            2,
        ),
    ],
)
def test_driver_size_counts_peeled_vertices(g, k, threshold):
    out = count_or_reduce(g, k, chain_threshold=threshold)
    want = brute_min_fvs(g, k)
    assert isinstance(out, ExactCount) and out.path == "direct-count"
    assert (out.size, out.count) == (want.size, want.count)


@st.composite
def maybe_forced_hub(draw):
    """A multigraph of at most 10 vertices with long degree-2 paths, often
    with one extra vertex tied by double edges to several others, which
    the kernel may peel."""
    g = draw(chained_multigraphs(max_vertices=9))
    leaves = draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
    if not leaves:
        return g
    hub = g.next_vertex_id
    return MultiGraph([*g.vertices, hub], g.edges() + [(hub, x, 2) for x in leaves])


@settings(max_examples=150, deadline=None)
@given(maybe_forced_hub(), st.integers(0, 4), st.sampled_from(["1", "2^k", "unbounded"]))
def test_pipeline_matches_oracle(g, k, cap):
    # kernelize -> replace chains -> count, reported in input-instance terms
    threshold = {"1": 1, "2^k": None, "unbounded": g.num_vertices + 1}[cap]
    out = count_or_reduce(g, k, chain_threshold=threshold)
    if isinstance(out, Reduced):
        pair = count_min_fvs_pair(out.graph, out.k)
        size = pair.size - (out.k - k) if pair.feasible else None
        got = (size, pair.count)
    else:
        got = (out.size, out.count)
    want = brute_min_fvs(g, k)
    assert got == (want.size if want.feasible else None, want.count)


def snapshot(g):
    """The instance text of g and each vertex's neighbour items in order."""
    return write_instance(g), [(v, list(nb.items())) for v, nb in g.adjacency().items()]


@settings(max_examples=100, deadline=None)
@given(maybe_forced_hub(), st.integers(0, 4))
def test_public_stages_leave_their_input_alone(g, k):
    # graphs are never edited: a stage that changes one edits its own map
    before = snapshot(g)
    kernelize_fvs(g, k)
    for threshold in (1, None, g.num_vertices + 1):
        count_or_reduce(g, k, chain_threshold=threshold)
    count_min_fvs_pair(g, k)
    replace_all_chains(g, k, g.num_vertices + 1)
    r1 = apply_r1(g)
    apply_r2(g)
    for forbidden in (None, *g.vertices):
        approx_fvs(g, forbidden=forbidden)
    assert snapshot(g) == before
    r1_before = snapshot(r1)
    for v in r1.vertices:
        degree_reduce(r1, k, v, approx_fvs(r1, forbidden=v))
    assert snapshot(r1) == r1_before


# -- gen ---------------------------------------------------------------------


def test_gen_cycle(capsys, tmp_path):
    out, _ = run(capsys, ["gen", "cycle", "8"])
    assert out.startswith("p cks 8 8\n")


def test_gen_random_is_reproducible(capsys):
    a, _ = run(capsys, ["gen", "random", "10", "14", "42"])
    b, _ = run(capsys, ["gen", "random", "10", "14", "42"])
    assert a == b


def test_gen_diamond_host(capsys):
    out, _ = run(capsys, ["gen", "diamond-host", "5", "-k", "2"])
    g, k = parse_instance(out)
    assert k == 2
    assert g.num_vertices == 7


def test_gen_bad_arity(capsys):
    _, err = run(capsys, ["gen", "cycle"], expect=2)
    assert "expects arguments" in err


def test_gen_writes_file(capsys, tmp_path):
    target = tmp_path / "out.cks"
    run(capsys, ["gen", "theta", "2", "3", "4", "-o", str(target)])
    g, _ = parse_instance(target.read_text())
    assert g.num_vertices == 2 + 1 + 2 + 3


def test_gen_rejects_bad_promotion(capsys):
    out, err = run(capsys, ["gen", "random", "3", "3", "1", "--promote2", "1.5"], expect=2)
    assert out == ""
    assert "promotion probability" in err


@pytest.mark.parametrize(
    "family, at_limit, over_limit",
    [
        ("cycle", ["10"], ["11"]),
        ("theta", ["4", "4", "3"], ["4", "4", "4"]),
        ("grid", ["2", "5"], ["3", "4"]),
        ("random", ["10", "3", "1"], ["11", "3", "1"]),
        ("diamond-host", ["8"], ["9"]),
        # edges too: sampling holds every pair it draws
        ("random", ["10", "10", "1"], ["10", "11", "1"]),
    ],
)
def test_gen_refuses_more_vertices_than_the_parser_reads(capsys, monkeypatch, family, at_limit, over_limit):
    monkeypatch.setattr(graph_io, "MAX_VERTICES", 10)
    out, _ = run(capsys, ["gen", family, *at_limit])
    assert parse_instance(out)[0].num_vertices == 10
    out, err = run(capsys, ["gen", family, *over_limit], expect=2)
    assert out == ""
    assert "more than 10" in err


# -- oracle ------------------------------------------------------------------


def test_oracle_fvs_c5(capsys, tmp_path):
    path = write(tmp_path, "c5.cks", "p cks 5 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 1 5 1\n")
    out, _ = run(capsys, ["oracle", path, "-k", "1", "--problem", "fvs"])
    assert out == "1 5\n"


def test_oracle_ds_diamond(capsys, tmp_path):
    path = write(
        tmp_path,
        "d5.cks",
        "p cks 7 10\n" + "".join(f"e 1 {c} 1\ne 2 {c} 1\n" for c in range(3, 8)),
    )
    out, _ = run(capsys, ["oracle", path, "-k", "2", "--problem", "ds"])
    assert out == "2 11\n"


def test_oracle_infeasible_prints_inf(capsys, tmp_path):
    path = write(tmp_path, "k4.cks", "p cks 4 6\ne 1 2 1\ne 1 3 1\ne 1 4 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n")
    out, _ = run(capsys, ["oracle", path, "-k", "1", "--problem", "fvs"])
    assert out == "inf 0\n"


def test_oracle_refuses_oversized(capsys, tmp_path):
    edges = "".join(f"e {i} {i + 1} 1\n" for i in range(1, 30)) + "e 30 1 1\n"
    path = write(tmp_path, "c30.cks", "p cks 30 30\n" + edges)
    _, err = run(capsys, ["oracle", path, "-k", "1", "--problem", "fvs"], expect=2)
    assert "refuses graphs" in err


# -- count-fvs ---------------------------------------------------------------


def test_count_fvs_forest_direct(capsys, tmp_path):
    path = write(tmp_path, "f.cks", "p cks 3 2 k 0\ne 1 2 1\ne 2 3 1\n")
    out, _ = run(capsys, ["count-fvs", path])
    assert "path: direct-count" in out and "count: 1" in out


def test_count_fvs_k4_zero_with_solve(capsys, tmp_path):
    path = write(tmp_path, "k4.cks", "p cks 4 6\ne 1 2 1\ne 1 3 1\ne 1 4 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n")
    out, _ = run(capsys, ["count-fvs", path, "-k", "1", "--solve", "--json"])
    assert json.loads(out)["b"] == 0


def test_count_fvs_cycle_1025(capsys, tmp_path):
    run(capsys, ["gen", "cycle", "1025", "-o", str(tmp_path / "c.cks")])
    capsys.readouterr()
    out, _ = run(capsys, ["count-fvs", str(tmp_path / "c.cks"), "-k", "1", "--solve", "--json"])
    report = json.loads(out)
    assert report == {"path": "reduced", "a": 1, "b": 1025, "n_prime": 22, "k_prime": 11}


def test_count_fvs_reduced_solve_cycle_4095(capsys, tmp_path):
    # the default cap replaces the 4094-vertex chain by gadgets (k' = 67);
    # --solve folds their 66 pearls back and counts at k = 1
    run(capsys, ["gen", "cycle", "4095", "-o", str(tmp_path / "c.cks")])
    capsys.readouterr()
    start = time.perf_counter()
    out, _ = run(capsys, ["count-fvs", str(tmp_path / "c.cks"), "-k", "1", "--solve", "--json"])
    assert time.perf_counter() - start < 1
    report = json.loads(out)
    assert (report["path"], report["a"], report["b"], report["k_prime"]) == ("reduced", 1, 4095, 67)


def test_count_fvs_huge_k_without_chain_cap(capsys, tmp_path):
    # the 2^k rule must not build a billion-bit integer
    path = write(tmp_path, "c5.cks", "p cks 5 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 1 5 1\n")
    start = time.perf_counter()
    out, _ = run(capsys, ["count-fvs", path, "-k", "1000000000", "--chain-cap", "inf", "--solve", "--json"])
    assert time.perf_counter() - start < 5
    report = json.loads(out)
    assert (report["path"], report["a"], report["b"]) == ("reduced", 1, 5)


@pytest.mark.parametrize("exc", [RuntimeError("invariant violated"), RecursionError("too deep")])
def test_internal_error_exit_code(capsys, tmp_path, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "count_or_reduce", fail)
    path = write(tmp_path, "c3.cks", "p cks 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
    _, err = run(capsys, ["count-fvs", path, "-k", "1"], expect=3)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(exc) in err


def test_count_fvs_reduced_output_reparses(capsys, tmp_path):
    path = write(
        tmp_path,
        "c8.cks",
        "p cks 8 8\n" + "".join(f"e {i} {i + 1} 1\n" for i in range(1, 8)) + "e 8 1 1\n",
    )
    out, _ = run(capsys, ["count-fvs", path, "-k", "3"])
    instance = "\n".join(line for line in out.splitlines() if line[:2] in ("p ", "e ")) + "\n"
    g, k = parse_instance(instance)
    assert k == 3 + 3  # exponents 2, 1, 0 cover the seven replaced ring vertices
    assert brute_min_fvs(g, k).count == 8


def test_count_fvs_requires_parameter(capsys, tmp_path):
    path = write(tmp_path, "nok.cks", "p cks 2 1\ne 1 2 1\n")
    _, err = run(capsys, ["count-fvs", path], expect=2)
    assert "no parameter" in err


def test_count_fvs_rejects_negative_k(capsys, tmp_path):
    path = write(tmp_path, "g.cks", "p cks 2 1\ne 1 2 1\n")
    _, err = run(capsys, ["count-fvs", path, "-k", "-1"], expect=2)
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count-fvs", "F", "-k", "\u0661"],
        ["count-fvs", "F", "-k", "1_0"],
        ["count-fvs", "F", "--chain-cap", "+0_1"],
        ["gen", "cycle", "\u0665"],
    ],
)
def test_cli_numbers_follow_the_file_rule(capsys, tmp_path, argv):
    # int() reads each of these numbers; the instance file would not
    path = write(tmp_path, "c3.cks", "p cks 3 3 k 1\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
    with pytest.raises(SystemExit) as exit_info:
        main([path if arg == "F" else arg for arg in argv])
    assert exit_info.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_parse_error_exit_code(capsys, tmp_path):
    path = write(tmp_path, "bad.cks", "p cks 2 1\ne 1 1 1\n")
    _, err = run(capsys, ["count-fvs", path, "-k", "1"], expect=2)
    assert "self-loop" in err


def test_missing_file_exit_code(capsys):
    _, err = run(capsys, ["count-fvs", "/nonexistent.cks", "-k", "1"], expect=2)
    assert "error" in err


def test_main_reuses_one_parser(capsys, tmp_path):
    # main parses with one cached parser; a usage error in between leaves
    # no state behind, and its message matches a freshly built parser's
    path = write(tmp_path, "c5.cks", "p cks 5 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 1 5 1\n")
    first, _ = run(capsys, ["count-fvs", path, "-k", "1", "--json"])
    bad = ["count-fvs", path, "--chain-cap", "0"]
    with pytest.raises(SystemExit) as exit_info:
        main(bad)
    assert exit_info.value.code == 2
    usage = capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(bad)
    assert capsys.readouterr().err == usage
    again, _ = run(capsys, ["count-fvs", path, "-k", "1", "--json"])
    assert again == first
    assert cli._parser() is cli._parser()


# -- replace -----------------------------------------------------------------


def test_replace_chains_eight(capsys, tmp_path):
    text = "p cks 10 10\ne 1 2 2\ne 1 3 1\n" + "".join(
        f"e {i} {i + 1} 1\n" for i in range(3, 10)
    ) + "e 10 2 1\n"
    path = write(tmp_path, "chain8.cks", text)
    out, _ = run(capsys, ["replace", path, "-k", "1", "--what", "chains"])
    g, k = parse_instance(out)
    assert k == 4
    assert brute_min_fvs(g, k).count == brute_min_fvs(parse_instance(text)[0], 1).count


def test_replace_diamonds_seven(capsys, tmp_path):
    text = "p cks 9 14\n" + "".join(f"e 1 {c} 1\ne 2 {c} 1\n" for c in range(3, 10))
    path = write(tmp_path, "d7.cks", text)
    out, _ = run(capsys, ["replace", path, "-k", "2", "--what", "diamonds"])
    g, k = parse_instance(out)
    assert k == 4
    assert g.num_vertices == 13


def test_replace_no_chains_byte_identical(capsys, tmp_path):
    text = "p cks 4 6 k 2\ne 1 2 1\ne 1 3 1\ne 1 4 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n"
    path = write(tmp_path, "k4.cks", text)
    out, _ = run(capsys, ["replace", path, "--what", "chains"])
    assert out == text


def test_replace_diamonds_rejects_multigraph(capsys, tmp_path):
    path = write(tmp_path, "m.cks", "p cks 2 1 k 1\ne 1 2 2\n")
    _, err = run(capsys, ["replace", path, "--what", "diamonds"], expect=2)
    assert "simple" in err


def test_count_fvs_trivially_zero_json(capsys, tmp_path):
    k5 = "p cks 5 10\n" + "".join(
        f"e {u} {v} 1\n" for u in range(1, 6) for v in range(u + 1, 6)
    )
    path = write(tmp_path, "k5.cks", k5)
    out, _ = run(capsys, ["count-fvs", path, "-k", "1", "--json"])
    report = json.loads(out)
    assert report["path"] == "trivially-zero"
    assert report["b"] == 0


def test_solve_agrees_with_oracle_end_to_end(capsys, tmp_path):
    instances = [
        ["gen", "cycle", "6"],
        ["gen", "theta", "2", "3", "3"],
        ["gen", "grid", "3", "3"],
        ["gen", "random", "9", "11", "5"],
        ["gen", "random", "9", "11", "-5"],  # a seed may be negative
        ["gen", "random", "8", "10", "17", "--promote2", "0.4"],
    ]
    for idx, gen_args in enumerate(instances):
        target = tmp_path / f"i{idx}.cks"
        run(capsys, gen_args + ["-o", str(target)])
        for k in (1, 2, 3):
            oracle_out, _ = run(capsys, ["oracle", str(target), "-k", str(k), "--problem", "fvs"])
            solved, _ = run(
                capsys,
                ["count-fvs", str(target), "-k", str(k), "--solve", "--json"],
            )
            report = json.loads(solved)
            size, count = oracle_out.split()
            assert report["b"] == int(count)
            assert report["a"] == (None if size == "inf" else int(size))
