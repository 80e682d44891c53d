"""Acceptance suite: one test per criterion, one printed PASS/FAIL line
each (run with ``pytest tests/test_acceptance.py -v -s``).

The brute-force oracles are the ground truth throughout. Where a replaced
instance is too large for subset enumeration (chain gadgets raise the
optimum by the sum of binary exponents), the compression counter stands in
for the oracle; the counter itself is checked exactly against brute force
on the random corpus (criterion 5) and on every tractable gadget output.
"""

from __future__ import annotations

import json
import math
import random
import time
import pytest

from countkernel import (
    APPROX_RATIO,
    INFEASIBLE,
    CountPair,
    KernelBounds,
    MultiGraph,
    TRIVIALLY_ZERO,
    brute_min_ds,
    brute_min_fvs,
    count_min_fvs,
    count_min_fvs_pair,
    diamond_observation_check,
    dj_fvs,
    enumerate_min_ds,
    find_wide_diamonds,
    has_k5_or_k33_minor,
    kernelize_fvs,
    oplus,
    power_decompose,
    replace_all_chains,
    replace_chain,
    replace_wide_diamond,
)
from countkernel.cli import main as cli_main
from countkernel.generators import (
    cycle_graph,
    diamond_host,
    path_graph,
    theta_graph,
)

from conftest import chain_host, seeded_corpus


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


# -- shared corpus (criteria 3, 4, 5) -----------------------------------------

CORPUS_SIZE = 500
K_RANGE = range(0, 5)


@pytest.fixture(scope="module")
def corpus():
    return seeded_corpus(CORPUS_SIZE)


@pytest.fixture(scope="module")
def oracle_cache():
    return {}


def oracle_on(corpus, cache, idx: int, k: int) -> CountPair:
    key = (idx, k)
    if key not in cache:
        cache[key] = brute_min_fvs(corpus[idx], k)
    return cache[key]


# -- criteria ------------------------------------------------------------------


def test_criterion_01_cycle_identity():
    worst = 0.0
    ok = True
    for n in range(3, 65):
        start = time.perf_counter()
        got = count_min_fvs(cycle_graph(n), 1)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if got != n or elapsed >= 1.0:
            ok = False
            break
    report(1, "cycle identity", ok, f"n=3..64, worst call {worst * 1000:.0f} ms")


def test_criterion_02_introduction_gadget():
    reduced, k2 = replace_all_chains(cycle_graph(1025), 1, 2048)
    pair = count_min_fvs_pair(reduced, k2)
    ok = k2 == 11 and pair == CountPair(11, 1025)
    for p in range(1, 7):
        n = 2**p + 1
        scaled, sk = replace_all_chains(cycle_graph(n), 1, n)
        got = brute_min_fvs(scaled, sk)
        ok = ok and sk == 1 + p and got == CountPair(1 + p, n)
    report(2, "introduction gadget", ok, f"C_1025 -> k'={k2}, counter {pair.count}")


def test_criterion_03_kernel_soundness(corpus, oracle_cache):
    start = time.perf_counter()
    checked = 0
    ok = True
    for idx, g in enumerate(corpus):
        for k in K_RANGE:
            want = oracle_on(corpus, oracle_cache, idx, k)
            out = kernelize_fvs(g, k)
            if out is TRIVIALLY_ZERO:
                ok = ok and want.count == 0
            else:
                g2, k2 = out
                ok = ok and brute_min_fvs(g2, k2).count == want.count
            checked += 1
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(3, "kernel soundness", ok, f"{checked} instance/k pairs in {elapsed:.1f} s")


def test_criterion_04_kernel_size_bounds(corpus):
    violations = 0
    outputs = 0
    for g in corpus:
        for k in K_RANGE:
            out = kernelize_fvs(g, k)
            if out is TRIVIALLY_ZERO:
                continue
            g2, _ = out
            outputs += 1
            bounds = KernelBounds(APPROX_RATIO, k)
            if len(g2.v_neq2()) > bounds.max_v_neq2:
                violations += 1
            if len(g2.chains()) > bounds.max_chains:
                violations += 1
    report(4, "kernel size bounds", violations == 0, f"{outputs} non-trivial outputs")


def test_criterion_05_counter_correctness(corpus, oracle_cache):
    ok = True
    for idx, g in enumerate(corpus):
        for k in K_RANGE:
            if count_min_fvs(g, k) != oracle_on(corpus, oracle_cache, idx, k).count:
                ok = False
                break
        if not ok:
            break
    # the disjoint solver's base cases, verbatim
    forest = path_graph(3)
    base_empty = dj_fvs(forest, set(forest.vertices), 4)
    tri = cycle_graph(3)
    base_cyclic = dj_fvs(tri, set(tri.vertices), 4)
    ok = ok and base_empty == CountPair(0, 1) and base_cyclic == INFEASIBLE
    report(5, "counter correctness", ok, f"{CORPUS_SIZE * len(K_RANGE)} instance/k pairs")


def test_criterion_06_oplus_algebra():
    rng = random.Random(987_654)

    def draw():
        if rng.random() < 0.15:
            return INFEASIBLE
        return CountPair(rng.randrange(0, 9), rng.randrange(0, 10**6))

    start = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        x, y, z = draw(), draw(), draw()
        if oplus(oplus(x, y), z) != oplus(x, oplus(y, z)):
            failures += 1
        if oplus(x, y) != oplus(y, x):
            failures += 1
        if oplus(x, INFEASIBLE) != x:
            failures += 1
    elapsed = time.perf_counter() - start
    report(6, "oplus algebra", failures == 0 and elapsed < 1.0, f"{elapsed * 1000:.0f} ms")


# -- criterion 7: chain gadget preservation ------------------------------------


def theta_host(length: int) -> MultiGraph:
    """Theta graph whose third path is the long chain."""
    return theta_graph(2, 3, length + 1)


def brute_budget(n: int, max_size: int) -> int:
    return sum(math.comb(n, s) for s in range(0, min(max_size, n) + 1))


def after_count(g2: MultiGraph, k2: int, expected_size: int) -> int:
    """Oracle count when enumeration is tractable, else the verified counter."""
    if brute_budget(g2.num_vertices, min(k2, expected_size)) <= 250_000:
        return brute_min_fvs(g2, k2, max_vertices=64).count
    return count_min_fvs_pair(g2, k2).count


def test_criterion_07_chain_gadget_preservation():
    checked = 0
    brute_after = 0
    ok = True
    for length in range(1, 33):
        for build in (chain_host, theta_host):
            g = build(length)
            fvn = brute_min_fvs(g, g.num_vertices, max_vertices=64).size
            long_chain = max(g.chains(), key=lambda c: len(c.path))
            exps = power_decompose(len(long_chain.path))
            for k in (fvn - 1, fvn, fvn + 1):
                before = brute_min_fvs(g, k, max_vertices=64)
                g2, k2 = replace_chain(g, long_chain, k)
                if k2 - k != sum(exps):
                    ok = False
                fresh = set(g2.vertices) - set(g.vertices)
                if len(fresh) > sum(1 + 2 * p for p in exps):
                    ok = False
                expected_size = fvn + sum(exps)
                if brute_budget(g2.num_vertices, min(k2, expected_size)) <= 250_000:
                    brute_after += 1
                got = after_count(g2, k2, expected_size)
                if got != before.count:
                    ok = False
                checked += 1
            if not ok:
                break
        if not ok:
            break
    report(
        7,
        "chain gadget preservation",
        ok,
        f"{checked} cases, {brute_after} with brute-force after-side",
    )


# -- criterion 8: wide diamond preservation -------------------------------------


def decorated_diamond_host(size: int, extras: int) -> MultiGraph:
    """Diamond host with a pendant path of ``extras`` vertices off endpoint 1."""
    g = diamond_host(size)
    vs = list(g.vertices)
    edges = list(g.edges())
    prev = 1
    nid = g.next_vertex_id
    for _ in range(extras):
        vs.append(nid)
        edges.append((prev, nid, 1))
        prev = nid
        nid += 1
    return MultiGraph(vs, edges)


def test_criterion_08_wide_diamond_preservation():
    checked = 0
    ok = True
    cases = [(size, extras) for size in range(5, 13) for extras in (0, 2)]
    cases += [(size, 8) for size in (5, 6, 7, 8)]
    for size, extras in cases:
        g = decorated_diamond_host(size, extras)
        diamond = next(d for d in find_wide_diamonds(g) if len(d.members) == size)
        gamma = brute_min_ds(g, g.num_vertices, max_vertices=24).size
        for k in (gamma - 1, gamma, gamma + 1):
            before = brute_min_ds(g, k, max_vertices=24)
            g2, k2 = replace_wide_diamond(g, diamond, k)
            after = brute_min_ds(g2, k2, max_vertices=32)
            if after.count != before.count:
                ok = False
            checked += 1
        # every enumerated minimum dominating set satisfies the structural
        # observation on the (at least three member) diamond
        for chosen in enumerate_min_ds(g, gamma, max_vertices=24):
            if diamond_observation_check(g, diamond, chosen):
                ok = False
        if not ok:
            break
    anchor = brute_min_ds(diamond_host(5), 2)
    g2, k2 = replace_wide_diamond(
        diamond_host(5), find_wide_diamonds(diamond_host(5))[0], 2
    )
    anchor_after = brute_min_ds(g2, k2)
    ok = ok and (anchor.size, anchor.count) == (2, 11)
    ok = ok and (anchor_after.size, anchor_after.count) == (3, 11)
    report(8, "wide diamond preservation", ok, f"{checked} cases")


def test_criterion_09_planarity_preservation():
    cases = []
    for g, k in [
        (cycle_graph(5), 1),
        (cycle_graph(9), 1),
        (cycle_graph(17), 1),
        (theta_graph(2, 2, 2), 1),
        (theta_graph(3, 2, 4), 1),
        (chain_host(4), 1),
    ]:
        out = replace_all_chains(g, k, 64)
        cases.append((g, out[0]))
    for size in (5, 6):
        g = diamond_host(size)
        g2, _ = replace_wide_diamond(g, find_wide_diamonds(g)[0], 2)
        cases.append((g, g2))

    checked = 0
    ok = True
    for before, after in cases:
        assert not has_k5_or_k33_minor(
            before, max_vertices=before.num_vertices
        ), "test input must be minor-free"
        if after.num_vertices <= 12:
            checked += 1
            if has_k5_or_k33_minor(after):
                ok = False
    report(9, "planarity preservation", ok, f"{checked} gadget outputs checked")


def test_criterion_10_dichotomy(tmp_path, capsys):
    ok = True
    agreements = []
    for n in (8, 10, 13):
        instance = tmp_path / f"c{n}.cks"
        assert cli_main(["gen", "cycle", str(n), "-o", str(instance)]) == 0
        capsys.readouterr()

        assert cli_main(["count-fvs", str(instance), "-k", "2", "--chain-cap", "4", "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert (
            cli_main(
                ["count-fvs", str(instance), "-k", "2", "--chain-cap", "64", "--solve", "--json"]
            )
            == 0
        )
        reduced = json.loads(capsys.readouterr().out)

        if direct["path"] != "direct-count" or reduced["path"] != "reduced":
            ok = False
        if direct["b"] != n or reduced["b"] != n:
            ok = False
        agreements.append((n, direct["b"], reduced["b"]))
    report(10, "dichotomy agreement", ok, f"counts {agreements}")
