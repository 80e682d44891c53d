"""Instance families, seeded sampling and reference answers for the
benchmark workloads.

A workload turns a seed into a *stream*: a list of passes, each pass a
stratified sample of its instance family, so any prefix of the stream has
about the same mix. The program under test only ever sees the instance
files written from these graphs.

Reference answers never come from the code under test:

* cycles, thetas, necklaces and K_{2,N} have closed forms (checked against
  brute force on small members by ``self_check``);
* a bridged composite's answer is the composition of brute-force answers on
  its blocks (a bridge lies on no cycle, so sizes add and counts multiply);
* ``kernel-sparse`` outputs are compared with the values recorded in
  ``kernels.json`` (see ``record_kernels.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Optional

from countkernel import generators
from countkernel.multigraph import MultiGraph
from countkernel.oracle import brute_min_fvs

Edge = tuple[int, int, int]

KERNEL_FLAGS = ()  # CLI defaults: chain cap 4096, no --solve, text output
COUNT_SPARSE_FLAGS = ("--chain-cap", "inf", "--solve", "--json")
COUNT_DENSE_FLAGS = ("--solve", "--json")


@dataclass(frozen=True)
class Graph:
    """An instance graph on vertices 1..n."""

    name: str
    n: int
    edges: tuple[Edge, ...]

    def text(self) -> str:
        """Instance file contents (the format the README documents)."""
        lines = [f"p cks {self.n} {len(self.edges)}"]
        lines.extend(f"e {u} {v} {m}" for u, v, m in sorted(self.edges))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """One operation: ``count-fvs FILE -k K FLAGS`` on ``graph``.

    ``size`` and ``count`` are the reference answer of (G, k): the minimum
    FVS size (None when it exceeds k) and the number of minimum FVSs of
    size at most k. Instances that are only reduced set ``kernel`` and are
    checked against the output recorded under ``key`` in kernels.json.
    """

    graph: Graph
    k: int
    flags: tuple[str, ...]
    size: Optional[int] = None
    count: Optional[int] = None
    kernel: bool = False

    @property
    def key(self) -> str:
        return f"{self.graph.name}-k{self.k}"


# -- graph builders ---------------------------------------------------------


def _from_multigraph(name: str, g) -> Graph:
    return Graph(name, g.num_vertices, tuple(g.edges()))


def _join(name: str, parts: list[tuple[int, tuple[Edge, ...]]], bridges: list[tuple[int, int]]) -> Graph:
    """Disjoint union of ``parts`` (each (n, edges) on 1..n), with part i
    joined to part i + 1 by one edge between their local vertices
    ``bridges[i]``."""
    edges: list[Edge] = []
    offsets = []
    off = 0
    for n, part_edges in parts:
        offsets.append(off)
        edges.extend((u + off, v + off, m) for u, v, m in part_edges)
        off += n
    for i, (a, b) in enumerate(bridges):
        edges.append((offsets[i] + a, offsets[i + 1] + b, 1))
    return Graph(name, off, tuple(edges))


def necklace(lengths: tuple[int, ...], attach: list[tuple[int, int]]) -> Graph:
    """Cycles of the given lengths in a row, consecutive cycles joined by a
    bridge between local vertices ``attach[i]``."""
    parts = []
    for length in lengths:
        g = generators.cycle_graph(length)
        parts.append((length, tuple(g.edges())))
    return _join("necklace-" + "-".join(map(str, lengths)), parts, attach)


def subdivided_grid(rows: int, subdiv: int) -> Graph:
    """rows x rows grid with every edge replaced by a path through
    ``subdiv`` new vertices."""
    grid = generators.grid_graph(rows, rows)
    fresh = grid.num_vertices
    edges: list[Edge] = []
    for u, v, _ in grid.edges():
        prev = u
        for _ in range(subdiv):
            fresh += 1
            edges.append((prev, fresh, 1))
            prev = fresh
        edges.append((prev, v, 1))
    return Graph(f"grid{rows}x{rows}-sub{subdiv}", fresh, tuple(edges))


# -- kernel-sparse ----------------------------------------------------------


def kernel_catalog() -> list[tuple[str, Instance]]:
    """Every instance ``kernel-sparse`` can draw, as (family, instance).

    The family is finite so that each output can be recorded; seeds choose
    which entries a run uses and in what order.
    """
    out = []
    for n in range(220, 400, 7):
        out.append(("cycle", _from_multigraph(f"cycle-{n}", generators.cycle_graph(n)), 1))
    for a in range(100, 200, 8):
        out.append(("necklace2", necklace((a, a + 13), [(a // 2, 1)]), 2))
    for a in range(60, 115, 5):
        attach = [(a // 3, 1), (2 * (a + 9) // 3, 1)]
        out.append(("necklace3", necklace((a, a + 9, a + 18), attach), 3))
    for i, size in enumerate(range(200, 440, 10)):
        out.append(("diamond", _from_multigraph(f"k2-{size}", generators.diamond_host(size)), 1 + i % 2))
    for rows, subdivs, ks in ((5, range(6, 14), (5, 6, 7)), (6, range(6, 8), (5, 7, 9))):
        for s in subdivs:
            out.extend((f"grid{rows}", subdivided_grid(rows, s), k) for k in ks)
    return [(family, Instance(g, k, KERNEL_FLAGS, kernel=True)) for family, g, k in out]


def _stratified(rng: random.Random, entries: list, per_pass: int) -> list:
    """One entry from each of ``per_pass`` equal strata of ``entries``
    ordered by graph size."""
    ordered = sorted(entries, key=lambda inst: (inst.graph.n, inst.key))
    picks = []
    for s in range(per_pass):
        lo = s * len(ordered) // per_pass
        hi = (s + 1) * len(ordered) // per_pass
        picks.append(ordered[rng.randrange(lo, hi)])
    return picks


#: Instances per pass from each kernel-sparse family. The families differ in
#: cost per instance, so fixing their counts keeps a pass's cost and its
#: slowest calls steady across seeds.
KERNEL_FAMILIES = {"cycle": 5, "necklace2": 3, "necklace3": 2, "diamond": 5, "grid5": 4, "grid6": 1}


def kernel_sparse(rng: random.Random, passes: int) -> list[list[Instance]]:
    families: dict[str, list[Instance]] = {}
    for family, inst in kernel_catalog():
        families.setdefault(family, []).append(inst)
    stream = []
    for _ in range(passes):
        batch = [inst for fam, count in KERNEL_FAMILIES.items() for inst in _stratified(rng, families[fam], count)]
        rng.shuffle(batch)
        stream.append(batch)
    return stream


# -- count-sparse -----------------------------------------------------------


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` values, one drawn from each equal slice of [lo, hi)."""
    return [rng.randrange(lo + i * (hi - lo) // count, lo + (i + 1) * (hi - lo) // count) for i in range(count)]


def count_sparse(rng: random.Random, passes: int) -> list[list[Instance]]:
    stream = []
    for _ in range(passes):
        batch = []
        for n in _spread(rng, 130, 260, 4):
            g = _from_multigraph(f"cycle-{n}", generators.cycle_graph(n))
            batch.append(Instance(g, rng.randint(1, 3), COUNT_SPARSE_FLAGS, size=1, count=n))
        for total in _spread(rng, 130, 260, 4):
            a = rng.randrange(total // 4, total // 3)
            b = rng.randrange(total // 4, total // 3)
            lengths = (a, b, total - a - b)
            g = _from_multigraph("theta-" + "-".join(map(str, lengths)), generators.theta_graph(*lengths))
            batch.append(Instance(g, rng.randint(1, 3), COUNT_SPARSE_FLAGS, size=1, count=2))
        for lo, hi in ((50, 100), (50, 100), (30, 50), (30, 50)):
            cycles = 2 if lo == 50 else 3
            lengths = tuple(rng.randrange(lo, hi) for _ in range(cycles))
            attach = [(rng.randrange(1, lengths[i] + 1), rng.randrange(1, lengths[i + 1] + 1)) for i in range(cycles - 1)]
            batch.append(Instance(necklace(lengths, attach), cycles, COUNT_SPARSE_FLAGS, size=cycles, count=prod(lengths)))
        rng.shuffle(batch)
        stream.append(batch)
    return stream


# -- count-dense ------------------------------------------------------------

#: Graphs per pass by stratum: the chain-exponent sum of the 2-core (see
#: ``chain_exponents``). The counter's run time roughly doubles per unit of
#: this sum, so fixing each stratum's share keeps a pass's cost steady
#: across seeds. The block recipe gives sums 0, 1, 2 and 3 or more to about
#: 27%, 52%, 15% and 7% of composites; the rare, slowest last group is not
#: drawn, because one such graph per pass made the pass cost swing by seed.
DENSE_STRATA = {0: 5, 1: 10, 2: 5}
#: Feedback vertex number of every block; composites have three blocks.
DENSE_BLOCK_FVS = 2
DENSE_BLOCKS = 3


def chain_exponents(n: int, edges: tuple[Edge, ...]) -> int:
    """Sum, over the maximal degree-2 paths of the 2-core (multiplicities
    capped at two), of the binary exponents of the path's length: the
    parameter a chain-gadget replacement of those paths would add."""
    adj: dict[int, dict[int, int]] = {v: {} for v in range(1, n + 1)}
    for u, v, m in edges:
        adj[u][v] = min(adj[u].get(v, 0) + m, 2)
        adj[v][u] = adj[u][v]
    low = [v for v in adj if sum(adj[v].values()) <= 1]
    while low:
        v = low.pop()
        if v not in adj:
            continue
        for u in adj.pop(v):
            del adj[u][v]
            if sum(adj[u].values()) <= 1:
                low.append(u)
    deg2 = {v for v, nb in adj.items() if sum(nb.values()) == 2}
    seen: set[int] = set()
    total = 0
    for start in deg2:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for x in comp:
            for y in adj[x]:
                if y in deg2 and y not in seen:
                    seen.add(y)
                    comp.append(y)
        length = len(comp)
        if all(y in deg2 for x in comp for y in adj[x]):
            length -= 1  # a free cycle keeps one vertex as the anchor
        total += sum(p for p in range(length.bit_length()) if length >> p & 1)
    return total


def _dense_block(rng: random.Random):
    """A random_multigraph block with feedback vertex number
    DENSE_BLOCK_FVS, and its number of minimum FVSs by brute force."""
    while True:
        n = rng.randint(9, 11)
        g = generators.random_multigraph(n, n + rng.randint(2, 4), rng.getrandbits(32), promote2=rng.uniform(0.15, 0.2))
        pair = brute_min_fvs(g, DENSE_BLOCK_FVS)
        if pair.size == DENSE_BLOCK_FVS:
            return g, pair.count


def count_dense(rng: random.Random, passes: int) -> list[list[Instance]]:
    opt = DENSE_BLOCK_FVS * DENSE_BLOCKS
    stream = []
    serial = 0
    for _ in range(passes):
        need = dict(DENSE_STRATA)
        batch = []
        while any(need.values()):
            blocks = [_dense_block(rng) for _ in range(DENSE_BLOCKS)]
            bridges = [(rng.randint(1, blocks[i][0].num_vertices), rng.randint(1, blocks[i + 1][0].num_vertices)) for i in range(DENSE_BLOCKS - 1)]
            g = _join(f"composite-{serial}", [(b.num_vertices, tuple(b.edges())) for b, _ in blocks], bridges)
            stratum = chain_exponents(g.n, g.edges)
            if not need.get(stratum):
                continue
            need[stratum] -= 1
            serial += 1
            count = prod(c for _, c in blocks)
            batch.append(Instance(g, opt, COUNT_DENSE_FLAGS, size=opt, count=count))
            batch.append(Instance(g, opt - 1, COUNT_DENSE_FLAGS, size=None, count=0))
        rng.shuffle(batch)
        stream.append(batch)
    return stream


WORKLOADS = {
    "kernel-sparse": kernel_sparse,
    "count-sparse": count_sparse,
    "count-dense": count_dense,
}

#: Passes generated per run; the measured loop wraps around if it runs out.
PASSES = 6


def make_stream(workload: str, seed: int) -> list[list[Instance]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), PASSES)


# -- self-check -------------------------------------------------------------


def self_check(seed: int) -> list[str]:
    """Check the reference rules against brute force on graphs of at most 20
    vertices: the closed forms for cycles, thetas and K_{2,N}, and the
    composition rule on bridged composites and necklaces. Returns the
    mismatches."""
    rng = random.Random(f"self-check:{seed}")
    n = rng.randint(3, 20)
    lengths = tuple(rng.randint(2, 6) for _ in range(3))
    size = rng.randint(3, 18)  # K_{2,2} is a 4-cycle
    cases = [
        (_from_multigraph(f"cycle-{n}", generators.cycle_graph(n)), 1, n),
        (_from_multigraph("theta", generators.theta_graph(*lengths)), 1, 2),
        (_from_multigraph(f"k2-{size}", generators.diamond_host(size)), 1, 2),
    ]
    for _ in range(4):
        blocks = []
        for _ in range(2):
            n = rng.randint(5, 9)
            blocks.append(generators.random_multigraph(n, n + rng.randint(1, 3), rng.getrandbits(32), promote2=0.2))
        bridges = [(rng.randint(1, blocks[0].num_vertices), rng.randint(1, blocks[1].num_vertices))]
        g = _join("check", [(b.num_vertices, tuple(b.edges())) for b in blocks], bridges)
        parts = [brute_min_fvs(b, b.num_vertices) for b in blocks]
        cases.append((g, sum(p.size for p in parts), prod(p.count for p in parts)))
    for cycles in (2, 3):
        lengths = tuple(rng.randint(3, 20 // cycles) for _ in range(cycles))
        attach = [(rng.randint(1, lengths[i]), rng.randint(1, lengths[i + 1])) for i in range(cycles - 1)]
        cases.append((necklace(lengths, attach), cycles, prod(lengths)))
    bad = []
    for g, size, count in cases:
        pair = brute_min_fvs(MultiGraph(range(1, g.n + 1), g.edges), g.n)
        if (pair.size, pair.count) != (size, count):
            bad.append(f"{g.name}: reference ({size}, {count}), brute force ({pair.size}, {pair.count})")
    return bad
