"""Text format for multigraph instances.

DIMACS-flavored, UTF-8, LF line endings, '#' comment lines ignored:

    p cks <n> <num-edge-lines> [k <k>]
    e <u> <v> <multiplicity>

Vertices are 1..n, with n at most MAX_VERTICES; every edge line names a
distinct unordered pair with u != v and multiplicity >= 1. Writing is
canonical: vertices are renumbered to 1..n by increasing id and edge lines
are sorted, so parse(write(G)) reproduces G up to that renumbering and
write-after-parse is byte-stable.
"""

from __future__ import annotations

from typing import Optional

from .multigraph import MultiGraph

#: Largest vertex count a header may announce. The header alone sizes the
#: graph, so it is checked before anything is allocated.
MAX_VERTICES = 1 << 20


class ParseError(ValueError):
    """Malformed instance text; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _plain(text: str) -> bool:
    """False when int() could read a number of ``text`` that is no plain
    ASCII decimal: int() also takes '+', '_' and non-ASCII digits."""
    return text.isascii() and "_" not in text and "+" not in text


def parse_instance(text: str) -> tuple[MultiGraph, Optional[int]]:
    """Parse an instance file into a graph and its optional parameter."""
    header = None
    header_line = 0
    edges = []
    seen_pairs = {}
    n = 0
    expected_edges = 0
    k = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if tokens[0] != "p":
                raise ParseError(line_no, f"expected header line, got {raw!r}")
            if len(tokens) not in (4, 6) or tokens[1] != "cks":
                raise ParseError(line_no, "header must be 'p cks <n> <m> [k <k>]'")
            if not _plain(line):
                raise ParseError(line_no, "header numbers must be plain decimal integers")
            try:
                n = int(tokens[2])
                expected_edges = int(tokens[3])
            except ValueError:
                raise ParseError(line_no, "header counts must be integers") from None
            if n < 0 or expected_edges < 0:
                raise ParseError(line_no, "header counts must be nonnegative")
            if n > MAX_VERTICES:
                raise ParseError(line_no, f"header announces {n} vertices, more than {MAX_VERTICES}")
            if len(tokens) == 6:
                if tokens[4] != "k":
                    raise ParseError(line_no, "expected 'k <value>' in header")
                try:
                    k = int(tokens[5])
                except ValueError:
                    raise ParseError(line_no, "parameter k must be an integer") from None
                if k < 0:
                    raise ParseError(line_no, "parameter k must be nonnegative")
            header = tokens
            header_line = line_no
            continue
        if tokens[0] != "e":
            raise ParseError(line_no, f"expected edge line, got {raw!r}")
        if len(tokens) != 4:
            raise ParseError(line_no, "edge line must be 'e <u> <v> <mult>'")
        if not _plain(line):
            raise ParseError(line_no, "edge fields must be plain decimal integers")
        try:
            u, v, mult = int(tokens[1]), int(tokens[2]), int(tokens[3])
        except ValueError:
            raise ParseError(line_no, "edge fields must be integers") from None
        if u == v:
            raise ParseError(line_no, f"self-loop on vertex {u}")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise ParseError(line_no, f"vertex index out of range 1..{n}")
        if mult < 1:
            raise ParseError(line_no, "multiplicity must be at least 1")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise ParseError(line_no, f"duplicate edge line for pair {pair} (first on line {seen_pairs[pair]})")
        seen_pairs[pair] = line_no
        edges.append((u, v, mult))

    if header is None:
        raise ParseError(1, "missing header line")
    if len(edges) != expected_edges:
        raise ParseError(
            header_line,
            f"header announces {expected_edges} edge lines but {len(edges)} found",
        )
    return MultiGraph(range(1, n + 1), edges), k


def write_instance(g: MultiGraph, k: Optional[int] = None) -> str:
    """Canonical text for a graph: vertices renumbered to 1..n in id order,
    edge lines sorted by endpoint pair."""
    renum = {v: i + 1 for i, v in enumerate(g.vertices)}
    pairs = sorted((renum[u], renum[v], m) for u, v, m in g.edges())
    header = f"p cks {g.num_vertices} {len(pairs)}"
    if k is not None:
        header += f" k {k}"
    lines = [header]
    lines.extend(f"e {u} {v} {m}" for u, v, m in pairs)
    return "\n".join(lines) + "\n"


def to_dot(g: MultiGraph) -> str:
    """Plain structural DOT dump; parallel edges repeat."""
    lines = ["graph instance {"]
    for v in g.vertices:
        lines.append(f"  {v};")
    for u, v, m in g.edges():
        lines.extend(f"  {u} -- {v};" for _ in range(m))
    lines.append("}")
    return "\n".join(lines) + "\n"
