"""Text format for multigraph instances.

DIMACS-flavored, UTF-8, LF line endings, '#' comment lines ignored:

    p cks <n> <num-edge-lines> [k <k>]
    e <u> <v> <multiplicity>

Vertices are 1..n, with n at most MAX_VERTICES; every edge line names a
distinct unordered pair with u != v and multiplicity >= 1. Lines are ASCII
and numbers plain decimals: digits only, with no sign, '_' or '+'. Writing is
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


def plain_int(text: str) -> int:
    """``text`` as a plain decimal: ASCII digits only, no sign, '_' or '+', all
    of which int() also reads; else ValueError, as from int() for too many digits."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"{text!r} is not a plain decimal integer")


def parse_instance(text: str) -> tuple[MultiGraph, Optional[int]]:
    """Parse an instance file into a graph and its optional parameter."""
    header_line = 0
    first = {}  # (u, v) with u < v -> the line of its edge line
    adj: dict = {}  # vertex -> {neighbour: multiplicity} of the edge lines, in file order

    # LF only: str.splitlines() also breaks at \r, \x0c, \x85, \u2028 and more
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.isascii():
            raise ParseError(line_no, "non-ASCII text; numbers must be plain decimal integers")
        tokens = line.split()
        if not header_line:
            if tokens[0] != "p":
                raise ParseError(line_no, f"expected header line, got {raw!r}")
            if len(tokens) not in (4, 6) or tokens[1] != "cks" or tokens[4:5] not in ([], ["k"]):
                raise ParseError(line_no, "header must be 'p cks <n> <m> [k <k>]'")
            try:
                n, expected_edges, *rest = map(plain_int, tokens[2:4] + tokens[5:])
            except ValueError:
                raise ParseError(line_no, "header numbers must be plain decimal integers") from None
            if n > MAX_VERTICES:
                raise ParseError(line_no, f"header announces {n} vertices, more than {MAX_VERTICES}")
            k = rest[0] if rest else None
            header_line = line_no
            continue
        if tokens[0] != "e" or len(tokens) != 4:
            raise ParseError(line_no, f"expected edge line 'e <u> <v> <mult>', got {raw!r}")
        # plain_int's rule on an ASCII line, inlined: nearly all lines are edges
        _, a, b, c = tokens
        if not (a.isdigit() and b.isdigit() and c.isdigit()):
            raise ParseError(line_no, "edge fields must be plain decimal integers")
        try:
            u, v, mult = int(a), int(b), int(c)
        except ValueError as exc:  # more digits than int() reads
            raise ParseError(line_no, str(exc)) from None
        if u == v:
            raise ParseError(line_no, f"self-loop on vertex {u}")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise ParseError(line_no, f"vertex index out of range 1..{n}")
        if mult < 1:
            raise ParseError(line_no, "multiplicity must be at least 1")
        pair = (u, v) if u < v else (v, u)
        if pair in first:
            raise ParseError(line_no, f"duplicate edge line for pair {pair} (first on line {first[pair]})")
        first[pair] = line_no
        adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = mult

    if not header_line:
        raise ParseError(1, "missing header line")
    if len(first) != expected_edges:
        raise ParseError(
            header_line,
            f"header announces {expected_edges} edge lines but {len(first)} found",
        )
    # all n vertices only now, so that a bad file fails before allocating them
    return MultiGraph._from_checked({v: adj.get(v, {}) for v in range(1, n + 1)}), k


def write_instance(g: MultiGraph, k: Optional[int] = None) -> str:
    """Canonical text for a graph: vertices renumbered to 1..n in id order,
    edge lines sorted by endpoint pair."""
    renum = {v: i + 1 for i, v in enumerate(g.vertices)}
    # g's keys increase, so renumbering keeps the sorted order of edges()
    pairs = [(renum[u], renum[v], m) for u, v, m in g.edges()]
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
