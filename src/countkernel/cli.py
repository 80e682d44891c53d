"""Command-line surface.

    countkernel count-fvs FILE -k K [--solve] [--chain-cap N] [--json]
    countkernel oracle FILE -k K --problem fvs|ds
    countkernel replace FILE -k K --what chains|diamonds [-o FILE]
    countkernel gen FAMILY ARGS... [-k K] [-o FILE]

Exit code 0 on success, 2 on parse or precondition errors, 3 on internal
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from . import generators, graph_io
from .chain_gadget import replace_all_chains
from .driver import ExactCount, Reduced, count_or_reduce
from .ds_gadget import replace_all_wide_diamonds
from .fvs_count import count_min_fvs_pair
from .graph_io import ParseError, parse_instance, plain_int, write_instance
from .multigraph import MultiGraph
from .oracle import brute_min_ds, brute_min_fvs


def _int(text: str) -> int:
    """A number argument: the instance file's plain decimal, after an
    optional '-'; each command checks the range."""
    return -plain_int(text[1:]) if text.startswith("-") else plain_int(text)


def _chain_cap(value: str):
    if value.lower() in ("inf", "none"):
        return None
    cap = _int(value)
    if cap < 1:
        raise argparse.ArgumentTypeError("chain cap must be positive or 'inf'")
    return cap


#: Per ``gen`` family: its argument names, its vertex count from the
#: arguments, and its generator.
_FAMILIES = {
    "cycle": ("n", lambda n: n, generators.cycle_graph),
    "theta": ("l1 l2 l3", lambda *ls: 2 + sum(l - 1 for l in ls), generators.theta_graph),
    "grid": ("rows cols", lambda rows, cols: rows * cols, generators.grid_graph),
    "random": ("n m seed", lambda n, m, seed: n, generators.random_multigraph),
    "diamond-host": ("size", lambda size: size + 2, generators.diamond_host),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countkernel",
        description="Counting kernelization for minimum feedback vertex sets, "
        "with gadget replacement and brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count-fvs", help="count minimum FVSs or reduce the instance")
    p_count.add_argument("file")
    p_count.add_argument("-k", type=_int, default=None, help="parameter; overrides the file header")
    p_count.add_argument("--solve", action="store_true", help="also count on the reduced instance")
    p_count.add_argument(
        "--chain-cap",
        type=_chain_cap,
        default=4096,
        help="chain replacement threshold; 'inf' means the pure 2^k rule (default 4096)",
    )
    p_count.add_argument("--json", action="store_true", dest="as_json")

    p_oracle = sub.add_parser("oracle", help="brute-force count on a small instance")
    p_oracle.add_argument("file")
    p_oracle.add_argument("-k", type=_int, default=None)
    p_oracle.add_argument("--problem", choices=("fvs", "ds"), required=True)

    p_replace = sub.add_parser("replace", help="rewrite chains or wide diamonds as gadgets")
    p_replace.add_argument("file")
    p_replace.add_argument("-k", type=_int, default=None)
    p_replace.add_argument("--what", choices=("chains", "diamonds"), required=True)
    p_replace.add_argument("-o", "--output", default=None)

    p_gen = sub.add_parser("gen", help="generate a deterministic instance")
    p_gen.add_argument("family", choices=tuple(_FAMILIES))
    p_gen.add_argument("args", type=_int, nargs="*")
    p_gen.add_argument("-k", type=_int, default=None, help="parameter to embed in the header")
    p_gen.add_argument("--promote2", type=float, default=0.0, help="multiplicity-2 probability (random family)")
    p_gen.add_argument("-o", "--output", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import; parsing leaves the parser unchanged
    return build_parser()


def _load(path: str, k_flag: Optional[int]) -> tuple[MultiGraph, int]:
    with open(path, encoding="utf-8") as handle:
        graph, k_file = parse_instance(handle.read())
    k = k_flag if k_flag is not None else k_file
    if k is None:
        raise ValueError("no parameter: pass -k or put 'k <value>' in the header")
    return graph, k


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_count_fvs(args) -> int:
    graph, k = _load(args.file, args.k)
    # a finite cap replaces the pure 2^k threshold, so small runs can force
    # either branch of the dichotomy
    outcome = count_or_reduce(graph, k, chain_threshold=args.chain_cap)

    report = {"path": outcome.path, "a": None, "b": None, "n_prime": None, "k_prime": None}
    lines = [f"path: {outcome.path}"]
    if isinstance(outcome, ExactCount):
        report["a"] = outcome.size
        report["b"] = outcome.count
        lines.append(f"count: {outcome.count}")
    else:
        assert isinstance(outcome, Reduced)
        report["n_prime"] = outcome.graph.num_vertices
        report["k_prime"] = outcome.k
        lines.append(f"k': {outcome.k}")
        if args.solve:
            pair = count_min_fvs_pair(outcome.graph, outcome.k)
            # the gadgets raise the minimum size by exactly k' - k
            report["a"] = None if math.isinf(pair.size) else pair.size - (outcome.k - k)
            report["b"] = pair.count
            lines.append(f"count: {pair.count}")

    if args.as_json:
        sys.stdout.write(json.dumps(report) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
        if isinstance(outcome, Reduced):
            sys.stdout.write(write_instance(outcome.graph, outcome.k))
    return 0


def _cmd_oracle(args) -> int:
    graph, k = _load(args.file, args.k)
    if args.problem == "fvs":
        pair = brute_min_fvs(graph, k)
    else:
        pair = brute_min_ds(graph, k)
    size = "inf" if math.isinf(pair.size) else pair.size
    sys.stdout.write(f"{size} {pair.count}\n")
    return 0


def _cmd_replace(args) -> int:
    graph, k = _load(args.file, args.k)
    if args.what == "chains":
        # no chain has more than n vertices, so none is too long
        new_graph, new_k = replace_all_chains(graph, k, max(graph.num_vertices, 1))
    else:
        new_graph, new_k = replace_all_wide_diamonds(graph, k)
    _emit(write_instance(new_graph, new_k), args.output)
    return 0


def _cmd_gen(args) -> int:
    family, params = args.family, args.args
    names, vertex_count, build = _FAMILIES[family]
    if len(params) != len(names.split()):
        raise ValueError(f"family '{family}' expects arguments: {names}")
    # refuse before building what parse_instance would refuse to read
    n, limit = vertex_count(*params), graph_io.MAX_VERTICES
    if n > limit:
        raise ValueError(f"family '{family}' would have {n} vertices, more than {limit}")
    # sampling holds every pair it draws, so bound the edge count as well
    if family == "random" and params[1] > limit:
        raise ValueError(f"family 'random' would have {params[1]} edges, more than {limit}")
    extra = {"promote2": args.promote2} if family == "random" else {}
    _emit(write_instance(build(*params, **extra), args.k), args.output)
    return 0


_COMMANDS = {
    "count-fvs": _cmd_count_fvs,
    "oracle": _cmd_oracle,
    "replace": _cmd_replace,
    "gen": _cmd_gen,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the file's k is a plain decimal; only the flag can be negative
        if args.k is not None and args.k < 0:
            raise ValueError("parameter k must be nonnegative")
        return _COMMANDS[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # RecursionError included
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
