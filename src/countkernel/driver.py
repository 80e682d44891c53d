"""Top-level dichotomy: either produce the exact number of minimum FVSs of
size at most k, or a poly(k)-sized instance with the identical count."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .chain_gadget import TOO_LONG, replace_all_chains
from .fvs_count import count_min_fvs_pair
from .multigraph import MultiGraph
from .reduce import TRIVIALLY_ZERO, check_k, kernelize_fvs


@dataclass(frozen=True)
class ExactCount:
    """The count was determined outright during preprocessing."""

    count: int
    path: str  # "trivially-zero" or "direct-count"
    size: Optional[int] = None  # minimum solution size, when it was computed


@dataclass(frozen=True)
class Reduced:
    """A small instance with the same count as the input."""

    graph: MultiGraph
    k: int
    path: str = "reduced"


KernelOutcome = Union[ExactCount, Reduced]


def count_or_reduce(
    g: MultiGraph, k: int, chain_threshold: Optional[int] = None
) -> KernelOutcome:
    """Kernelize, then replace chains when they are short enough, else count
    directly.

    ``chain_threshold`` defaults to 2**k: longer chains mean the instance is
    already huge relative to k and the exponential-in-k counter runs in
    polynomial time. A finite override lets small-scale runs reach the
    direct-count branch (low values) or the reduction branch (high values).

    ``ExactCount.size`` is the minimum size for ``g`` itself: the kernel
    peels k - k_out forced vertices, which every solution contains.
    """
    check_k(k)
    if chain_threshold is not None and (type(chain_threshold) is not int or chain_threshold < 1):
        raise ValueError("threshold must be a positive integer")
    kern = kernelize_fvs(g, k)
    if kern is TRIVIALLY_ZERO:
        return ExactCount(0, "trivially-zero")
    mid, mid_k = kern
    peeled = k - mid_k
    if mid.num_vertices == 0:
        # the rules dissolved the instance; the peeled vertices are its
        # unique minimum feedback vertex set
        return ExactCount(1, "direct-count", size=peeled)
    if chain_threshold is None:
        # no chain has more than n vertices, so 2**k only matters while it
        # is below n; comparing bit lengths never builds a k-bit integer
        n = mid.num_vertices
        chain_threshold = 1 << k if k < n.bit_length() else n
    replaced = replace_all_chains(mid, mid_k, chain_threshold)
    if replaced is TOO_LONG:
        pair = count_min_fvs_pair(mid, mid_k)
        size = pair.size + peeled if pair.count else None
        return ExactCount(pair.count, "direct-count", size)
    out_graph, out_k = replaced
    return Reduced(out_graph, out_k)
