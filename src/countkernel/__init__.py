"""Counting kernelization for minimum feedback vertex sets, plus the
wide-diamond gadget for minimum dominating sets on planar graphs.

The library either computes the exact number of minimum solutions of size
at most k, or reduces to a poly(k)-sized instance of the same problem with
the identical count; everything is verified against brute-force oracles.
"""

from .chain_gadget import TOO_LONG, power_decompose, replace_all_chains, replace_chain
from .driver import ExactCount, KernelOutcome, Reduced, count_or_reduce
from .ds_gadget import (
    WideDiamond,
    diamond_observation_check,
    find_wide_diamonds,
    replace_all_wide_diamonds,
    replace_wide_diamond,
)
from .fvs_count import (
    INFEASIBLE,
    CountPair,
    count_min_fvs,
    count_min_fvs_pair,
    dj_fvs,
    fvs_compression,
    oplus,
)
from .graph_io import ParseError, parse_instance, to_dot, write_instance
from .multigraph import Chain, MultiGraph
from .oracle import brute_min_ds, brute_min_fvs, enumerate_min_ds, has_k5_or_k33_minor
from .reduce import (
    APPROX_RATIO,
    TRIVIALLY_ZERO,
    KernelBounds,
    apply_r1,
    apply_r2,
    approx_fvs,
    degree_reduce,
    kernelize_fvs,
)

__version__ = "0.1.0"

__all__ = [
    "APPROX_RATIO",
    "Chain",
    "CountPair",
    "ExactCount",
    "INFEASIBLE",
    "KernelBounds",
    "KernelOutcome",
    "MultiGraph",
    "ParseError",
    "Reduced",
    "TOO_LONG",
    "TRIVIALLY_ZERO",
    "WideDiamond",
    "apply_r1",
    "apply_r2",
    "approx_fvs",
    "brute_min_ds",
    "brute_min_fvs",
    "count_min_fvs",
    "count_min_fvs_pair",
    "count_or_reduce",
    "degree_reduce",
    "diamond_observation_check",
    "dj_fvs",
    "enumerate_min_ds",
    "find_wide_diamonds",
    "fvs_compression",
    "has_k5_or_k33_minor",
    "kernelize_fvs",
    "oplus",
    "parse_instance",
    "power_decompose",
    "replace_all_chains",
    "replace_all_wide_diamonds",
    "replace_chain",
    "replace_wide_diamond",
    "to_dot",
    "write_instance",
]
