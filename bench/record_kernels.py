"""Record the reference outputs of every ``kernel-sparse`` instance into
``kernels.json``.

    python3 bench/record_kernels.py

For each catalog entry this runs ``count-fvs FILE -k K`` (text output) and
stores n', k' and the SHA-256 of the written instance, and it runs
``kernelize_fvs`` to store the kernel's |V_neq2| and chain count, which
must lie within the kernel size bounds. The benchmark then compares every
output with these values. Re-record only when a change to the kernel's
output is intended, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, call, import_package


def main() -> int:
    cli, _ = import_package()
    import workloads
    from countkernel.multigraph import MultiGraph
    from countkernel.reduce import APPROX_RATIO, KernelBounds, kernelize_fvs

    kernels = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        for family, inst in workloads.kernel_catalog():
            path = Path(tmp) / "instance.cks"
            path.write_text(inst.graph.text(), encoding="utf-8")
            _, out, error = call(cli, ["count-fvs", str(path), "-k", str(inst.k), *inst.flags])
            head = out.split("\n", 2)
            if error or head[0] != "path: reduced":
                sys.exit(f"error: {inst.key} did not reduce: {error or head[0]}")
            text = head[2]
            fields = text.split("\n", 1)[0].split()
            mid, _ = kernelize_fvs(MultiGraph(range(1, inst.graph.n + 1), inst.graph.edges), inst.k)
            bounds = KernelBounds(APPROX_RATIO, inst.k)
            v_neq2, chains = len(mid.v_neq2()), len(mid.chains())
            if v_neq2 > bounds.max_v_neq2 or chains > bounds.max_chains:
                sys.exit(f"error: kernel of {inst.key} breaks the size bounds")
            kernels[inst.key] = {
                "family": family,
                "n": inst.graph.n,
                "k": inst.k,
                "n_prime": int(fields[2]),
                "k_prime": int(fields[5]),
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "v_neq2": v_neq2,
                "chains": chains,
            }
            print(f"{inst.key}: n'={fields[2]} k'={fields[5]} |V_neq2|={v_neq2} chains={chains}", flush=True)
    with open(BENCH / "kernels.json", "w", encoding="utf-8") as handle:
        json.dump({"kernels": kernels}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
