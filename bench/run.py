"""countkernel benchmark: closed-loop ``count-fvs`` calls on seeded instance
families, with a separate traced run for per-layer numbers.

    python3 bench/run.py --workload kernel-sparse --seed 1 --seconds 35 --trace 0

Workloads: kernel-sparse, count-sparse, count-dense. Tune a change on seed 1
and confirm it on seed 2. The package is imported from the ``src`` next to
this directory, never from an installed copy.

One client issues the next call only after the previous one returns (closed
loop, one process, no threads). Each call is the user's command,
``countkernel.cli.main(["count-fvs", FILE, "-k", K, ...])``, on an instance
file written during set-up from the seed. Workloads, the reason for each
and the layer-to-metric predictions are in ``predictions.json``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes over the first pass of
the stream and reports per-layer metrics per pass, plus the tracing
overhead; its spans go to ``.bench_out/`` at the checkout root.

Progress and a readable summary go to standard output; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
WARMUP_TEXT = "p cks 5 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 1 5 1\n"


def import_package():
    """Import ``countkernel.cli`` from this checkout's ``src`` and return it
    with the import time; exit non-zero when the sources are absent."""
    src = ROOT / "src"
    if not (src / "countkernel" / "__init__.py").is_file():
        sys.exit(f"error: no countkernel sources under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    from countkernel import cli

    elapsed = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported countkernel from {cli.__file__}, not from {src}")
    return cli, elapsed


@dataclass
class Outcome:
    latency_s: float
    count_ok: bool
    size_ok: bool
    n_prime: Optional[int] = None
    k_prime: Optional[int] = None
    error: Optional[str] = None


def call(cli, argv: list[str]) -> tuple[float, str, Optional[str]]:
    """One operation: returns (seconds, stdout, error); the error is None
    only when the command returned exit code 0."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the benchmark keeps running and counts it
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return elapsed, out.getvalue(), error


def check(inst, latency: float, out: str, error, kernels: dict) -> Outcome:
    """Compare one call's output with the instance's reference answer."""
    if error is not None:
        return Outcome(latency, False, False, error=error)
    if inst.kernel:
        # text output: "path: reduced", "k': K", then the written instance
        head = out.split("\n", 2)
        fields = head[2].split("\n", 1)[0].split() if len(head) == 3 else []
        if (
            head[0] != "path: reduced"
            or len(fields) != 6
            or not (fields[2].isdigit() and fields[5].isdigit())
            or head[1] != f"k': {fields[5]}"
        ):
            return Outcome(latency, False, True, error=f"{inst.key}: unexpected output {out[:80]!r}")
        n_prime, k_prime = int(fields[2]), int(fields[5])
        want = kernels[inst.key]
        ok = (n_prime, k_prime, hashlib.sha256(head[2].encode()).hexdigest()) == (
            want["n_prime"],
            want["k_prime"],
            want["sha256"],
        )
        return Outcome(latency, ok, True, n_prime, k_prime, None if ok else f"{inst.key}: kernel differs from kernels.json")
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return Outcome(latency, False, False, error=f"{inst.key}: output is not a JSON object: {out[:80]!r}")
    count_ok = report.get("b") == inst.count
    size_ok = report.get("a") == inst.size
    return Outcome(
        latency,
        count_ok,
        size_ok,
        report.get("n_prime"),
        report.get("k_prime"),
        None if count_ok else f"{inst.key}: count {report.get('b')}, expected {inst.count}",
    )


def load_kernels() -> dict:
    """Recorded kernel outputs, after checking each against the kernel size
    bounds (approximation ratio 2) it was recorded with."""
    with open(BENCH / "kernels.json", encoding="utf-8") as handle:
        kernels = json.load(handle)["kernels"]
    for key, rec in kernels.items():
        k = rec["k"]
        if rec["v_neq2"] > 2 * k + 4 * k * k * (k + 4) or rec["chains"] > 2 * k + 8 * k * k * (k + 4):
            raise SystemExit(f"error: recorded kernel {key} breaks the kernel size bounds")
    return kernels


def setup(workload: str, seed: int, workloads) -> tuple[float, list, Path, dict]:
    """Generate the stream and write its instance files into a fresh
    directory in the checkout; returns (seconds, stream, dir, graph -> path)."""
    start = perf_counter()
    stream = workloads.make_stream(workload, seed)
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    paths = {}
    for batch in stream:
        for inst in batch:
            if inst.graph not in paths:
                path = tmp / f"g{len(paths)}.cks"
                path.write_text(inst.graph.text(), encoding="utf-8")
                paths[inst.graph] = str(path)
    (tmp / "warmup.cks").write_text(WARMUP_TEXT, encoding="utf-8")
    return perf_counter() - start, stream, tmp, paths


def run_one(cli, inst, paths, kernels) -> Outcome:
    argv = ["count-fvs", paths[inst.graph], "-k", str(inst.k), *inst.flags]
    latency, out, error = call(cli, argv)
    return check(inst, latency, out, error, kernels)


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def measure(cli, stream, paths, kernels, seconds: float) -> tuple[list[Outcome], float]:
    """Closed loop over the stream, wrapping around, until ``seconds`` pass
    (at least one call)."""
    flat = [inst for batch in stream for inst in batch]
    outcomes = []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while not outcomes or perf_counter() < deadline:
        outcomes.append(run_one(cli, flat[i % len(flat)], paths, kernels))
        i += 1
    return outcomes, perf_counter() - start


def end_to_end(outcomes: list[Outcome], elapsed: float, setup_s: float, batch_len: int) -> dict:
    lat = sorted(o.latency_s for o in outcomes)
    n = len(lat)
    tail = percentile(lat, TAIL_PERCENTILE)
    beyond = n - math.ceil(TAIL_PERCENTILE / 100 * n)
    print(f"{n} calls in {elapsed:.2f} s ({n / batch_len:.2f} passes of {batch_len})")
    print(f"latency_tail_s is p{TAIL_PERCENTILE} of {n} samples, {beyond} beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: too few samples for this percentile)"))
    count_fail = sum(not o.count_ok for o in outcomes) / n
    size_fail = sum(not o.size_ok for o in outcomes) / n
    print(f"count_fail_frac {count_fail:.4f}  size_fail_frac {size_fail:.4f}")
    return {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "instances_per_s": (n / elapsed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "count_ok_frac": (1 - count_fail, "ratio"),
        "size_ok_frac": (1 - size_fail, "ratio"),
    }


def traced(cli, stream, paths, kernels, seconds: float, out_path: Path, meta: dict):
    """Alternate untraced and traced passes over the first pass of the
    stream until ``seconds`` pass (at least one of each); returns per-layer
    metrics (the low median over traced passes, so each value is one pass's
    measurement) and all outcomes."""
    from tracer import Tracer

    batch = stream[0]
    tracer = Tracer()
    untraced_s, traced_s, per_pass, outcomes = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        outcomes.extend(run_one(cli, inst, paths, kernels) for inst in batch)
        untraced_s.append(perf_counter() - start)

        tracer.reset()
        tracer.recording = not traced_s
        tracer.install()
        try:
            start = perf_counter()
            pass_outcomes = []
            for i, inst in enumerate(batch):
                tracer.instance = i
                pass_outcomes.append(run_one(cli, inst, paths, kernels))
            traced_s.append(perf_counter() - start)
        finally:
            tracer.uninstall()
            tracer.recording = False
        outcomes.extend(pass_outcomes)
        layer = tracer.metrics()
        reduced = [o for o in pass_outcomes if o.n_prime is not None]
        layer["kernel_vertices"] = sum(o.n_prime for o in reduced)
        layer["kernel_k"] = sum(o.k_prime for o in reduced)
        per_pass.append(layer)
        if abs(tracer.self_time_check()) > 1e-6:
            print(f"warning: self times do not add up to cli time ({tracer.self_time_check():.3g} s)")
        if perf_counter() + untraced_s[-1] + traced_s[-1] > deadline:
            break

    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace_overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    for name in tracer.missing:
        print(f"missing: {name} was not found, so its counters are not reported")
    print(f"{len(per_pass)} traced and {len(untraced_s)} untraced passes of {len(batch)} calls; "
          f"trace overhead {metrics['trace_overhead']:.3f} "
          f"(traced {statistics.median(traced_s):.3f} s / untraced {statistics.median(untraced_s):.3f} s per pass)")
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path, meta)
    print(f"spans of the first traced pass: {out_path} ({len(tracer.spans)} spans)")
    return metrics, outcomes


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if ".bytes_" in name:
        return "bytes"
    if name.endswith((".share", "_ratio", "_yield", "trace_overhead")):
        return "ratio"
    return "count"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, import_s = import_package()
    import workloads  # needs the checkout's src on sys.path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    kernels = load_kernels() if args.workload == "kernel-sparse" else {}

    setups, tmp = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if tmp is not None:
                shutil.rmtree(tmp)
            seconds, stream, tmp, paths = setup(args.workload, args.seed, workloads)
            setups.append(seconds)
        setup_s = import_s + statistics.median(setups)
        print(f"workload {args.workload} seed {args.seed}: {len(paths)} instance files, "
              f"setup {setup_s:.3f} s (import {import_s:.3f} s + median of {setups})")

        bad = workloads.self_check(args.seed)
        for line in bad:
            print(f"self-check failed: {line}")
        call(cli, ["count-fvs", str(tmp / "warmup.cks"), "-k", "1", "--json"])

        if args.trace:
            out_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            meta = {"workload": args.workload, "seed": args.seed}
            metrics, outcomes = traced(cli, stream, paths, kernels, args.seconds, out_path, meta)
            report = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())}
        else:
            outcomes, elapsed = measure(cli, stream, paths, kernels, args.seconds)
            metrics = end_to_end(outcomes, elapsed, setup_s, len(stream[0]))
            report = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    finally:
        if tmp is not None:
            shutil.rmtree(tmp)

    failed = sum(not o.count_ok for o in outcomes)
    for o in [o for o in outcomes if o.error][:5]:
        print(f"failure: {o.error}")
    for name, entry in report.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0 and not bad, "attempted": len(outcomes), "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
