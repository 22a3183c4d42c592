"""Benchmark of gasketpile: one closed-loop client in one process.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A traced run also
writes its spans to `.bench_out/trace-<workload>-<seed>.json`.  Without a
`src/gasketpile` package next to this directory the run exits with code 2.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures one client in one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import statistics
import sys
from pathlib import Path

import numpy

from catalog import END_TO_END, PER_LAYER, SPAN_LAYERS
from harness import NullTracer, Run, Tracer, layer_times, span_durations, span_total, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas_threads": 1,
        "processes": 1,
        "clients": 1,
    }


def percentile(values: list, q: float):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tracer, setup_spans, bench, untraced_ops, traced_ops) -> dict:
    """The per-layer metrics from a traced timed phase (and the traced
    set-ups, for the graph build).  Span times are as measured; the two
    phases' wall times, which are compared for the tracing overhead, are
    scaled to the nominal machine speed like the end-to-end metrics."""
    spans, samples = tracer.spans, tracer.samples
    total = lambda name: span_total(spans, name)  # noqa: E731
    builds: dict = {}
    for name, start, end, _, op in setup_spans:
        if name == "gasket.build":
            builds[op] = builds.get(op, 0.0) + end - start
    calls = span_durations(spans, "sandpile.stabilize")
    avalanches = samples.get("sandpile.avalanche", [])
    topples = sum(avalanches)
    steps = sum(samples.get("markov.steps", []))
    busy, self_t = layer_times(spans)
    replay = busy.get("replay", 0.0)
    m = {
        "gasket.build_s": statistics.median(builds.values()),
        "sandpile.stabilize_calls": len(calls),
        "sandpile.topples": topples,
        "sandpile.stabilize_s": sum(calls),
        "sandpile.topples_per_s": ratio(topples, sum(calls)),
        "sandpile.call_us_p50": statistics.median(calls) * 1e6 if calls else 0.0,
        "sandpile.avalanche_p50": percentile(avalanches, 50),
        "sandpile.avalanche_p99": percentile(avalanches, 99),
        "sandpile.identity_s": total("sandpile.identity"),
        "sandpile.burn_s": total("sandpile.burn"),
        "selfsim.tiles_s": total("selfsim.tiles"),
        "selfsim.doubling_s": total("selfsim.doubling"),
        "selfsim.junction_s": total("selfsim.junction"),
        "markov.chi_decay_s": total("markov.chi_decay"),
        "markov.steps": steps,
        "markov.steps_per_s": ratio(steps, total("markov.chi_decay")),
        "markov.stabilizing_step_ratio": ratio(len(calls), steps),
        "markov.sample_stationary_s": total("markov.sample_stationary"),
        "markov.exact_tv_s": total("markov.exact_tv"),
        "group.determinant_s": total("group.determinant"),
        "group.smith_diag_s": total("group.smith_diag"),
        "group.adapted_basis_s": total("group.adapted_basis"),
        "group.adjugate_s": total("group.adjugate"),
        "group.theorem_s": total("group.theorem"),
        "group.tau_matrix_tree_s": total("group.tau_matrix_tree"),
        "group.order_bits": max(samples.get("group.order_bits", [0])),
        "spectral.characters": sum(samples.get("spectral.characters", [])),
        "spectral.characters_s": total("spectral.characters"),
        "spectral.distance_s": total("spectral.distance"),
        "render.ppm_s": total("render.ppm"),
        "render.svg_s": total("render.svg"),
        "render.bytes": sum(samples.get("render.bytes", [])),
        "cli.snf_s": total("cli.snf"),
        "cli.report_s": total("cli.report"),
    }
    for layer in SPAN_LAYERS:
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        m[f"{layer}.self_s"] = self_t.get(layer, 0.0)
    replay_by_op: dict = {}
    for name, start, end, _, op in spans:
        if name.startswith("replay."):
            replay_by_op[op] = replay_by_op.get(op, 0.0) + end - start
    untraced = sum((end - start) * bench.speed(start, end) for _, start, end in untraced_ops)
    traced = sum(
        (end - start - replay_by_op.get(i, 0.0)) * bench.speed(start, end)
        for i, (_, start, end) in enumerate(traced_ops)
    )
    m["trace.wall_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    m["trace.replay_s"] = replay
    m["trace.spans"] = len(spans)
    return m


def write_trace(path: Path, header: dict, setup_spans: list, tracer) -> None:
    """Spans as columns (name, start, end, parent, op), set-up spans first."""
    spans = setup_spans + tracer.spans
    offset = len(setup_spans)
    columns = {
        "name": [s[0] for s in spans],
        "start": [s[1] for s in spans],
        "end": [s[2] for s in spans],
        "parent": [s[3] if i < offset or s[3] < 0 else s[3] + offset for i, s in enumerate(spans)],
        "op": [s[4] for s in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**header, "spans": columns, "samples": tracer.samples}, fh)


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path | None = OUT) -> dict:
    """One run; returns the result object printed as the last line."""
    bench = Run(workload, SRC, seed, seconds)
    tracer = Tracer() if trace else NullTracer()
    pkg, setups = bench.setup(tracer)
    ops = bench.timed(pkg, NullTracer())
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "timed_ops": bench.ops,
        "warmup_ops": len(setups),
        "op_tail_percentile": tail_percentile(bench.ops),
        "machine": machine_info(),
    }
    print(
        f"{workload.name}: {bench.ops} timed ops after {len(setups)} set-ups; "
        f"op_tail_s is p{info['op_tail_percentile']:.1f} of {bench.ops} ops"
    )
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info["machine"].items()))
    if trace:
        setup_spans, tracer.spans, tracer.samples = tracer.spans, [], {}
        metrics = per_layer(tracer, setup_spans, bench, ops, bench.timed(pkg, tracer))
        names = PER_LAYER
        if out_dir is not None:
            path = out_dir / f"trace-{workload.name}-{seed}.json"
            layers = {name: {"unit": unit, "kind": kind, "moves": moves} for name, unit, _, kind, moves in PER_LAYER}
            header = {**info, "metrics": metrics, "layers": layers}
            write_trace(path, header, setup_spans, tracer)
            print(f"spans written to {path}")
    else:
        raw = bench.end_to_end(setups, ops, scaled=False)
        print("as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        speeds = sorted(bench.speed(start, end) for _, start, end in ops)
        print(f"machine speed x{statistics.median(speeds):.4f} of nominal ({speeds[0]:.3f}-{speeds[-1]:.3f})")
        metrics = bench.end_to_end(setups, ops)
        names = END_TO_END
    for failure in bench.failures[:10]:
        print("FAILED " + failure)
    units = {entry[0]: entry[1] for entry in names}
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gasketpile" / "__init__.py").is_file():
        print(f"error: no gasketpile package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
