"""Self-tests of the benchmark: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import catalog
import run
import workloads
from harness import NullTracer, Run, layer_times

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_workload(name, trace, benchmark_json):
    result = run.run(workloads.TINY[name], seed=3, seconds=2, trace=trace, out_dir=None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    listed = benchmark_json["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    for entry in listed:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_counts_repeat_for_a_seed():
    counts = [name for name, _, _, kind, _ in catalog.PER_LAYER if kind == "count"]
    first, second = (
        run.run(workloads.TINY["walk"], seed=11, seconds=2, trace=True, out_dir=None)["metrics"]
        for _ in range(2)
    )
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["sandpile.topples"]["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_wrong_output_counts_as_failure(name):
    """Corrupt each op's outputs before the unchanged checker sees them: every
    op must fail, and the run must still finish."""
    workload = workloads.TINY[name]

    class Corrupted:
        def __getattr__(self, attr):
            return getattr(workload, attr)

        def run(self, pkg, ctx, tr, seed):
            return corrupt(name, workload.run(pkg, ctx, tr, seed))

    bench = Run(Corrupted(), run.SRC, seed=5, seconds=2)
    pkg, _ = bench.setup(NullTracer())
    bench.timed(pkg, NullTracer())
    assert bench.attempted == len(bench.failures) > 0


def corrupt(name, outputs):
    if name == "walk":
        est, replayed = outputs
        return replace(est, mean=est.mean + 1.0), replayed
    out = dict(outputs)
    if name == "identity":
        out["svg"] = out["svg"].replace(b"rgb(", b"rgb(1", 1)
    else:
        out["det"] = out["det"] + 1
    return out


def test_checkers_reject_single_corruptions():
    walk = workloads.TINY["walk"]
    bench = Run(walk, run.SRC, seed=5, seconds=1)
    pkg, _ = bench.setup(NullTracer())
    est, _ = walk.run(pkg, bench.ctx, NullTracer(), 1)
    assert walk.check(bench.ctx, (est, None)) == []
    assert walk.check(bench.ctx, (est, est.mean + 0.5))
    assert walk.check(bench.ctx, (replace(est, expected=0.5), None))

    exact = workloads.TINY["exact"]
    bench = Run(exact, run.SRC, seed=5, seconds=1)
    pkg, _ = bench.setup(NullTracer())
    out = exact.run(pkg, bench.ctx, NullTracer(), 1)
    assert exact.check(bench.ctx, out) == []
    bad_adjugate = [row[:] for row in out["adjugate"]]
    bad_adjugate[0][0] += 1
    bad_snf = (0, out["snf"][1].replace('"2310"', '"2311"'))
    for key, value in (("adjugate", bad_adjugate), ("snf", bad_snf), ("tau", (1, 2))):
        assert exact.check(bench.ctx, {**out, key: value}), key


def test_busy_and_self_time_from_spans():
    spans = [
        ["bench.op", 0.0, 10.0, -1, 0],
        ["replay.walk", 1.0, 9.0, 0, 0],
        ["sandpile.stabilize", 2.0, 4.0, 1, 0],
        ["sandpile.stabilize", 5.0, 6.0, 1, 0],
        ["group.determinant", 9.0, 9.5, 0, 0],
    ]
    busy, self_t = layer_times(spans)
    assert busy == {"bench": 10.0, "replay": 8.0, "sandpile": 3.0, "group": 0.5}
    assert self_t == {"bench": 1.5, "replay": 5.0, "sandpile": 3.0, "group": 0.5}


def test_benchmark_json_matches_catalog(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in benchmark_json["workloads"]] == list(catalog.WORKLOADS)
    assert [w["why"] for w in benchmark_json["workloads"]] == list(catalog.WORKLOADS.values())
    assert benchmark_json["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in catalog.END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _, _ in catalog.PER_LAYER
    ]
    assert list(workloads.WORKLOADS) == list(catalog.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
