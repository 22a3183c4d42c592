"""One-off level sweep: times each layer's public call once at levels 3-6.

    python3 perfbench/sweep.py [--out .bench_out/sweep.json]

Not part of the benchmark's runs and not gated.  Every cell starts with the
package's caches cleared and times one call; inputs are prepared outside the
timed call.  Cells expected to take more than about ten seconds (from the
baseline table in ROADMAP.md and the growth with level) are skipped and
listed with the reason.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import run
from harness import clear_caches, load_package, package_caches

LEVELS = (3, 4, 5, 6)
TOO_SLOW = "expected above ~10 s"


def cells(pkg):
    """(name, levels run, prepare(level) -> args, call(*args))."""
    gk, sp, ss, grp, mk, rd = pkg.gasket, pkg.sandpile, pkg.selfsim, pkg.group, pkg.markov, pkg.render
    graph = gk.build_gasket
    lap = lambda lv: gk.reduced_laplacian(graph(lv))  # noqa: E731
    order = lambda lv: abs(grp.determinant(lap(lv)))  # noqa: E731

    def build(lv):
        gk._build_gasket.cache_clear()
        return gk.reduced_laplacian(gk.build_gasket(lv))

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main(list(argv))

    def warm_identity(lv):
        sp.identity(graph(lv))
        return graph(lv), 2000, 0

    def warm_basis(lv):
        grp.lattice_data(graph(lv)).U
        return graph(lv), random.Random(0)

    return [
        ("gasket.build", LEVELS, lambda lv: (lv,), build),
        ("sandpile.identity", LEVELS, lambda lv: (graph(lv),), sp.identity),
        ("sandpile.burn", LEVELS, lambda lv: (ss.identity_from_tiles(lv),), sp.is_recurrent_burning),
        ("selfsim.tiles", LEVELS, lambda lv: (lv,), ss.identity_from_tiles),
        ("selfsim.doubling", LEVELS, lambda lv: (lv,), ss.verify_doubling),
        ("group.determinant", (3, 4, 5), lambda lv: (lap(lv),), grp.determinant),
        ("group.smith_diag", (3, 4), lambda lv: (lap(lv), order(lv)), grp.smith_mod),
        ("group.adapted_basis", (3,), lambda lv: (lap(lv), order(lv), True), grp.smith_mod),
        ("group.adjugate", (3, 4), lambda lv: (lap(lv),), grp.scaled_inverse),
        ("group.theorem", (3, 4), lambda lv: (lv,), grp.check_group_theorem),
        ("group.tau_matrix_tree", (3, 4, 5), lambda lv: (lv,), grp.tau_matrix_tree),
        ("markov.chain_2000_steps", LEVELS, warm_identity, mk.run_chain),
        ("markov.sample_stationary", (3,), warm_basis, mk.sample_stationary),
        ("render.ppm", LEVELS, lambda lv: (ss.identity_from_tiles(lv),), rd.render_ppm),
        ("render.svg", LEVELS, lambda lv: (ss.identity_from_tiles(lv),), rd.render_svg),
        ("cli.group_snf", (3, 4), lambda lv: ("group", "snf", "--level", str(lv), "--json"), cli),
        ("cli.markov_report", LEVELS, lambda lv: ("markov", "report", "--level", str(lv), "--json"), cli),
    ]


def sweep() -> dict:
    pkg = load_package(run.SRC)
    caches = package_caches(pkg)
    table = {}
    for name, levels, prepare, call in cells(pkg):
        row = {}
        for lv in LEVELS:
            if lv not in levels:
                row[str(lv)] = TOO_SLOW
                continue
            clear_caches(caches)
            args = prepare(lv)
            start = time.perf_counter()
            call(*args)
            row[str(lv)] = time.perf_counter() - start
        table[name] = row
        print(f"{name:26s}" + "".join(
            f"{v:>12.4f}" if isinstance(v, float) else f"{'skipped':>12s}" for v in row.values()
        ), flush=True)
    # Character enumeration is capped at groups of order 10**6, which only
    # level 1 meets; the exact workload covers it there.
    return {"machine": run.machine_info(), "levels": list(LEVELS), "seconds": table,
            "skipped": {"reason": TOO_SLOW, "spectral": "group order above the enumeration cap at level >= 2"}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=run.OUT / "sweep.json")
    args = parser.parse_args(argv)
    if not (run.SRC / "gasketpile" / "__init__.py").is_file():
        print(f"error: no gasketpile package under {run.SRC}", file=sys.stderr)
        return 2
    print(f"{'layer call':26s}" + "".join(f"{'L' + str(lv):>12s}" for lv in LEVELS))
    result = sweep()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
