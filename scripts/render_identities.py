#!/usr/bin/env python3
"""Render the sandpile identity for a range of levels.

Writes one image per level into the output directory and prints the chip
value histogram, confirming the two-value structure of the identity.  Each
identity, written cell by cell from the paper's characterization, is checked
against stabilization of the zero class.

Example:
    python scripts/render_identities.py --min-level 2 --max-level 5 --out out/
"""

import argparse
from collections import Counter
from pathlib import Path

from gasketpile.gasket import build_gasket
from gasketpile.render import RenderSpec, render_buffer
from gasketpile.sandpile import identity, recurrent_rep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-level", type=int, default=2)
    parser.add_argument("--max-level", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--format", choices=("ppm", "svg"), default="ppm")
    parser.add_argument("--scale", type=int, default=12)
    args = parser.parse_args()
    if args.min_level < 0:
        parser.error("a gasket level is at least 0: --min-level must not be negative")

    args.out.mkdir(parents=True, exist_ok=True)
    spec = RenderSpec(fmt=args.format, scale=args.scale)
    for level in range(args.min_level, args.max_level + 1):
        graph = build_gasket(level)
        conf = identity(graph)
        assert conf == recurrent_rep(graph, [0] * graph.n_vertices), "the characterization disagrees with stabilization"
        path = args.out / f"identity_level{level}.{args.format}"
        path.write_bytes(render_buffer(conf, spec))
        hist = Counter(conf.chips)
        values = " ".join(f"{v}x{hist[v]}" for v in sorted(hist))
        print(f"level {level}: {conf.graph.n_vertices} vertices, chips {values} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
