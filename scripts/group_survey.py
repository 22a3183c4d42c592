#!/usr/bin/env python3
"""Survey the sandpile group across levels.

Prints the group order, the invariant factor decomposition, the spanning
tree count by both methods, and the three-copy decomposition check.

Example:
    python scripts/group_survey.py --max-level 5
"""

import argparse
import math
import time

from gasketpile import group
from gasketpile.gasket import build_gasket


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=5)
    parser.add_argument("--theorem-max-level", type=int, default=4)
    args = parser.parse_args()

    for level in range(args.max_level + 1):
        start = time.monotonic()
        graph = build_gasket(level)
        factors = group.sandpile_group_invariants(graph)
        order = group.sandpile_group_order(graph)
        assert math.prod(factors) == order
        tau = group.tau_recursion(level)
        assert group.tau_matrix_tree(level) == tau
        elapsed = time.monotonic() - start
        print(f"level {level} ({graph.n_vertices} vertices, {elapsed:.2f}s)")
        print(f"  group order      {group.digits(order)}")
        print(f"  invariant factors {' '.join(map(str, factors))}")
        print(f"  spanning trees   {group.digits(tau)} (recursion == matrix-tree)")

    print()
    for level in range(1, args.theorem_max_level + 1):
        start = time.monotonic()
        report = group.check_group_theorem(level)
        verdict = "pass" if report.passed else "FAIL"
        print(
            f"three-copy decomposition at level {level}: {verdict} "
            f"(convention {report.convention}, quotient order {group.digits(report.lhs_order)}, "
            f"{time.monotonic() - start:.2f}s)"
        )
        if not report.passed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
