#!/usr/bin/env python3
"""Tabulate mixing-time bounds for the chip-adding walk across levels.

For each level the table shows the vertex count, the spectral gap bound,
and the analytic lower/upper bounds on the mixing time.  For levels whose
group fits under the group-order cap the exact total-variation mixing time
is read off `markov.exact_tv_curve`; optionally a Monte Carlo estimate of
the distinguishing-statistic decay at every level is appended, from
`markov.mixing_report`, which reads each trajectory once for all times.

Example:
    python scripts/mixing_table.py --max-level 8 --exact-levels 1 --trials 2000
"""

import argparse

from gasketpile import markov
from gasketpile.cli import check_draws
from gasketpile.gasket import build_gasket
from gasketpile.spectral import GroupTooLargeError


def exact_mixing_time(level: int) -> int | None:
    """First t with TV distance <= 1/4, or None when the group is too big."""
    graph = build_gasket(level)
    horizon = markov.upper_bound_t(level)
    try:
        curve = markov.exact_tv_curve(graph, horizon)
    except GroupTooLargeError:
        return None
    for t, value in enumerate(curve):
        if value <= 0.25:
            return t
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=8)
    parser.add_argument("--exact-levels", type=int, default=1,
                        help="compute the exact mixing time up to this level")
    parser.add_argument("--trials", type=int, default=0,
                        help="Monte Carlo trials for the decay estimates (0 = skip)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    # Every level reads `trials` trajectories once but counts their draws
    # once per time in CHI_TIMES; each is charged per time, as the CLI's
    # `markov report` charges it, since that is what the counting costs.
    trials = args.trials * max(args.max_level, 0)
    check_draws(parser, trials * sum(markov.CHI_TIMES), trials * len(markov.CHI_TIMES))

    header = f"{'level':>5} {'vertices':>9} {'gap<=':>10} {'t_lower':>8} {'t_upper':>8} {'t_exact':>8}"
    print(header)
    print("-" * len(header))
    decay = []
    for level in range(1, args.max_level + 1):
        # One read of each trajectory gives the estimates at every time in CHI_TIMES.
        report = markov.mixing_report(level, chi_trials=args.trials, seed=args.seed)
        decay += report.chi_decay
        exact = exact_mixing_time(level) if level <= args.exact_levels else None
        print(
            f"{level:>5} {report.n_vertices:>9} {report.spectral_gap_upper:>10.6f} "
            f"{report.lower_bound_t:>8} {report.upper_bound_t:>8} "
            f"{exact if exact is not None else '-':>8}"
        )

    if args.trials:
        print()
        print(f"decay of the distinguishing statistic, {args.trials} trials per point")
        print(f"{'level':>5} {'t':>4} {'mean':>10} {'stderr':>10} {'predicted':>10}")
        for est in decay:
            print(
                f"{est.level:>5} {est.t:>4} {est.mean:>10.5f} {est.stderr:>10.5f} "
                f"{est.expected:>10.5f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
