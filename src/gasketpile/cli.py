"""Command line interface.

Subcommands mirror the library modules: gasket (graph export), sandpile
(stabilize / identity / burn), selfsim (id / verify), group (snf /
check-theorem / tau), spectral (eigs / distance), markov (simulate / report),
and render.  Exit status is 0 on success, 1 when a verification-style
subcommand reports failure, 2 on usage errors.

Every `--level` runs from 0 to 10, or from 1 to 10 for the commands that
need a level-1 cell or the three sub-gaskets (`selfsim id`, `selfsim
verify`, `group check-theorem`, `spectral eigs`, `markov simulate` and
`markov report`).  At level 10 (88,575 vertices) each command finishes
within about 2 s on a 2-core VM, most in 0.3-0.9 s; level 11 builds 265,722
vertices, three times as many.  argparse refuses any other level with exit
2 before a graph is built.  A single trajectory (`markov simulate` with one
trial) runs to level 7.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial

from . import group, markov, render, selfsim, spectral
from .gasket import (
    CORNER_NAMES,
    GasketGraph,
    build_gasket,
    graph_to_json,
    parse_boundary,
)
from .sandpile import (
    burning_odometer,
    config_from_json,
    config_from_text,
    config_to_json,
    config_to_text,
    identity,
    stabilize,
)


def _read_config(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        return config_from_json(json.loads(stripped))
    return config_from_text(stripped)


def _graph_arg(args) -> GasketGraph:
    return build_gasket(args.level, parse_boundary(args.boundary))


def _print(data: dict, as_json: bool, human: list[str]):
    if as_json:
        print(json.dumps(data))
    else:
        for line in human:
            print(line)


_LEVEL_CAP = 10
_CAP_WHY = (
    "level 11 builds a gasket of 265,722 vertices, three times level 10's, "
    "and its junction check builds level 12, nine times level 10's"
)
_TRAJECTORY_WHY = "one trajectory stabilizes its draw counts: about 2 s at level 7 and 23 s at level 8"


def _add_level(p, low=0):
    """Declare `--level` with the range low.._LEVEL_CAP, so that argparse
    refuses any other level with exit 2 before a handler runs."""

    def level(text: str) -> int:
        value = int(text)
        if value > _LEVEL_CAP:
            raise argparse.ArgumentTypeError(f"must be between {low} and {_LEVEL_CAP}: {_CAP_WHY}")
        if value < low:
            why = "level 0 has no level-1 cells or sub-gaskets" if low else "a level is not negative"
            raise argparse.ArgumentTypeError(f"must be between {low} and {_LEVEL_CAP}: {why}")
        return value

    p.add_argument("--level", type=level, required=True)


# Monte Carlo requests above this many draws are refused, each trajectory
# counting as _TRIAL_DRAWS more for seeding its generator and counting its
# draws: at the budget a command takes at most about 5-10 s on a 2-core VM.
_DRAW_BUDGET = 10**8
_TRIAL_DRAWS = 500


def check_draws(parser, draws, trajectories):
    """Refuse through `parser.error` (exit 2) a Monte Carlo request over the
    draw budget; `scripts/mixing_table.py` shares it."""
    if draws + trajectories * _TRIAL_DRAWS > _DRAW_BUDGET:
        parser.error(
            f"{draws:,} draws over {trajectories:,} trajectories exceed the Monte Carlo budget of "
            f"{_DRAW_BUDGET:,} draws (each trajectory counts as {_TRIAL_DRAWS} draws more)"
        )


def cmd_gasket(parser, args) -> int:
    graph = _graph_arg(args)
    # A gasket edge counts twice in the degrees, a sink edge once.
    edges = (sum(graph.degrees) - graph.sink_degree) // 2
    human = [
        f"level {graph.level} boundary {graph.boundary.token()}",
        f"vertices {graph.n_vertices} gasket-edges {edges} sink-degree {graph.sink_degree}",
    ]
    _print(graph_to_json(graph) if args.json else None, args.json, human)
    return 0


def cmd_sandpile_stabilize(parser, args) -> int:
    conf = _read_config(args.input)
    frozen = []
    for name in args.frozen or []:
        idx = conf.graph.corner_index(name)
        if idx is None:
            parser.error(f"corner {name} is the sink")
        frozen.append(idx)
    result, odometer = stabilize(conf, frozen=frozen)
    data = {"config": config_to_json(result), "odometer": list(odometer)}
    _print(data, args.json, [config_to_text(result), "odometer " + " ".join(map(str, odometer))])
    return 0


def cmd_sandpile_identity(parser, args) -> int:
    graph = _graph_arg(args)
    conf = identity(graph)
    if args.render:
        spec = render.RenderSpec(fmt="svg" if args.render.endswith(".svg") else "ppm")
        # Render first: a refused raster leaves no empty file behind.
        data = render.render_buffer(conf, spec)
        with open(args.render, "wb") as fh:
            fh.write(data)
    _print(config_to_json(conf), args.json, [config_to_text(conf)])
    return 0


def cmd_sandpile_burn(parser, args) -> int:
    conf = _read_config(args.input)
    recurrent, odometer = burning_odometer(conf)
    data = {"recurrent": recurrent, "odometer": list(odometer)}
    _print(data, args.json, [f"recurrent {recurrent}"])
    return 0 if recurrent else 1


def cmd_selfsim_id(parser, args) -> int:
    conf = selfsim.identity_from_tiles(args.level)
    _print(config_to_json(conf), args.json, [config_to_text(conf)])
    return 0


def cmd_selfsim_verify(parser, args) -> int:
    if args.check == "doubling":
        report = selfsim.verify_doubling(args.level)
    elif args.check == "transport":
        report = selfsim.verify_corner_transport(args.level)
    else:
        conf = selfsim.build_tile(args.level, 2, 2, 2)
        report = selfsim.verify_junction_invariance(args.level, conf)
    data = report.to_json()
    _print(data, args.json, [f"{data['check']} level {args.level}: {'pass' if data['pass'] else 'FAIL'}"])
    return 0 if data["pass"] else 1


def cmd_group_snf(parser, args) -> int:
    graph = _graph_arg(args)
    data_l = group.lattice_data(graph)
    order = group.digits(data_l.order)
    data = {
        "level": graph.level,
        "boundary": graph.boundary.token(),
        "invariant_factors": [str(d) for d in data_l.invariants],
        "determinant": order,
    }
    human = [
        f"group order {order}",
        "invariant factors " + " ".join(str(d) for d in data_l.invariants),
    ]
    _print(data, args.json, human)
    return 0


def cmd_group_check_theorem(parser, args) -> int:
    report = group.check_group_theorem(args.level)
    data = report.to_json()
    human = [
        f"decomposition level {args.level}: {'pass' if report.passed else 'FAIL'} "
        f"(convention {report.convention})"
    ]
    _print(data, args.json, human)
    return 0 if report.passed else 1


def cmd_group_tau(parser, args) -> int:
    if args.method == "recursion":
        value = group.tau_recursion(args.level)
    else:
        value = group.tau_matrix_tree(args.level)
    text = group.digits(value)
    data = {"level": args.level, "method": args.method, "spanning_trees": text}
    _print(data, args.json, [text])
    return 0


def cmd_spectral_eigs(parser, args) -> int:
    graph = build_gasket(args.level)
    n = graph.n_vertices
    cell_eig = Fraction(n - 5, n + 1)
    pair_eig = Fraction(n - 11, n + 1)
    data = {
        "level": args.level,
        "cells": 3 ** (args.level - 1),
        "cell_eigenvalue": str(cell_eig),
        "pair_eigenvalue": str(pair_eig),
    }
    human = [
        f"cell harmonic eigenvalue {cell_eig} ({float(cell_eig):.6f})",
        f"pair product eigenvalue {pair_eig} ({float(pair_eig):.6f})",
    ]
    if args.all:
        chars = spectral.enumerate_characters(graph, cap=args.cap)
        eigs = []
        for h in chars:
            lam = spectral.eigenvalue(h)
            eigs.append(str(lam) if isinstance(lam, Fraction) else f"{lam.real}{lam.imag:+}j")
        data["eigenvalues"] = eigs
        human.append(f"enumerated {len(eigs)} characters")
    _print(data, args.json, human)
    return 0


def cmd_spectral_distance(parser, args) -> int:
    graph = build_gasket(args.level)
    result = spectral.exact_distance(graph, args.t, cap=args.cap)
    data = {
        "level": result.level,
        "t": result.t,
        "group_order": str(result.group_order),
        "l2": result.l2,
        "tv_upper": result.tv_upper,
    }
    _print(data, args.json, [f"t={args.t} l2={result.l2:.6g} tv_upper={result.tv_upper:.6g}"])
    return 0


def cmd_markov_simulate(parser, args) -> int:
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    # Many trials are evaluated from their draws; one trajectory costs an identity.
    if args.trials == 1 and args.level > 7:
        parser.error(f"--level must be between 1 and 7 for one trajectory: {_TRAJECTORY_WHY}")
    check_draws(parser, args.steps * args.trials, args.trials)
    seed = markov.master_seed(args.seed)
    if args.trials > 1:
        est = markov.estimate_chi_decay(args.level, args.steps, args.trials, seed=seed)
        data = {"seed": seed, **est.to_json()}
        human = [
            f"chi mean {est.mean:.6f} stderr {est.stderr:.6f} expected {est.expected:.6f}"
        ]
    else:
        conf = markov.run_chain(build_gasket(args.level), args.steps, seed=seed)
        chi = spectral.distinguishing_statistic(conf.graph, conf.chips)
        data = {
            "seed": seed,
            "level": args.level,
            "steps": args.steps,
            "chi": chi,
            "config": config_to_json(conf),
        }
        human = [config_to_text(conf), f"chi {chi:.6f}"]
    _print(data, args.json, human)
    return 0


def cmd_markov_report(parser, args) -> int:
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    # The report reads each of its `trials` trajectories once, to the last
    # time, but counts its draws once per time in CHI_TIMES, so a block of
    # trajectories is a quarter of one time's (3 against 13 at level 10).
    # Charging every time's draws and trajectories tracks that cost.
    check_draws(parser, args.trials * sum(markov.CHI_TIMES), args.trials * len(markov.CHI_TIMES))
    report = markov.mixing_report(
        args.level,
        chi_trials=args.trials,
        seed=markov.master_seed(args.seed),
    )
    human = [
        f"level {report.level} vertices {report.n_vertices}",
        f"lower bound t {report.lower_bound_t} (raw {report.lower_bound_raw:.2f})",
        f"upper bound t {report.upper_bound_t}",
    ]
    _print(report.to_json(), args.json, human)
    return 0


def cmd_render(parser, args) -> int:
    if args.scale < 1:
        parser.error("--scale must be >= 1")
    conf = _read_config(args.input)
    fmt = args.format or ("svg" if args.out.endswith(".svg") else "ppm")
    data = render.render_buffer(conf, render.RenderSpec(fmt=fmt, scale=args.scale))
    with open(args.out, "wb") as fh:
        fh.write(data)
    return 0


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command line parser.  Without `argv` it declares every command's
    arguments.  With `argv` it declares only the commands that `argv` names
    (argparse routes by exact name), and registers the others by name and
    help, so every help, usage and refusal text stays the same."""
    named = None if argv is None else set(argv)
    parser = argparse.ArgumentParser(prog="gasketpile")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(within, name, handler=None, **kwargs):
        """Register a command; return its parser when its arguments are wanted,
        with a handler bound to it, else None."""
        p = within.add_parser(name, **kwargs)
        if named is not None and name not in named:
            return None
        if handler:
            p.set_defaults(func=partial(handler, p))
        return p

    def subcommands(name, help):
        p = command(sub, name, help=help)
        return p and p.add_subparsers(dest="subcommand", required=True)

    if p := command(sub, "gasket", cmd_gasket, help="export a gasket graph"):
        _add_level(p)
        p.add_argument("--boundary", default="normal")
        p.add_argument("--json", action="store_true")

    if ssub := subcommands("sandpile", "sandpile dynamics"):
        if p := command(ssub, "stabilize", cmd_sandpile_stabilize):
            p.add_argument("--input", default="-")
            p.add_argument("--frozen", action="append", choices=CORNER_NAMES)
            p.add_argument("--json", action="store_true")
        if p := command(ssub, "identity", cmd_sandpile_identity):
            _add_level(p)
            p.add_argument("--boundary", default="normal")
            p.add_argument("--render")
            p.add_argument("--json", action="store_true")
        if p := command(ssub, "burn", cmd_sandpile_burn):
            p.add_argument("--input", default="-")
            p.add_argument("--json", action="store_true")

    if ssub := subcommands("selfsim", "self-similar structure"):
        if p := command(ssub, "id", cmd_selfsim_id):
            _add_level(p, low=1)
            p.add_argument("--json", action="store_true")
        if p := command(ssub, "verify", cmd_selfsim_verify):
            _add_level(p, low=1)
            p.add_argument("--check", choices=("doubling", "transport", "junction"), required=True)
            p.add_argument("--json", action="store_true")

    if ssub := subcommands("group", "sandpile group structure"):
        if p := command(ssub, "snf", cmd_group_snf):
            _add_level(p)
            p.add_argument("--boundary", default="normal")
            p.add_argument("--json", action="store_true")
        if p := command(ssub, "check-theorem", cmd_group_check_theorem):
            _add_level(p, low=1)
            p.add_argument("--json", action="store_true")
        if p := command(ssub, "tau", cmd_group_tau):
            _add_level(p)
            p.add_argument("--method", choices=("recursion", "matrix-tree"), default="recursion")
            p.add_argument("--json", action="store_true")

    if ssub := subcommands("spectral", "harmonic functions and distances"):
        if p := command(ssub, "eigs", cmd_spectral_eigs):
            _add_level(p, low=1)
            p.add_argument("--all", action="store_true")
            p.add_argument("--cap", type=int, default=spectral.DEFAULT_CHARACTER_CAP)
            p.add_argument("--json", action="store_true")
        if p := command(ssub, "distance", cmd_spectral_distance):
            _add_level(p)
            p.add_argument("--t", type=int, required=True)
            p.add_argument("--cap", type=int, default=spectral.DEFAULT_CHARACTER_CAP)
            p.add_argument("--json", action="store_true")

    if ssub := subcommands("markov", "the chip-adding walk"):
        if p := command(ssub, "simulate", cmd_markov_simulate):
            _add_level(p, low=1)
            p.add_argument("--steps", type=int, required=True)
            p.add_argument("--seed", type=int)
            p.add_argument("--trials", type=int, default=1)
            p.add_argument("--json", action="store_true")
        if p := command(ssub, "report", cmd_markov_report):
            _add_level(p, low=1)
            p.add_argument("--trials", type=int, default=0)
            p.add_argument("--seed", type=int)
            p.add_argument("--json", action="store_true")

    if p := command(sub, "render", cmd_render, help="draw a configuration"):
        p.add_argument("--input", default="-")
        p.add_argument("--out", required=True)
        p.add_argument("--scale", type=int, default=12)
        p.add_argument("--format", choices=("ppm", "svg"))

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        # Handlers are bound to their subcommand's parser, whose usage their refusals print.
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
