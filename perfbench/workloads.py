"""The three workloads.  Each op calls the package's public functions on
inputs derived from the op's seed, and `check` verifies the outputs against
values the benchmark computes or records independently.

The traced run also replays the toppling from outside the package: the
walk's trajectories (drawn from `trajectory_rng` exactly as the chain does)
and the identity's two stabilizations, through the public `stabilize`, so
that per-call kernel counts and times are visible without tracing inside the
package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from harness import clear_caches


def gasket_size(level: int) -> int:
    return 3 * (3**level + 1) // 2


def expand(factors: tuple[tuple[int, int], ...]) -> list[int]:
    return [d for d, mult in factors for _ in range(mult)]


def mat_vec(a: list[list[int]], x: list[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def product_is_scaled_identity(a, b, scale: int, seed: int) -> bool:
    """Freivalds' test of a @ b == scale * I in exact integers: three random
    vectors x with a @ (b @ x) == scale * x.  A wrong product passes with
    probability at most 2**-60; the full product of the adapted-basis
    transforms (entries of thousands of bits) would cost more than the op."""
    rng = random.Random(seed)
    for _ in range(3):
        x = [rng.getrandbits(20) for _ in range(len(b[0]))]
        if mat_vec(a, mat_vec(b, x)) != [scale * v for v in x]:
            return False
    return True


# ---------------------------------------------------------------------------
# walk: the chip-adding chain's mixing statistic.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Walk:
    level: int = 4
    t: int = 100
    trials: int = 20
    nominal_op_s: float = 0.30
    name: str = "walk"
    matrices: tuple[int, ...] = ()

    @property
    def levels(self) -> tuple[int, ...]:
        return (self.level,)

    def run(self, pkg, ctx, tr, seed):
        est = tr.call(
            "markov.chi_decay", pkg.markov.estimate_chi_decay, self.level, self.t, self.trials, seed=seed
        )
        replayed = None
        if tr.enabled:
            with tr.span("replay.walk"):
                replayed = self.replay(pkg, ctx["graphs"][self.level], tr, seed)
        return est, replayed

    def replay(self, pkg, graph, tr, seed) -> float:
        """The same trajectories, stabilized through the public `stabilize`
        at every step that needs it; returns the statistic's mean."""
        n, degrees = graph.n_vertices, graph.degrees
        stabilize, Configuration = pkg.sandpile.stabilize, pkg.sandpile.Configuration
        base = tr.call("sandpile.identity", pkg.sandpile.identity, graph).chips
        values = []
        for i in range(self.trials):
            randrange = pkg.markov.trajectory_rng(seed, i).randrange
            chips = list(base)
            for _ in range(self.t):
                v = randrange(n + 1)
                if v == n:
                    continue
                chips[v] += 1
                if chips[v] >= degrees[v]:
                    conf = Configuration(graph, tuple(chips))
                    stable, odometer = tr.call("sandpile.stabilize", stabilize, conf)
                    chips = list(stable.chips)
                    tr.sample("sandpile.avalanche", sum(odometer))
            values.append(
                tr.call("spectral.statistic", pkg.spectral.distinguishing_statistic, graph, chips)
            )
        tr.sample("markov.steps", self.trials * self.t)
        return float(np.asarray(values).mean())

    def exact_stderr(self) -> float:
        """Standard error of the mean of `trials` statistics after t steps.

        The statistic averages C = 3**(level-1) cell characters.  The product
        of two distinct cell characters is the character that is -1 on six
        midpoints, with eigenvalue 1 - 12/(n+1), so
        E[stat**2] = 1/C + (C-1)/C * (1 - 12/(n+1))**t exactly.  The sample
        standard error of 20 trials is itself so noisy that a 5-sigma rule
        built on it rejects about one correct estimate in a thousand."""
        n, cells = gasket_size(self.level), 3 ** (self.level - 1)
        mean = (1 - 6 / (n + 1)) ** self.t
        second = 1 / cells + (cells - 1) / cells * (1 - 12 / (n + 1)) ** self.t
        return math.sqrt((second - mean * mean) / self.trials)

    def check(self, ctx, outputs) -> list[str]:
        est, replayed = outputs
        n = gasket_size(self.level)
        expected = (1 - 6 / (n + 1)) ** self.t
        stderr = self.exact_stderr()
        problems = []
        if (est.level, est.t, est.trials) != (self.level, self.t, self.trials):
            problems.append("estimate reports other parameters")
        if not math.isclose(est.expected, expected, rel_tol=1e-12):
            problems.append(f"expected_chi {est.expected} != {expected}")
        if not abs(est.mean - expected) <= 5 * stderr:
            problems.append(f"mean {est.mean} not within 5 stderr ({stderr}) of {expected}")
        if replayed is not None and abs(replayed - est.mean) > 1e-9:
            problems.append(f"replayed mean {replayed} != estimated {est.mean}")
        return problems


# ---------------------------------------------------------------------------
# identity: the cold identity and the toppling identities behind it.
# ---------------------------------------------------------------------------


# The render palette's colors for the identity's chip values 2 and 3.
IDENTITY_COLORS = {2: b"rgb(220,50,50)", 3: b"rgb(60,90,220)"}


@dataclass(frozen=True)
class Identity:
    level: int = 5
    junction_level: int = 4
    nominal_op_s: float = 1.40
    name: str = "identity"
    matrices: tuple[int, ...] = ()

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(range(1, self.level + 1))

    def run(self, pkg, ctx, tr, seed):
        sp, ss, rd = pkg.sandpile, pkg.selfsim, pkg.render
        graph = ctx["graphs"][self.level]
        ident = tr.call("sandpile.identity", sp.identity, graph)
        tiles = tr.call("selfsim.tiles", ss.identity_from_tiles, self.level)
        recurrent = tr.call("sandpile.burn", sp.is_recurrent_burning, ident)
        doubling = tr.call("selfsim.doubling", ss.verify_doubling, self.level)
        # Both lower-left corner values 2 and 3 give a recurrent tile.
        with tr.span("selfsim.junction"):
            tile = ss.build_tile(self.junction_level, 2 + seed % 2, 2, 2)
            junction = ss.verify_junction_invariance(self.junction_level, tile)
        ppm = tr.call("render.ppm", rd.render_ppm, ident)
        svg = tr.call("render.svg", rd.render_svg, ident)
        tr.sample("render.bytes", len(ppm) + len(svg))
        replayed = None
        if tr.enabled:
            with tr.span("replay.identity"):
                replayed = self.replay(pkg, graph, tr)
        return {
            "identity": ident, "tiles": tiles, "recurrent": recurrent, "doubling": doubling,
            "junction": junction, "ppm": ppm, "svg": svg, "replayed": replayed,
        }

    def replay(self, pkg, graph, tr):
        """The identity as the package defines it, through public calls:
        stabilize 2m, form the kicker 2m - stab(2m), stabilize the kicker."""
        sp = pkg.sandpile
        doubled = sp.max_config(graph).scale(2)
        stable, odometer = tr.call("sandpile.stabilize", sp.stabilize, doubled)
        tr.sample("sandpile.avalanche", sum(odometer))
        kicker = sp.config(graph, [a - b for a, b in zip(doubled.chips, stable.chips)])
        result, odometer = tr.call("sandpile.stabilize", sp.stabilize, kicker)
        tr.sample("sandpile.avalanche", sum(odometer))
        return result

    def check(self, ctx, out) -> list[str]:
        problems = []
        ident = out["identity"]
        if out["tiles"].chips != ident.chips:
            problems.append("tile-glued identity differs from the stabilized one")
        if not set(ident.chips) <= {2, 3}:
            problems.append("identity has chip values other than 2 and 3")
        if out["recurrent"] is not True:
            problems.append("identity is not recurrent")
        if not out["doubling"].passed:
            problems.append("doubling identity failed")
        if not out["junction"].passed:
            problems.append("junction invariance failed")
        if out["replayed"] is not None and out["replayed"].chips != ident.chips:
            problems.append("replayed identity differs")
        ppm, svg = out["ppm"], out["svg"]
        header = ppm.split(b"\n", 3)
        if header[0] != b"P6" or len(header[3]) != 3 * math.prod(map(int, header[1].split())):
            problems.append("PPM size disagrees with its header")
        fills = re.findall(rb'fill="(rgb\([0-9,]+\))"', svg)
        if fills != [IDENTITY_COLORS.get(c) for c in ident.chips]:
            problems.append("SVG colors do not match the identity's chips")
        reference = ctx.setdefault("render_reference", (ppm, svg))
        if (ppm, svg) != reference:
            problems.append("render bytes differ from the first op's")
        return problems


# ---------------------------------------------------------------------------
# exact: group structure in exact arithmetic.
# ---------------------------------------------------------------------------

# Nontrivial invariant factors of the sandpile group, as (factor, multiplicity).
INVARIANTS = {
    2: ((2, 2), (6, 1), (462, 1), (2310, 1)),
    4: ((2, 2), (6, 26), (30, 1), (90, 8), (450, 1), (1350, 1), (2015550, 1), (10077750, 1)),
}


def run_cli(pkg, tr, name, argv):
    out = io.StringIO()
    with tr.span(name), contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def parse_cli(name, result, problems):
    code, text = result
    if code != 0:
        problems.append(f"{name} exited {code}")
        return {}
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        problems.append(f"{name} printed no JSON")
        return {}


@dataclass(frozen=True)
class Exact:
    level: int = 4
    basis_level: int = 3
    samples: int = 20
    distance_t: int = 47
    tv_steps: int = 200
    nominal_op_s: float = 2.55
    name: str = "exact"

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(range(0, self.level + 1))

    @property
    def matrices(self) -> tuple[int, ...]:
        return (self.basis_level, self.level)

    def run(self, pkg, ctx, tr, seed):
        grp, mk, spec = pkg.group, pkg.markov, pkg.spectral
        graphs, matrices = ctx["graphs"], ctx["matrices"]
        big, small = matrices[self.level], matrices[self.basis_level]
        det = tr.call("group.determinant", grp.determinant, big)
        tr.sample("group.order_bits", abs(det).bit_length())
        smith = tr.call("group.smith_diag", grp.smith_mod, big, abs(det))
        adjugate, scale = tr.call("group.adjugate", grp.scaled_inverse, small)
        basis = tr.call("group.adapted_basis", grp.smith_mod, small, scale, transforms=True)
        theorem = tr.call("group.theorem", grp.check_group_theorem, self.level)
        tau_tree = tr.call("group.tau_matrix_tree", grp.tau_matrix_tree, self.level)
        tau_rec = tr.call("group.tau_recursion", grp.tau_recursion, self.level)
        rng = random.Random(seed)
        stationary = [
            tr.call("markov.sample_stationary", mk.sample_stationary, graphs[self.basis_level], rng)
            for _ in range(self.samples)
        ]
        recurrent = [tr.call("sandpile.burn", pkg.sandpile.is_recurrent_burning, c) for c in stationary]
        g1 = graphs[1]
        characters = tr.call("spectral.characters", spec.enumerate_characters, g1)
        distance = tr.call("spectral.distance", spec.exact_distance, g1, self.distance_t)
        tr.sample("spectral.characters", len(characters) + distance.group_order)
        tv = tr.call("markov.exact_tv", mk.exact_tv_curve, g1, self.tv_steps)
        order1 = grp.sandpile_group_order(g1)
        # A CLI user pays the cleared caches on every invocation.
        clear_caches(ctx["caches"])
        snf = run_cli(pkg, tr, "cli.snf", ["group", "snf", "--level", str(self.level), "--json"])
        clear_caches(ctx["caches"])
        report = run_cli(pkg, tr, "cli.report", ["markov", "report", "--level", str(self.basis_level), "--json"])
        return {
            "det": det, "smith": smith, "adjugate": adjugate, "scale": scale, "basis": basis,
            "theorem": theorem, "tau": (tau_tree, tau_rec), "recurrent": recurrent,
            "characters": characters, "distance": distance, "tv": tv, "order1": order1,
            "snf": snf, "report": report, "small": small,
        }

    def check(self, ctx, out) -> list[str]:
        problems = []
        det, diag = out["det"], out["smith"].diag
        invariants = [d for d in diag if d > 1]
        if det <= 0 or math.prod(diag) != det:
            problems.append("product of the Smith diagonal != determinant")
        if invariants != expand(INVARIANTS[self.level]):
            problems.append(f"level-{self.level} invariant factors differ from the recorded ones")
        scale, basis = out["scale"], out["basis"]
        if math.prod(basis.diag) != scale:
            problems.append("adapted-basis diagonal disagrees with the adjugate scale")
        if not product_is_scaled_identity(basis.U, basis.Uinv, 1, det):
            problems.append("U @ Uinv != I")
        if not product_is_scaled_identity(out["small"], out["adjugate"], scale, det):
            problems.append("Laplacian @ adjugate != scale * I")
        if not out["theorem"].passed:
            problems.append("group theorem failed")
        tau_tree, tau_rec = out["tau"]
        if tau_tree != tau_rec:
            problems.append("matrix-tree tau != recursion tau")
        if len(out["recurrent"]) != self.samples or not all(r is True for r in out["recurrent"]):
            problems.append("a stationary sample is not recurrent")
        order1 = out["order1"]
        chars, distance, tv = out["characters"], out["distance"], out["tv"]
        if len(chars) != order1 or distance.group_order != order1 or any(chars[0].rotation):
            problems.append("character enumeration has the wrong size or order")
        if not all(self._harmonic(h) for h in chars):
            problems.append("a character is not harmonic")
        if not distance.l2 <= 0.25:
            problems.append(f"l2 {distance.l2} > 1/4 at t={self.distance_t}")
        if (
            tv is None or len(tv) != self.tv_steps + 1
            or not math.isclose(tv[0], 1 - 1 / order1)
            or any(b > a + 1e-12 for a, b in zip(tv, tv[1:]))
            or tv[self.distance_t] > math.sqrt(order1) * distance.l2 / 2 + 1e-12
        ):
            # Cauchy-Schwarz: TV <= sqrt(|G|) * l2 / 2 for the unnormalized
            # l2 that exact_distance returns.
            problems.append("TV curve is not decreasing, or exceeds sqrt(|G|) * l2 / 2")
        snf = parse_cli("group snf", out["snf"], problems)
        if snf and (snf.get("invariant_factors") != [str(d) for d in invariants]
                    or snf.get("determinant") != str(det)):
            problems.append("CLI snf disagrees with the library")
        report = parse_cli("markov report", out["report"], problems)
        n = gasket_size(self.basis_level)
        if report and (
            report.get("n_vertices") != n
            or report.get("group_order") != str(scale)
            or report.get("upper_bound_t") != math.ceil(1.25 * (n + 1) * math.log(34 * n))
        ):
            problems.append("CLI report disagrees with the library")
        return problems

    @staticmethod
    def _harmonic(h) -> bool:
        """deg(v) * q(v) == sum of q over the neighbors (mod 1) at every vertex."""
        graph = h.graph
        den = math.lcm(*(Fraction(x).denominator for x in h.rotation))
        q = [int(Fraction(x) * den) for x in h.rotation]
        return all(
            (graph.degrees[v] * q[v] - sum(q[w] for w in nbrs)) % den == 0
            for v, nbrs in enumerate(graph.neighbors)
        )


WORKLOADS = {"walk": Walk(), "identity": Identity(), "exact": Exact()}

# Small sizes for the self-tests: same code paths, a second or two each.
TINY = {
    "walk": Walk(level=3, t=20, trials=10, nominal_op_s=1.0),
    "identity": Identity(level=3, junction_level=2, nominal_op_s=1.0),
    "exact": Exact(level=2, basis_level=2, samples=3, nominal_op_s=1.0),
}
