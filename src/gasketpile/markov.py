"""The chip-adding random walk on recurrent configurations and its mixing.

Each step draws uniformly from the non-sink vertices plus the sink: a vertex
draw adds one chip there and stabilizes, the sink draw does nothing (the lazy
move that makes the walk aperiodic with step weight 1/(n+1) everywhere).
The walk is a random walk on the sandpile group, so its l2 distance from
the uniform stationary distribution is given exactly by the character
eigenvalues, which `spectral.walk_spectrum` computes as one transform.
`exact_tv_curve` gets the total-variation distance by evolving the walk's
law over the group's Smith torus, one gather per step.
By the abelian property the state after t steps is the identity plus the
draw counts, stabilized once: the one recurrent configuration in the
counts' class, which `run_chain` returns.

The distinguishing statistic (average cell parity) gives a matching lower
bound on mixing. Each cell's parity is a group character, so it is the same
on every configuration of a class, and it is 1 on the identity, the group's
zero. After t steps the statistic therefore depends only on the draws:
`estimate_chi_decay` counts their parities per cell.

Trajectory i's draws are the values that `trajectory_rng(seed, i)` returns
to `randrange(n + 1)` calls.  Both walk paths decode them in bulk with
`_randbelow_rounds`, which reads the words of a whole block of trajectories
at once, and count them with `np.bincount`: `run_chain` per vertex,
`estimate_chi_decay` per trial and cell, one call for all of a block's draws
that one round decodes.

The stationary law is uniform on recurrent configurations.
`sample_stationary` draws from it without any group algebra: a uniform
spanning tree by Wilson's algorithm, mapped to its recurrent configuration
by the burning bijection.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .gasket import GasketGraph, build_gasket, cell_index, gasket_size
from .sandpile import Configuration, recurrent_rep
from .spectral import DEFAULT_CHARACTER_CAP, _smith_shifts, t_star
from . import group

SEED_ENV_VAR = "GASKETPILE_SEED"
DEFAULT_SEED = 0
CHI_TIMES = (1, 5, 10, 25)  # steps at which `mixing_report` estimates the decay


def master_seed(explicit: int | None = None) -> int:
    """Explicit seed if given, else the GASKETPILE_SEED environment variable,
    else 0."""
    if explicit is not None:
        return explicit
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else DEFAULT_SEED


def trajectory_rng(seed: int, index: int) -> random.Random:
    """Deterministic per-trajectory generator: seeds the stdlib Mersenne
    twister with the string "<seed>:<index>", which Python hashes stably."""
    return random.Random(f"{seed}:{index}")


# Values per generator per round, and the words of a block of trajectories,
# their generators' states included: bounds the draw buffers at a few MB
# whatever steps x trials is.
_DRAW_CHUNK = 1 << 16


def _words(need: int, m: int) -> int:
    """Words to read for `need` values below m: the expected count plus a
    margin of about three standard deviations and 8."""
    return (need << m.bit_length()) // m + 2 * math.isqrt(need) + 8


def _randbelow_rounds(rngs: list[random.Random], m: int, count: int):
    """The values of `count` calls of `rng.randrange(m)` for every generator
    in `rngs`, in rounds.  A round yields four arrays: the places in `rngs`
    of the generators it read, the position in its stream of each one's
    first new value, how many new values each got, and the new values,
    generator after generator and in order.

    This pins CPython's stream: `randrange(m)` is `_randbelow_with_getrandbits`,
    which sets k = m.bit_length() and redraws `getrandbits(k)` until the value
    is below m.  For k <= 32, `getrandbits(k)` is the top k bits of one 32-bit
    Mersenne-twister word, and `getrandbits(32 * w)` is w such words, the
    first drawn least significant.  So a round reads each short generator's
    words in bulk, for at most `_DRAW_CHUNK` values, joins them into one
    buffer, shifts them right by 32 - k and keeps the ones below m, each
    generator's first ones up to the values it still needs.  A generator
    that falls short reads again in the next round; the generators end up
    past the words `randrange` would read.
    Raises ValueError unless 1 <= m < 2**32."""
    if not 1 <= m < 1 << 32:
        raise ValueError("modulus must be in 1..2**32 - 1")
    shift = 32 - m.bit_length()
    short, left = (list(range(len(rngs))), [count] * len(rngs)) if count > 0 else ([], [])
    while short:
        w = [_words(min(c, _DRAW_CHUNK), m) for c in left]
        words = np.frombuffer(
            b"".join([rngs[i].getrandbits(32 * c).to_bytes(4 * c, "little") for i, c in zip(short, w)]), dtype="<u4"
        ) >> shift
        ok = words < m
        got = np.add.reduceat(ok, np.cumsum(w) - w, dtype=np.int64).tolist()  # accepted words per generator
        take = [min(a, b) for a, b in zip(got, left)]
        accepted = words[ok]
        values = [accepted[a : a + b] for a, b in zip(accumulate(got, initial=0), take)]
        yield np.array(short), count - np.array(left), np.array(take), np.concatenate(values)
        still = [(i, a - b) for i, a, b in zip(short, left, take) if a > b]
        short, left = [i for i, _ in still], [a for _, a in still]


def run_chain(graph: GasketGraph, steps: int, seed: int | None = None, index: int = 0) -> Configuration:
    """The walk's configuration after `steps` steps from the identity, on
    trajectory `index` of the master seed: `recurrent_rep` of the draw counts.
    Stabilizing after every draw or once at the end gives the same recurrent
    configuration (the abelian property), the unique one in their class."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = graph.n_vertices
    counts = np.zeros(n + 1, dtype=np.int64)  # the last slot counts the sink draws
    for *_, draws in _randbelow_rounds([trajectory_rng(master_seed(seed), index)], n + 1, steps):
        counts += np.bincount(draws, minlength=n + 1)
    return recurrent_rep(graph, counts[:n].tolist())


@dataclass
class ChiDecayEstimate:
    level: int
    t: int
    trials: int
    mean: float
    stderr: float
    expected: float

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "t": self.t,
            "trials": self.trials,
            "mean": self.mean,
            "stderr": self.stderr if math.isfinite(self.stderr) else None,  # JSON has no inf
            "expected": self.expected,
        }


def expected_chi(level: int, t: int) -> float:
    """E[statistic] after t steps from the identity: (1 - 6/(n+1))**t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    n = gasket_size(level)
    return (1 - 6 / (n + 1)) ** t


def estimate_chi_decay(level: int, t: int, trials: int, seed: int | None = None) -> ChiDecayEstimate:
    """Monte Carlo estimate of E[statistic] after t steps from the identity.

    Trial i draws trajectory i of the seed, as `run_chain` does, and its value
    is `distinguishing_statistic` of that trajectory's configuration, bit for
    bit.  It is computed from the draws alone: a cell's parity character is a
    class function that is 1 on the identity, and the midpoint sets of
    different cells are disjoint, so a cell's parity is odd exactly when an
    odd number of draws landed on its midpoints.  A trial costs O(t + cells).
    """
    return _chi_estimates(level, (t,), trials, seed)[0]


def _chi_estimates(level: int, times: tuple[int, ...], trials: int, seed: int | None) -> list[ChiDecayEstimate]:
    """`estimate_chi_decay` at each of the ascending `times`, from one read
    of each trajectory: its draws up to t are the first t of one stream.

    The trials run in blocks.  `_randbelow_rounds` decodes a block's draws
    at once, and one `np.bincount` over (time, trial, cell) counts them, a
    draw at position p once for every time above p.  A block reads about
    `_DRAW_CHUNK` words a round at most, its generators' states included,
    and holds at most 4 * `_DRAW_CHUNK` counts (2 MB), whatever t, trials
    and the number of cells are."""
    if level < 1:
        raise ValueError("the statistic needs level >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    expected = [expected_chi(level, t) for t in times]
    n = gasket_size(level)
    mids = cell_index(build_gasket(level))[0][0]  # the level-1 cells' midpoints
    n_cells = len(mids)
    # Draw -> cell slot; the sink draw n and non-midpoints go to slot n_cells.
    slot = np.full(n + 1, n_cells, dtype=np.intp)
    slot[mids] = np.arange(n_cells)[:, None]
    # A trajectory's first round and its generator's 625-word state.
    words = _words(min(times[-1], _DRAW_CHUNK), n + 1) + 625
    block = max(1, min(_DRAW_CHUNK // words, 4 * _DRAW_CHUNK // (len(times) * (n_cells + 1))))
    seed_val, last = master_seed(seed), len(times) - 1
    values = np.ones((len(times), trials))  # without draws every cell is even
    for lo in range(0, trials, block):
        rngs = [trajectory_rng(seed_val, i) for i in range(lo, min(lo + block, trials))]
        span = len(rngs) * (n_cells + 1)  # one time's counts
        counts = None
        for owner, first, size, draws in _randbelow_rounds(rngs, n + 1, times[-1]):
            key = slot[draws]
            key += np.repeat(last * span + owner * (n_cells + 1), size)
            # A draw counts for every time above its position, so for the last
            # time always; positions are worked out only for the earlier ones.
            earlier = [
                key[np.arange(key.size) + np.repeat(first - np.cumsum(size) + size, size) < t] - (last - j) * span
                for j, t in enumerate(times[:-1])
            ]
            part = np.bincount(np.concatenate([*earlier, key]), minlength=len(times) * span)
            counts = part if counts is None else counts + part
        if counts is not None:
            counts &= 1
            odd = counts.reshape(-1, n_cells + 1)[:, :n_cells].sum(axis=1)
            values[:, lo : lo + len(rngs)] = (n_cells - 2 * odd.reshape(len(times), -1)) / n_cells
    return [
        ChiDecayEstimate(
            level=level,
            t=t,
            trials=trials,
            mean=float(row.mean()),
            stderr=float(row.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf"),
            expected=e,
        )
        for t, row, e in zip(times, values, expected)
    ]


# ---------------------------------------------------------------------------
# Exact stationary sampling from uniform spanning trees.
# ---------------------------------------------------------------------------


def _wilson_slots(graph: GasketGraph, targets: list[list[int]], rng: random.Random) -> list[int]:
    """Each vertex's parent slot in a uniform spanning tree rooted at the
    sink, by Wilson's algorithm (Wilson 1996): from every vertex not yet in
    the tree, in canonical order, walk to the tree, choosing one of the
    current vertex's slots uniformly at each step, and add the walk's loop
    erasure.  Recording every exit and retracing keeps the last exit from
    each vertex, which erases the loops in the order they closed.  Slot k of
    v leads to `targets[v][k]`, for k below v's degree."""
    n = graph.n_vertices
    degrees = graph.degrees
    randrange = rng.randrange
    in_tree = bytearray(n + 1)
    in_tree[n] = 1
    slots = [0] * n
    for start in range(n):
        u = start
        while not in_tree[u]:
            k = randrange(degrees[u])
            slots[u] = k
            u = targets[u][k]
        u = start
        while not in_tree[u]:
            in_tree[u] = 1
            u = targets[u][slots[u]]
    return slots


def _burning_config(graph: GasketGraph, targets: list[list[int]], slots: list[int]) -> Configuration:
    """The recurrent configuration of the spanning tree whose parent slots
    are `slots`, by the burning bijection (Majumdar & Dhar 1992).

    Fire burns from the sink at time 0, and a vertex burns at its tree depth.
    A vertex v of depth d burns at time d when it holds at least as many chips
    as it has slots to vertices not yet burnt by d - 1, and fewer than its
    slots to those not burnt by d - 2.  That leaves one chip count for each
    slot of v to depth exactly d - 1, and the parent slot's rank among them
    picks it:

        c_v = deg v - #(slots to depth <= d - 1) + rank of the parent slot.
    """
    n = graph.n_vertices
    degrees = graph.degrees
    depth = [-1] * n + [0]
    for start in range(n):
        path = []
        u = start
        while depth[u] < 0:
            path.append(u)
            u = targets[u][slots[u]]
        d = depth[u]
        for u in reversed(path):
            d += 1
            depth[u] = d
    chips = []
    for v, slot in enumerate(slots):
        below = depth[v] - 1
        burnt = rank = 0
        for k, w in enumerate(targets[v][: degrees[v]]):
            dw = depth[w]
            if dw <= below:
                burnt += 1
                if dw == below and k < slot:
                    rank += 1
        chips.append(degrees[v] - burnt + rank)
    return Configuration(graph, tuple(chips))


def sample_stationary(graph: GasketGraph, rng: random.Random) -> Configuration:
    """A uniformly random recurrent configuration: the burning bijection's
    image of a uniform spanning tree rooted at the sink.  The bijection maps
    the det(Delta) spanning trees onto the det(Delta) recurrent
    configurations, so the image of the uniform tree is uniform, the
    stationary law of the walk.  Vertex v's `degrees[v]` edge slots are the
    first entries of its neighbour table column: its neighbours in ascending
    order, then the padding slot n, which is the sink, once per sink edge."""
    targets = graph.table.T.tolist()
    return _burning_config(graph, targets, _wilson_slots(graph, targets, rng))


# ---------------------------------------------------------------------------
# Exact total variation by evolving the walk's law on the Smith torus.
# ---------------------------------------------------------------------------


def exact_tv_curve(graph: GasketGraph, t_max: int, cap: int = DEFAULT_CHARACTER_CAP) -> list[float]:
    """TV distance from uniform after 0..t_max steps, by evolving the law p
    of the walk started at the identity over the N points of the Smith
    torus.  Row v of one (n, N) gather table holds, at each point y, the
    flat index of y minus vertex v's step, so a step is
    p <- (p + sum_v p[table[v]]) / (n + 1) and TV = (1/2) sum |p - 1/N|.
    A step takes about 20 us at level 1 (N = 1,444) on a 2-core VM.  At the
    largest group the default cap admits, corner-sink level 2 (N = 524,880),
    the table and each step's gather hold 14 x N entries, 59 MB apiece.
    Raises `GroupTooLargeError` when the group order exceeds `cap`."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    dims, shifts = _smith_shifts(graph, cap)
    flat = np.arange(math.prod(dims)).reshape(dims)
    axes = tuple(range(flat.ndim))
    table = np.stack([np.roll(flat, shift, axis=axes).ravel() for shift in shifts])
    law = np.zeros(flat.size)
    law[0] = 1.0  # the identity class has zero coordinates
    uniform = 1 / flat.size
    curve = [0.5 * float(np.abs(law - uniform).sum())]
    for _ in range(t_max):
        law = (law + law[table].sum(axis=0)) / (graph.n_vertices + 1)
        curve.append(0.5 * float(np.abs(law - uniform).sum()))
    return curve


# ---------------------------------------------------------------------------
# Mixing-time bounds.
# ---------------------------------------------------------------------------

LOWER_BOUND_C = math.log(10**6) / 12


def tv_lower_bound(level: int, t: int) -> float:
    if level < 1:
        raise ValueError("the statistic needs level >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    return _r_and_tv_lower(level, t)[1]


def _r_and_tv_lower(level: int, t: int) -> tuple[float, float]:
    """R(t) and the bound 1 - 4/(4 + R(t)) in floating point."""
    n = gasket_size(level)
    r = 3 ** (level - 1) * (1 - 6 / (n + 1)) ** (2 * t)
    return r, 1 - 4 / (4 + r)


def lower_bound_raw(level: int) -> float:
    """(n/12) log n - c n with c = log(10**6)/12; negative for small gaskets
    (it only turns positive once n exceeds a million vertices)."""
    n = gasket_size(level)
    return (n / 12) * math.log(n) - LOWER_BOUND_C * n


def lower_bound_t(level: int) -> int:
    return max(0, math.floor(lower_bound_raw(level)))


def upper_bound_t(level: int) -> int:
    """The spectral upper bound threshold (5/4) (n+1) log(34 n)."""
    return t_star(gasket_size(level))


@dataclass
class MixingReport:
    """Analytic mixing summary and group order for one level, with optional
    Monte Carlo decay estimates attached."""

    level: int
    n_vertices: int
    spectral_gap_upper: float
    lower_bound_raw: float
    lower_bound_t: int
    upper_bound_t: int
    r_curve: list[tuple[int, float, float]]
    group_order: int
    chi_decay: list[ChiDecayEstimate] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "n_vertices": self.n_vertices,
            "spectral_gap_upper": self.spectral_gap_upper,
            "lower_bound_raw": self.lower_bound_raw,
            "lower_bound_t": self.lower_bound_t,
            "upper_bound_t": self.upper_bound_t,
            "group_order": group.digits(self.group_order),
            "r_curve": [
                {"t": t, "r": r, "tv_lower": tv} for t, r, tv in self.r_curve
            ],
            "chi_decay": [e.to_json() for e in self.chi_decay],
        }


def mixing_report(level: int, chi_trials: int = 0, seed: int | None = None) -> MixingReport:
    """Analytic bounds, the group order and, optionally, the decay estimates
    at `CHI_TIMES`.  The order comes from the sparse factorization of the
    reduced Laplacian, 0.1-0.2 s at level 8 on a 2-core VM."""
    if level < 1:
        raise ValueError("mixing report needs level >= 1")
    n = gasket_size(level)
    upper_t = upper_bound_t(level)
    sample_ts = sorted({0, 1, 2, 5, 10, 25, 50, upper_t})
    r_curve = [(t, *_r_and_tv_lower(level, t)) for t in sample_ts]
    report = MixingReport(
        level=level,
        n_vertices=n,
        spectral_gap_upper=6 / (n + 1),
        lower_bound_raw=lower_bound_raw(level),
        lower_bound_t=lower_bound_t(level),
        upper_bound_t=upper_t,
        r_curve=r_curve,
        group_order=group.sandpile_group_order(build_gasket(level)),
    )
    if chi_trials > 0:
        report.chi_decay = _chi_estimates(level, CHI_TIMES, chi_trials, seed)
    return report
