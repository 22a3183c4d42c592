"""Abelian sandpile dynamics on gasket graphs.

A configuration assigns a non-negative chip count to every non-sink vertex.
A vertex with at least as many chips as its degree can topple, sending one
chip along every incident edge (chips crossing sink edges vanish).  The
stabilization operator topples until no vertex can fire; by the abelian
property the result and the firing counts (odometer) are order-independent.

One kernel, `_stabilize_raw`, does all toppling, in two phases chosen from
the input.  A work queue of unstable vertices, in exact Python ints, serves
avalanches that start narrow, such as the CLI's `stabilize`.  When more
than half of the vertices are queued at the start of a generation and one
bound on the chip total (`_fits_int64`) shows that nothing can overflow
int64, the rest of the avalanche runs as synchronous numpy rounds in which
every vertex fires at once, as in the stabilization behind a recurrent
representative.  When nothing is frozen, those rounds start from the
least-action lower bound max(0, ceil(Delta^{-1}(c - m))) on the odometer,
m = degree - 1, which one sparse solve gives and which is most of the
odometer of a wide avalanche.  `stabilize` and `recurrent_rep` call the
kernel directly; the test suite wraps it to re-check
result = start - Laplacian @ odometer on every call.

Dhar's burning test runs no toppling: a stable configuration plus beta
fires each vertex at most once, so `_burnt` finds the vertices that fire in
one pass over the burnt set, with no chip arithmetic.  The kernel stays its
reference in the tests.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gasket import CORNER_NAMES, GasketGraph, build_gasket, cell_index, gasket_size, parse_boundary
from . import group


@dataclass(frozen=True)
class Configuration:
    """Chip counts over the non-sink vertices of a gasket graph, in canonical
    vertex order.  Instances are immutable; all dynamics return new ones."""

    graph: GasketGraph
    chips: tuple[int, ...]

    def __post_init__(self):
        if len(self.chips) != self.graph.n_vertices:
            raise ValueError("chip vector length must match vertex count")
        if min(self.chips, default=0) < 0:
            raise ValueError("chip counts must be non-negative")

    @property
    def is_stable(self) -> bool:
        return all(map(operator.lt, self.chips, self.graph.degrees))

    @property
    def total(self) -> int:
        return sum(self.chips)

    def add(self, other: "Configuration") -> "Configuration":
        if other.graph is not self.graph:
            raise ValueError("configurations live on different graphs")
        return Configuration(self.graph, tuple(a + b for a, b in zip(self.chips, other.chips)))

    def scale(self, k: int) -> "Configuration":
        if k < 0:
            raise ValueError("negative multiple of a configuration")
        return Configuration(self.graph, tuple(k * c for c in self.chips))


def config(graph: GasketGraph, entries) -> Configuration:
    """A configuration from integer entries (`operator.index`); a float or
    Fraction raises TypeError instead of being truncated."""
    return Configuration(graph, tuple(map(operator.index, entries)))


def zero_config(graph: GasketGraph) -> Configuration:
    return Configuration(graph, (0,) * graph.n_vertices)


def max_config(graph: GasketGraph) -> Configuration:
    """The maximal stable configuration: degree - 1 chips everywhere."""
    return Configuration(graph, tuple(d - 1 for d in graph.degrees))


def _stabilize_raw(graph: GasketGraph, chips: list[int], frozen=()):
    """Topple in place until stable; returns the odometer.  This is the only
    code in the package that fires vertices; it serves `stabilize` and
    `recurrent_rep`, and the burning test's reference in the tests.

    Work-queue with batch firing: a popped vertex fires floor(chips/degree)
    times at once.  While toppling, the list holds each vertex's excess
    chips - degree, so a vertex is unstable when its excess is >= 0.  A
    vertex is pushed when the chips it receives lift its excess from below 0
    to 0 or above, so the queue holds every unstable vertex exactly once.
    Frozen vertices get a threshold above the total chip count, which
    toppling never reaches, so they never fire and simply accumulate chips.

    The queue is FIFO and runs one generation at a time (the vertices queued
    when the pass starts).  Before each generation it looks at the
    avalanche's width: when more than half of the vertices are queued and
    every value the rest of the stabilization can reach provably fits in
    int64 (`_fits_int64`), the rest goes to `_topple_rounds`, synchronous
    rounds on numpy arrays that, when nothing is frozen, first fire the
    least-action lower bound on the odometer at once.  By the abelian
    property and least action, the rounds give the same result and
    odometer as the queue.
    """
    degrees = graph.degrees
    if frozen:
        degrees = list(degrees)
        unreachable = sum(chips) + 1
        for v in frozen:
            degrees[v] = unreachable
    neighbors = graph.neighbors
    n = len(chips)
    odometer = [0] * n
    for v, d in enumerate(degrees):
        chips[v] -= d
    queue = [v for v, e in enumerate(chips) if e >= 0]
    while queue:
        if 2 * len(queue) > n and _fits_int64(chips, degrees):
            for v, d in enumerate(degrees):
                chips[v] += d
            rounds = _topple_rounds(graph, chips, degrees)
            return [a + b for a, b in zip(odometer, rounds)]
        generation, queue = queue, []
        push = queue.append
        for v in generation:
            d = degrees[v]
            e = chips[v]
            fires = e // d + 1
            chips[v] = e - fires * d
            odometer[v] += fires
            for w in neighbors[v]:
                e = chips[w] + fires
                chips[w] = e
                if e >= 0 and e < fires:
                    push(w)
    for v, d in enumerate(degrees):
        chips[v] += d
    return odometer


def _fits_int64(excess: list[int], thresholds) -> bool:
    """Whether `_topple_rounds` can stabilize the configuration
    `excess + thresholds` in int64, head start included.

    With T the chip total, chip counts stay in [0, T].  The odometer is the
    Green's function applied to the chips that leave, so an entry is at most
    T times the expected time for the walk started there to be killed at
    the sink (or at a frozen vertex).  That time is at most the commute time
    2|E| R_eff <= 8n * n, since every degree is at most 4 (so 2|E| <= 8n)
    and every vertex is at most n edges from the sink.  So an odometer entry
    is at most U = T * 8n**2, the head start's intermediate values lie in
    [-4U, T + 4U], and T * 64n**2 < 2**63 keeps every value in int64."""
    n = len(excess)
    total = sum(excess) + sum(thresholds)
    return max(max(thresholds), total * 64 * n * n) < 2**63


def _least_action_start(graph: GasketGraph, chips: list[int]) -> list[int]:
    """max(0, ceil(Delta^{-1}(chips - m))) entrywise, with m = degree - 1 the
    maximal stable configuration: a lower bound on the odometer of
    stabilizing `chips`, from one sparse solve."""
    y, den = group.lattice_data(graph).solve([c - d + 1 for c, d in zip(chips, graph.degrees)])
    return [max(0, -(-v // den)) for v in y]


def _topple_rounds(graph: GasketGraph, chips: list[int], thresholds) -> list[int]:
    """Stabilize in place by synchronous rounds; returns the odometer.

    Every vertex fires max(0, floor(chips/threshold)) times per round, all
    at once, until no vertex fires.  All arithmetic is exact int64 (the
    caller checks with `_fits_int64` that nothing can overflow); each vertex
    receives the integer sum of its neighbours' fires, gathered through the
    neighbour table, never a float sum.

    When the thresholds are the degrees (nothing frozen), the first round
    instead fires the head start l = `_least_action_start`, a lower bound
    on the odometer u*, and the rounds are still exact:
    - l <= u*, because u* = Delta^{-1}(c - s) with s <= m and Delta^{-1} is
      entrywise non-negative;
    - from any u <= u*, a vertex holding x >= d chips has
      u*_v - u_v >= floor(x/d), since d (u*_v - u_v) >= x - s_v > x - d, so
      no round passes u*;
    - at the end c - Delta u is stable with u >= 0, so u >= u* by least
      action, hence u = u*.
    After the jump a vertex with l_v > 0 holds more than m_v - d_v = -1
    chips, and one with l_v = 0 has only gained, so chips are negative only
    where a raw input was; such vertices never fire.  An odometer entry is
    at most U = T * 8n**2 for a chip total T, so the jump's intermediate
    values lie in [-4U, T + 4U], which `_fits_int64` keeps in int64."""
    n = len(chips)
    slots = graph.table
    c = np.array(chips, dtype=np.int64)
    d = np.array(thresholds, dtype=np.int64)
    odometer = np.zeros(n, dtype=np.int64)
    padded = np.zeros(n + 1, dtype=np.int64)
    fires = padded[:n]
    if tuple(thresholds) == graph.degrees:
        fires[:] = _least_action_start(graph, chips)
    while True:
        odometer += fires
        c -= fires * d
        c += padded[slots].sum(axis=0)
        np.floor_divide(c, d, out=fires)
        np.maximum(fires, 0, out=fires)
        if not fires.any():
            break
    chips[:] = c.tolist()
    return odometer.tolist()


def stabilize(conf: Configuration, frozen=()):
    """Stabilize a configuration; returns (stable configuration, odometer).

    With a frozen vertex set, those vertices are excluded from toppling, so
    the result is stable off the frozen set and the odometer is zero on it.
    """
    chips = list(conf.chips)
    odometer = _stabilize_raw(conf.graph, chips, frozen)
    return Configuration(conf.graph, tuple(chips)), tuple(odometer)


def oplus(a: Configuration, b: Configuration) -> Configuration:
    """Sandpile addition: pointwise sum, then stabilize."""
    result, _ = stabilize(a.add(b))
    return result


def _burnt(conf: Configuration) -> list[int]:
    """The vertices that fire in Dhar's burning test, in burning order.

    Stabilizing a stable configuration plus beta fires each vertex at most
    once (Dhar 1990): after firing, a vertex holds chips + beta - degree
    plus one chip per neighbour that fired, so at most chips < degree.  A
    vertex therefore fires once its need, degree - chips - beta minus the
    number of its neighbours that fired, is <= 0.  Vertices with need <= 0
    burn first; each burnt vertex takes one from the need of each of its
    neighbours, and a neighbour burns when its need reaches 0.  The list
    grows while it is read: one pass over the burnt set, no chips moved."""
    if not conf.is_stable:
        raise ValueError("burning test needs a stable configuration")
    graph = conf.graph
    need = list(map(operator.sub, graph.degrees, map(operator.add, conf.chips, graph.beta)))
    burnt = [v for v, k in enumerate(need) if k <= 0]
    push = burnt.append
    neighbors = graph.neighbors
    for v in burnt:
        for w in neighbors[v]:
            k = need[w] - 1
            need[w] = k
            if not k:
                push(w)
    return burnt


def burning_odometer(conf: Configuration):
    """Dhar burning test: the odometer of adding one chip per sink edge
    and stabilizing, read off the burnt set (`_burnt`).

    Returns (recurrent, odometer): the configuration is recurrent exactly
    when every vertex fires, and since each vertex fires at most once, the
    odometer is the indicator of the burnt set.
    """
    burnt = _burnt(conf)
    odometer = [0] * conf.graph.n_vertices
    for v in burnt:
        odometer[v] = 1
    return len(burnt) == len(odometer), tuple(odometer)


def is_recurrent_burning(conf: Configuration) -> bool:
    return len(_burnt(conf)) == conf.graph.n_vertices


def identity_candidate(graph: GasketGraph) -> tuple[int, ...]:
    """The identity by the paper's characterization, one scatter over the
    cells of `cell_index`: 3 chips everywhere, except that
    - with a corner sink, every cell holds 2 on its midpoint opposite the
      sink and the two other corners hold 1 (the level-n (1,1,1) tile
      turned so that its lower-left corner sits on the sink);
    - on the normal boundary, a cell below the top one lies in the copy at
      some corner c and holds 2 opposite c, and the top cell's midpoints
      and the corners hold 2 (the level-(n-1) (2,2,2) tile glued with its
      two rotations; level 0 is all 2)."""
    mids, _, big = cell_index(graph)
    chips = np.full(graph.n_vertices + 1, 3)  # slot n takes a sunk corner
    # Midpoint column 2 - c lies opposite corner c of CORNER_NAMES, and a
    # level's cells are the lower-left, lower-right and top copy's, a third each.
    if graph.boundary.kind == "corner_sink":
        sink = CORNER_NAMES.index(graph.boundary.corner)
        for cells in mids:
            chips[cells[:, 2 - sink]] = 2
        chips[list(big)] = 1
    else:
        for cells in mids[:-1]:
            copy = np.arange(len(cells)) * 3 // len(cells)
            chips[cells[np.arange(len(cells)), 2 - copy]] = 2
        if mids:
            chips[mids[-1]] = 2
        chips[list(big)] = 2
    return tuple(chips[:-1].tolist())


def _certified_identity(graph: GasketGraph, chips) -> Configuration:
    """`chips` as a configuration when it is the identity of `graph`;
    otherwise ArithmeticError naming the first of the three properties
    below that it lacks.

    A stable configuration that passes the burning test is recurrent, each
    class of the sandpile group holds exactly one recurrent configuration
    (Dhar 1990; Holroyd et al. 2008), and the identity's class is the
    lattice itself.  So stable, recurrent and in the lattice is the identity,
    and nothing topples.  `identity` certifies its candidate here, and
    `selfsim.verify_doubling` the (2,1,1) tile off its sunk corner."""
    conf = config(graph, chips)
    if not conf.is_stable:
        raise ArithmeticError("the configuration is not stable")
    if not is_recurrent_burning(conf):
        raise ArithmeticError("the configuration is not recurrent")
    if not group.in_lattice(graph, conf.chips):
        raise ArithmeticError("the configuration is not in the lattice")
    return conf


@lru_cache(maxsize=None)
def identity(graph: GasketGraph) -> Configuration:
    """The neutral element of the sandpile group on recurrent configurations:
    the recurrent configuration in the lattice's own class.

    It is written down from the paper's characterization
    (`identity_candidate`) and returned only once certified: stable,
    recurrent by the burning test and in the lattice, which makes it the one
    recurrent configuration of the zero class.  A candidate that fails
    raises ArithmeticError.  The glued tiles (`selfsim.identity_from_tiles`)
    and the stabilizing `recurrent_rep(graph, [0] * n)` give the same
    configuration and serve as the references."""
    return _certified_identity(graph, identity_candidate(graph))


def recurrent_rep(graph: GasketGraph, entries) -> Configuration:
    """The unique recurrent configuration whose difference from `entries`
    lies in the reduced-Laplacian lattice.

    The input is any integer vector (negative entries allowed); a
    non-integer entry raises TypeError.  With
    m = degree - 1 the maximal stable configuration, it stabilizes
    2m + `group.lattice_reduce`(entries - 2m), which is in the same class.
    The reduced vector's entries lie in [1 - #neighbors(v), deg(v) - 1], so
    every chip count is at least 2m_v - #neighbors(v) + 1 >= m_v, and a
    configuration >= m stabilizes to the recurrent one in its class.
    With a zero vector this is the identity by stabilization, the reference
    for the characterization in `identity`.
    """
    x = [operator.index(v) for v in entries]
    if len(x) != graph.n_vertices:
        raise ValueError("entry vector length must match vertex count")
    m = [d - 1 for d in graph.degrees]
    reduced = group.lattice_reduce(graph, [v - 2 * mv for v, mv in zip(x, m)])
    chips = [2 * mv + r for mv, r in zip(m, reduced)]
    if any(c < mv for c, mv in zip(chips, m)):
        raise ArithmeticError("reduced configuration falls below the maximal stable one")
    _stabilize_raw(graph, chips)
    return Configuration(graph, tuple(chips))


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def config_to_json(conf: Configuration) -> dict:
    return {
        "level": conf.graph.level,
        "boundary": conf.graph.boundary.token(),
        "chips": list(conf.chips),
    }


def _serialized_graph(level: int, token: str, n_entries: int) -> GasketGraph:
    """The graph a serialized configuration names.  The entry count is checked
    against the vertex count formula first, so a wrong length is refused
    without building the gasket.  Above the count's bit length, 2**level
    alone exceeds the count, so such a level is refused before 3**level is
    computed."""
    boundary = parse_boundary(token)
    if level > n_entries.bit_length() or n_entries != gasket_size(level) - (boundary.kind == "corner_sink"):
        raise ValueError("chip vector length must match vertex count")
    return build_gasket(level, boundary)


def config_from_json(data: dict) -> Configuration:
    """The configuration a `config_to_json` document names.  Anything but an
    object with an integer `level`, a string `boundary` and a list of
    integer `chips` raises ValueError naming the field; bools, floats and
    nulls are not integers."""
    if not isinstance(data, dict):
        raise ValueError("a configuration document must be a JSON object")
    level, boundary, chips = data.get("level"), data.get("boundary"), data.get("chips")
    if type(level) is not int:
        raise ValueError("`level` must be an integer")
    if not isinstance(boundary, str):
        raise ValueError("`boundary` must be a string")
    if not isinstance(chips, list) or any(type(c) is not int for c in chips):
        raise ValueError("`chips` must be a list of integers")
    return config(_serialized_graph(level, boundary, len(chips)), chips)


def config_to_text(conf: Configuration) -> str:
    """One-line form `level boundary c0 c1 ...` for piping between tools."""
    parts = [str(conf.graph.level), conf.graph.boundary.token()]
    parts.extend(str(c) for c in conf.chips)
    return " ".join(parts)


def config_from_text(text: str) -> Configuration:
    parts = text.split()
    if len(parts) < 2:
        raise ValueError("expected `level boundary c0 c1 ...`")
    graph = _serialized_graph(int(parts[0]), parts[1], len(parts) - 2)
    return config(graph, [int(p) for p in parts[2:]])
