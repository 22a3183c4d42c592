import random
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketpile import gasket, group, sandpile
from gasketpile.gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    NORMAL,
    TOP,
    build_gasket,
    corner_sink,
    parse_boundary,
    reduced_laplacian,
)
from gasketpile.sandpile import (
    Configuration,
    burning_odometer,
    config,
    config_from_json,
    config_from_text,
    config_to_json,
    config_to_text,
    identity,
    is_recurrent_burning,
    max_config,
    oplus,
    recurrent_rep,
    stabilize,
    zero_config,
)
from gasketpile.selfsim import assemble_from_copies, build_tile, glue_with_rotations, rotate_config, tile_chips
from test_acceptance import random_order_stabilize

G0 = build_gasket(0)
G1 = build_gasket(1)


def random_config(graph, rng):
    return config(graph, [rng.randrange(2 * d) for d in graph.degrees])


def random_recurrent(graph, rng):
    return recurrent_rep(graph, [rng.randrange(-10, 10) for _ in range(graph.n_vertices)])


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(G0, (1, 2))
    with pytest.raises(ValueError):
        Configuration(G0, (1, -1, 0))
    with pytest.raises(ValueError):
        config(G0, (0, 0, 0)).add(config(G1, (0,) * 6))


def test_config_refuses_non_integer_entries():
    for entries in ([3.9, 1, 2], [Fraction(7, 2), 1, 2], [2.0, 1, 2], np.array([3.0, 1.5, 2.0])):
        with pytest.raises(TypeError):
            config(G0, entries)
    for entries in ([3, 1, 2], np.array([3, 1, 2]), [np.int64(3), np.int8(1), 2], [True, 1, 2]):
        conf = config(G0, entries)
        assert conf.chips == (int(entries[0]), 1, 2)
        assert all(type(c) is int for c in conf.chips)


def test_single_vertex_fires_once():
    result, odometer = stabilize(config(G0, (4, 0, 0)))
    assert result.chips == (0, 1, 1)
    assert odometer == (1, 0, 0)


def test_max_config_is_stable():
    m = max_config(G0)
    assert m.chips == (3, 3, 3)
    assert m.is_stable
    assert m.total == 9
    assert not config(G0, (4, 3, 3)).is_stable


def test_large_pile_batches_down():
    big = config(G1, [10_000] + [0] * 5)
    result, odometer = stabilize(big)
    assert result.is_stable
    assert all(u >= 0 for u in odometer)
    assert result.total <= big.total


def test_oplus_adds_then_stabilizes():
    assert oplus(max_config(G0), zero_config(G0)) == max_config(G0)
    doubled = oplus(max_config(G0), max_config(G0))
    assert doubled.is_stable


def test_frozen_vertex_never_fires():
    conf = config(G0, (9, 0, 0))
    result, odometer = stabilize(conf, frozen=(0,))
    assert odometer[0] == 0
    assert result.chips[0] >= 9


@pytest.mark.parametrize("level", range(3))
def test_random_firing_order_matches_fifo(level):
    graph = build_gasket(level)
    rng = random.Random(level)
    for trial in range(10):
        conf = random_config(graph, rng)
        base, base_odo = stabilize(conf)
        for order_seed in range(3):
            other, other_odo = random_order_stabilize(conf, random.Random(order_seed))
            assert other == base
            assert other_odo == base_odo


def naive_stabilize(graph, chips, frozen):
    """Reference toppling: rescan for the first unstable vertex off the frozen
    set, fire it once, repeat until none is left."""
    chips = list(chips)
    odometer = [0] * len(chips)
    while True:
        for v, (c, d) in enumerate(zip(chips, graph.degrees)):
            if c >= d and v not in frozen:
                break
        else:
            return chips, odometer
        chips[v] -= graph.degrees[v]
        odometer[v] += 1
        for w in graph.neighbors[v]:
            chips[w] += 1


@pytest.mark.parametrize("boundary", ["normal", "corner_sink:lower_left", "corner_sink:top"])
@pytest.mark.parametrize("level", range(5))
def test_kernel_matches_naive_toppling(level, boundary):
    graph = build_gasket(level, parse_boundary(boundary))
    n = graph.n_vertices
    rng = random.Random(f"{level}:{boundary}")
    for trial in range(8):
        chips = list(random_config(graph, rng).chips)
        v, extra = rng.randrange(n), rng.randrange(40)
        chips[v] += extra
        conf = config(graph, chips)
        frozen = rng.sample(range(n), rng.randrange(1, min(n, 4))) if trial % 2 else ()
        want = naive_stabilize(graph, conf.chips, frozen)
        result, odometer = stabilize(conf, frozen=frozen)
        assert (list(result.chips), list(odometer)) == want
        assert random_order_stabilize(conf, random.Random(trial), frozen) == (result, odometer)


@pytest.fixture
def rounds_calls(monkeypatch):
    """Records the chip total at every hand-off from the queue to the
    synchronous rounds."""
    calls = []
    rounds = sandpile._topple_rounds

    def counted(graph, chips, thresholds):
        calls.append(sum(chips))
        return rounds(graph, chips, thresholds)

    monkeypatch.setattr(sandpile, "_topple_rounds", counted)
    return calls


def wide_inputs(graph, rng):
    """Chip vectors with every vertex unstable: 2m, the doubled (2,1,1) tile
    on the lower-left corner-sink gasket, and random chips in [d, 3d)."""
    yield [2 * (d - 1) for d in graph.degrees]
    if graph.boundary == corner_sink(LOWER_LEFT) and graph.level >= 1:
        doubled = build_tile(graph.level, 2, 1, 1).scale(2)
        yield [doubled.chips[doubled.graph.index(c)] for c in graph.points.tolist()]
    yield [rng.randrange(d, 3 * d) for d in graph.degrees]


@pytest.mark.parametrize("boundary", ["normal", "corner_sink:lower_left", "corner_sink:top"])
@pytest.mark.parametrize("level", range(5))
def test_rounds_phase_matches_naive_toppling(level, boundary, rounds_calls):
    graph = build_gasket(level, parse_boundary(boundary))
    n = graph.n_vertices
    rng = random.Random(f"rounds:{level}:{boundary}")
    for chips in wide_inputs(graph, rng):
        assert all(c >= d for c, d in zip(chips, graph.degrees))
        for frozen in ((), rng.sample(range(n), rng.randrange(1, min(n, 4)))):
            rounds_calls.clear()
            result, odometer = stabilize(config(graph, chips), frozen=frozen)
            assert (list(result.chips), list(odometer)) == naive_stabilize(graph, chips, frozen)
            # Every vertex off the frozen set starts unstable, so the first
            # generation is wide exactly when they are more than half.
            if 2 * (n - len(frozen)) > n:
                assert rounds_calls == [sum(chips)]


def parallel_stabilize(graph, chips):
    """Reference toppling in parallel steps: every unstable vertex fires
    once per step, through the sparse reduced Laplacian."""
    laplacian = scipy.sparse.csr_matrix(np.array(reduced_laplacian(graph), dtype=np.int64))
    c = np.array(chips, dtype=np.int64)
    d = np.array(graph.degrees, dtype=np.int64)
    odometer = np.zeros_like(c)
    while (fires := (c >= d).astype(np.int64)).any():
        odometer += fires
        c -= laplacian @ fires
    return c.tolist(), odometer.tolist()


@pytest.mark.parametrize("boundary", ["normal", "corner_sink:lower_left", "corner_sink:top"])
@pytest.mark.parametrize("level", range(6))
def test_least_action_start_is_below_the_odometer(level, boundary):
    graph = build_gasket(level, parse_boundary(boundary))
    rng = random.Random(f"start:{level}:{boundary}")
    for chips in wide_inputs(graph, rng):
        want = parallel_stabilize(graph, chips)
        if level <= 3:
            assert want == naive_stabilize(graph, chips, ())
        start = sandpile._least_action_start(graph, chips)
        assert all(0 <= s <= u for s, u in zip(start, want[1]))


def test_rounds_never_untopple_negative_chips(rounds_calls):
    # From non-negative chips the jump to the least-action start leaves no
    # vertex below 0 chips; from a raw list with negative entries it leaves
    # some negative, and such a vertex must not fire a negative number of
    # times.
    graph = build_gasket(3)
    chips = [2 * (d - 1) for d in graph.degrees]
    for v in range(0, graph.n_vertices, 7):
        chips[v] = -1000
    start = sandpile._least_action_start(graph, chips)
    jumped = [
        c - d * s + sum(start[w] for w in nbrs)
        for c, d, s, nbrs in zip(chips, graph.degrees, start, graph.neighbors)
    ]
    assert min(jumped) < 0
    result = list(chips)
    odometer = sandpile._stabilize_raw(graph, result)
    assert rounds_calls == [sum(chips)]
    assert (result, odometer) == naive_stabilize(graph, chips, ())


def test_rounds_phase_is_guarded_against_int64_overflow(rounds_calls, monkeypatch):
    # With T chips on n vertices an odometer entry stays below T * 8n**2
    # and the head start's values below T * 64n**2, the one bound
    # `_fits_int64` checks.  2**40 chips on each of 42 vertices keep that
    # below 2**63, so the rounds take over at once.
    g3 = build_gasket(3)
    wide = config(g3, [2**40] * g3.n_vertices)
    wide_result = stabilize(wide)
    assert rounds_calls == [wide.total]
    # Just under the bound at level 0 the head start moves more than 2**53
    # chips out of every vertex at once, beyond float64's exact integers:
    # the sums must be exact.
    rounds_calls.clear()
    near = config(G0, [2**52 + 2**49 - 1, 2**52 + 2**49 - 3, 2**52 + 2**49 - 7])
    assert all(4 * s > 2**53 for s in sandpile._least_action_start(G0, list(near.chips)))
    near_result = stabilize(near)
    assert rounds_calls == [near.total]
    # Between the odometer bound and the head-start bound the queue works
    # in Python ints until the sink has taken enough chips.
    rounds_calls.clear()
    between = config(G0, [2**55 - 1, 2**55 - 3, 2**55 - 7])
    assert between.total * 8 * 3**2 < 2**63 <= between.total * 64 * 3**2
    between_result = stabilize(between)
    assert rounds_calls and all(total * 64 * 3**2 < 2**63 for total in rounds_calls)
    # A pile of 2**70 does not fit in int64 at all: the queue works in Python
    # ints until the sink has taken enough chips for the bound to hold.
    rounds_calls.clear()
    pile = config(G1, [2**70] + [0] * 5)
    result, odometer = stabilize(pile)
    assert result.is_stable and max(odometer) >= 2**64
    assert all(total * 64 * 6**2 < 2**63 for total in rounds_calls)
    # The queue alone, in Python ints, gives the same results.
    rounds_calls.clear()
    monkeypatch.setattr(sandpile, "_fits_int64", lambda excess, thresholds: False)
    assert stabilize(wide) == wide_result
    assert stabilize(near) == near_result
    assert stabilize(between) == between_result
    assert stabilize(pile) == (result, odometer)
    assert rounds_calls == []


def test_burning_accepts_maximal_config():
    recurrent, odometer = burning_odometer(max_config(G1))
    assert recurrent
    assert odometer == (1,) * 6


def test_burning_rejects_zero_config():
    assert not is_recurrent_burning(zero_config(G0))


def test_burning_requires_stable_input():
    with pytest.raises(ValueError):
        burning_odometer(config(G0, (4, 0, 0)))


def test_burnt_set_requires_stable_input():
    for boundary in BOUNDARIES:
        graph = build_gasket(2, boundary)
        chips = list(max_config(graph).chips)
        chips[-1] += 1
        with pytest.raises(ValueError, match="stable"):
            is_recurrent_burning(config(graph, chips))


def queue_burning(conf):
    """The burning test on the toppling kernel: stabilize chips + beta; the
    configuration is recurrent iff the chips come back and every vertex
    fired once."""
    chips = [c + b for c, b in zip(conf.chips, conf.graph.beta)]
    odometer = sandpile._stabilize_raw(conf.graph, chips)
    return tuple(chips) == conf.chips and odometer.count(1) == len(odometer), tuple(odometer)


@settings(max_examples=200, deadline=None)
@given(
    level=st.integers(0, 7),
    boundary=st.sampled_from(("normal", *(f"corner_sink:{name}" for name in CORNER_NAMES))),
    kind=st.sampled_from(("uniform", "high", "recurrent")),
    seed=st.integers(0, 2**32 - 1),
)
def test_burnt_set_equals_the_queue_burning_test(level, boundary, kind, seed):
    """On stable configurations (uniform, mostly maximal, and recurrent
    ones), the burnt-set pass gives the kernel's verdict and odometer.  The
    recurrent ones come from `recurrent_rep` up to level 5; above, where
    one representative takes 0.1-5 s of toppling rounds, from the identity
    raised at random toward the maximal configuration, which stays
    recurrent (a stable configuration above a recurrent one is recurrent)."""
    graph = build_gasket(level, parse_boundary(boundary))
    rng = random.Random(seed)
    if kind == "recurrent" and level <= 5:
        conf = recurrent_rep(graph, [rng.randint(-20, 20) for _ in range(graph.n_vertices)])
    elif kind == "recurrent":
        conf = config(graph, [rng.randint(c, d - 1) for c, d in zip(identity(graph).chips, graph.degrees)])
    elif kind == "high":
        conf = config(graph, [rng.choice((d - 1, d - 1, d - 1, rng.randrange(d))) for d in graph.degrees])
    else:
        conf = config(graph, [rng.randrange(d) for d in graph.degrees])
    expected = queue_burning(conf)
    assert burning_odometer(conf) == expected
    assert is_recurrent_burning(conf) == expected[0]
    if kind == "recurrent":
        assert expected == (True, (1,) * graph.n_vertices)


def test_identity_level0():
    assert identity(G0).chips == (2, 2, 2)


def test_identity_is_recurrent_and_in_trivial_class():
    for level in range(3):
        graph = build_gasket(level)
        e = identity(graph)
        assert is_recurrent_burning(e)
        assert group.in_lattice(graph, list(e.chips))


def test_identity_is_neutral_and_idempotent():
    rng = random.Random(7)
    for level in range(3):
        graph = build_gasket(level)
        e = identity(graph)
        assert oplus(e, e) == e
        for _ in range(7):
            eta = random_recurrent(graph, rng)
            assert is_recurrent_burning(eta)
            assert oplus(e, eta) == eta


def test_recurrent_rep_of_zero_is_identity():
    for level in range(3):
        graph = build_gasket(level)
        assert recurrent_rep(graph, [0] * graph.n_vertices) == identity(graph)


def test_recurrent_rep_fixes_recurrent_configs():
    rng = random.Random(11)
    for level in range(3):
        graph = build_gasket(level)
        for _ in range(5):
            eta = random_recurrent(graph, rng)
            assert recurrent_rep(graph, list(eta.chips)) == eta


def test_recurrent_rep_handles_wild_entries():
    eta = recurrent_rep(G1, [-40, 999, -3, 0, 123456, -777])
    assert is_recurrent_burning(eta)
    assert recurrent_rep(G1, list(eta.chips)) == eta


@pytest.mark.parametrize("level", range(1, 5))
def test_recurrent_rep_stabilizes_once(level, monkeypatch):
    """A cold identity runs no stabilization (its burning test fires
    nothing) and no toppling rounds; the representative of a wild vector
    costs one stabilization: no cached helper configuration is stabilized
    first."""
    real, real_rounds = sandpile._stabilize_raw, sandpile._topple_rounds
    calls, rounds = [], []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def counting_rounds(*args, **kwargs):
        rounds.append(1)
        return real_rounds(*args, **kwargs)

    graph = build_gasket(level)
    for module in (sandpile, gasket, group):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear") and getattr(cached, "__module__", None) == module.__name__:
                cached.cache_clear()
    monkeypatch.setattr(sandpile, "_stabilize_raw", counting)
    monkeypatch.setattr(sandpile, "_topple_rounds", counting_rounds)
    identity(graph)
    assert (len(calls), len(rounds)) == (0, 0)
    rng = random.Random(level)
    recurrent_rep(graph, [rng.randint(-10**6, 10**6) for _ in range(graph.n_vertices)])
    assert len(calls) == 1


BOUNDARIES = (NORMAL, *(corner_sink(name) for name in CORNER_NAMES))


@pytest.mark.parametrize("level", range(8))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_tile_identity_equals_the_stabilized_one(level, boundary):
    graph = build_gasket(level, boundary)
    assert identity(graph) == recurrent_rep(graph, [0] * graph.n_vertices)


def corner_sink_candidate(level, sink, turn):
    """The (1,1,1) tile, rotated by `turn` (or not), restricted to the gasket
    with the corner `sink` sunk."""
    full, graph = build_gasket(level), build_gasket(level, corner_sink(sink))
    tile = config(full, tile_chips(level, 1, 1, 1))
    if turn:
        tile = rotate_config(tile, turn)
    return graph, [tile.chips[full.index(c)] for c in graph.points.tolist()]


@pytest.mark.parametrize("level", range(9))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_the_characterization_equals_the_tile_construction(level, boundary):
    """The cell-by-cell candidate against the paper's tiles: glued with their
    rotations on the normal boundary (level 0 is the (2,2,2) tile itself),
    turned onto the sink otherwise."""
    graph = build_gasket(level, boundary)
    if boundary.kind == "corner_sink":
        turn = {LOWER_LEFT: None, LOWER_RIGHT: "ccw", TOP: "cw"}[boundary.corner]
        expected = corner_sink_candidate(level, boundary.corner, turn)[1]
    elif level == 0:
        expected = tile_chips(0, 2, 2, 2)
    else:
        expected = glue_with_rotations(config(build_gasket(level - 1), tile_chips(level - 1, 2, 2, 2))).chips
    assert sandpile.identity_candidate(graph) == tuple(expected)


@pytest.mark.parametrize("level", [1, 3, 5])
def test_the_tile_turned_onto_the_sink_is_certified(level):
    for sink, turn in ((LOWER_LEFT, None), (LOWER_RIGHT, "ccw"), (TOP, "cw")):
        graph, chips = corner_sink_candidate(level, sink, turn)
        assert sandpile._certified_identity(graph, chips) == identity(graph)


@pytest.mark.parametrize("level", [1, 3, 5])
@pytest.mark.parametrize(
    "sink, turn",
    [(LOWER_RIGHT, "cw"), (TOP, "ccw"), (LOWER_LEFT, "ccw"), (TOP, None), (LOWER_RIGHT, None)],
    ids=["wrong-rotation-lower-right", "wrong-rotation-top", "rotated-lower-left", "wrong-corner-top",
         "wrong-corner-lower-right"],
)
def test_a_corner_sink_candidate_on_the_wrong_corner_is_refused(level, sink, turn):
    graph, chips = corner_sink_candidate(level, sink, turn)
    with pytest.raises(ArithmeticError):
        sandpile._certified_identity(graph, chips)


@pytest.mark.parametrize("level", [2, 3, 5])
def test_a_normal_candidate_with_swapped_rotations_is_refused(level):
    # Level 1 is left out: its level-0 (2,2,2) tile is invariant under rotation.
    tile = config(build_gasket(level - 1), tile_chips(level - 1, 2, 2, 2))
    swapped = assemble_from_copies(level, {
        LOWER_LEFT: tile.chips,
        LOWER_RIGHT: rotate_config(tile, "cw").chips,
        TOP: rotate_config(tile, "ccw").chips,
    })
    with pytest.raises(ArithmeticError):
        sandpile._certified_identity(build_gasket(level), swapped)


@pytest.mark.parametrize("level", [0, 1, 3, 5])
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_anidentity_candidate_with_one_chip_moved_is_refused(level, boundary):
    graph = build_gasket(level, boundary)
    chips = list(sandpile.identity_candidate(graph))
    for target in range(1, graph.n_vertices):
        moved = chips[:]
        moved[0] -= 1
        moved[target] += 1
        with pytest.raises(ArithmeticError):
            sandpile._certified_identity(graph, moved)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_a_corrupted_cell_layout_makes_identity_raise(monkeypatch, boundary):
    # Every cell's midpoint columns turned by one: (bottom, left, right)
    # read as (left, right, bottom), so each 2 lands on a wrong midpoint.
    real = sandpile.cell_index

    def corrupted(graph):
        mids, corners, big = real(graph)
        return tuple(np.roll(cells, -1, axis=1) for cells in mids), corners, big

    graph = build_gasket(3, boundary)
    sandpile.identity.cache_clear()
    monkeypatch.setattr(sandpile, "cell_index", corrupted)
    try:
        with pytest.raises(ArithmeticError):
            identity(graph)
    finally:
        sandpile.identity.cache_clear()


def test_recurrent_rep_rejects_wrong_length():
    with pytest.raises(ValueError):
        recurrent_rep(G0, [1, 2])


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.integers(0, 15), min_size=6, max_size=6),
    coeffs=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)
def test_class_is_invariant_under_lattice_moves(entries, coeffs):
    lap = reduced_laplacian(G1)
    moved = list(entries)
    for v, k in enumerate(coeffs):
        if k == 0:
            continue
        for i in range(6):
            moved[i] += k * lap[i][v]
    assert recurrent_rep(G1, moved) == recurrent_rep(G1, entries)


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(st.integers(0, 30), min_size=6, max_size=6))
def test_stabilization_result_is_stable_same_class(entries):
    result, _ = stabilize(config(G1, entries))
    assert result.is_stable
    diff = [a - b for a, b in zip(entries, result.chips)]
    assert group.in_lattice(G1, diff)


def test_json_round_trip():
    conf = identity(build_gasket(2))
    doc = config_to_json(conf)
    assert doc["level"] == 2
    assert doc["boundary"] == "normal"
    assert config_from_json(doc) == conf


def test_json_documents_are_validated_field_by_field():
    with pytest.raises(ValueError, match="JSON object"):
        config_from_json([0, "normal", [0, 0, 0]])
    good = {"level": 0, "boundary": "normal", "chips": [0, 1, 0]}
    assert config_from_json(good).chips == (0, 1, 0)
    for field, bad in (("level", True), ("level", "0"), ("boundary", None), ("chips", (0, 1, 0))):
        with pytest.raises(ValueError, match=f"`{field}`"):
            config_from_json({**good, field: bad})


def test_text_round_trip():
    conf = identity(build_gasket(2))
    line = config_to_text(conf)
    assert line == "2 normal 2 3 2 3 2 3 2 2 3 2 2 2 3 3 2"
    assert config_from_text(line) == conf


def test_text_round_trip_corner_sink():
    graph = build_gasket(1, corner_sink(LOWER_LEFT))
    conf = max_config(graph)
    assert config_from_text(config_to_text(conf)) == conf


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        config_from_text("2")
    with pytest.raises(ValueError):
        config_from_text("0 nonsense 1 2 3")


def test_a_wrong_length_is_refused_before_the_gasket_is_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_gasket called")

    monkeypatch.setattr(sandpile, "build_gasket", no_build)
    # At level 10**8 even the vertex count 3 * (3**level + 1) / 2 would take
    # minutes: the level is bounded by the entry count first.
    for level in (30, 10**8):
        start = time.perf_counter()
        for text in (f"{level} normal 1 2 3", f"{level} corner_sink:top 1"):
            with pytest.raises(ValueError, match="chip vector length must match vertex count"):
                config_from_text(text)
        doc = {"level": level, "boundary": "normal", "chips": [1, 2, 3]}
        with pytest.raises(ValueError, match="chip vector length must match vertex count"):
            config_from_json(doc)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("boundary", ["normal", "corner_sink:lower_left", "corner_sink:top"])
def test_serialized_lengths_are_checked_against_the_vertex_count(boundary):
    for level in range(4):
        graph = build_gasket(level, parse_boundary(boundary))
        line = config_to_text(max_config(graph))
        assert config_from_text(line) == max_config(graph)
        for wrong in (line + " 1", line.rsplit(" ", 1)[0]):
            with pytest.raises(ValueError, match="chip vector length"):
                config_from_text(wrong)
