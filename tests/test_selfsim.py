import random

import pytest

from gasketpile.gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    TOP,
    build_gasket,
    corner_sink,
    junction_coords,
    subcopy_embedding,
)
from gasketpile import gasket, group, sandpile, selfsim
from gasketpile.sandpile import (
    config,
    identity,
    is_recurrent_burning,
    recurrent_rep,
    stabilize,
)
from gasketpile.selfsim import (
    DoublingReport,
    assemble_from_copies,
    build_tile,
    glue_with_rotations,
    identity_from_tiles,
    rotate_config,
    tile_chips,
    verify_corner_transport,
    verify_doubling,
    verify_junction_invariance,
)


def corner_values(conf):
    graph = conf.graph
    return tuple(conf.chips[graph.corner_index(name)] for name in CORNER_NAMES)


def test_level1_tile_layout():
    tile = build_tile(1, 2, 1, 1)
    # Canonical order (0,0),(1,0),(2,0),(0,1),(1,1),(0,2): corners carry the
    # arguments, bottom and left midpoints carry 3, the right midpoint 2.
    assert tile.chips == (2, 3, 1, 3, 2, 1)


@pytest.mark.parametrize("args", [(2, 1, 1), (3, 2, 2), (0, 5, 1)])
def test_tile_corners_carry_the_arguments(args):
    for level in (1, 2, 3):
        assert corner_values(build_tile(level, *args)) == args


def test_level2_tile_junction_values():
    tile = build_tile(2, 0, 0, 0)
    graph = tile.graph
    assert tile.chips[graph.junction_index("bottom")] == 3
    assert tile.chips[graph.junction_index("left")] == 3
    assert tile.chips[graph.junction_index("right")] == 2


@pytest.mark.parametrize("level", [1, 2, 3])
def test_tile_interior_values_are_2_or_3(level):
    tile = build_tile(level, 7, 0, 5)
    graph = tile.graph
    corners = {graph.corner_index(name) for name in CORNER_NAMES}
    interior = {tile.chips[i] for i in range(graph.n_vertices) if i not in corners}
    assert interior == {2, 3}


@pytest.mark.parametrize("level", [2, 3, 4])
def test_tile_recursion_assembles_from_three_children(level):
    tile = build_tile(level, 2, 1, 1)
    lower_left = build_tile(level - 1, 2, 3, 3)
    lower_right = build_tile(level - 1, 3, 1, 2)
    top = build_tile(level - 1, 3, 2, 1)
    for name, child in ((LOWER_LEFT, lower_left), (LOWER_RIGHT, lower_right), (TOP, top)):
        emb = subcopy_embedding(level, name)
        for child_i, parent_i in enumerate(emb):
            assert tile.chips[parent_i] == child.chips[child_i]


def tile_chips_by_recursion(level, x, y, z):
    """The paper's tile recursion, the reference for the closed form."""
    if level == 1:
        values = {(0, 0): x, (2, 0): y, (0, 2): z, (1, 0): 3, (0, 1): 3, (1, 1): 2}
        return [values[a, b] for a, b in build_gasket(1).points.tolist()]
    parts = {
        LOWER_LEFT: tile_chips_by_recursion(level - 1, x, 3, 3),
        LOWER_RIGHT: tile_chips_by_recursion(level - 1, 3, y, 2),
        TOP: tile_chips_by_recursion(level - 1, 3, 2, z),
    }
    return assemble_from_copies(level, parts)


@pytest.mark.parametrize("level", range(1, 9))
def test_closed_form_tiles_equal_the_plain_recursion(level):
    for args in ((2, 1, 1), (2, 2, 2), (2 + 4 * 3**level, 1, 1), (7, 0, 5), (2**70, 3, 2**70 + 1)):
        chips = tile_chips(level, *args)
        assert chips == tuple(tile_chips_by_recursion(level, *args))
        assert all(type(c) is int for c in chips)


def test_tiles_and_the_identity_candidate_neither_glue_nor_rotate(monkeypatch):
    """Both are one scatter over `cell_index`: no copy is glued and no chip
    vector is rotated, at any level."""

    def forbidden(*args):
        raise AssertionError("glued or rotated")

    for name in ("assemble_from_copies", "rotate_config"):
        monkeypatch.setattr(selfsim, name, forbidden)
    for name in ("rotation_ccw", "rotation_cw"):
        monkeypatch.setattr(gasket, name, forbidden)
    # Corner values no other test uses, so no cache can answer for them.
    assert tile_chips(6, 11, 12, 13)[:3] == (11, 3, 3)
    for boundary in (gasket.NORMAL, *(corner_sink(name) for name in CORNER_NAMES)):
        for level in (0, 1, 4):
            assert set(sandpile.identity_candidate(build_gasket(level, boundary))) <= {1, 2, 3}


def test_tile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_tile(0, 1, 1, 1)
    with pytest.raises(ValueError):
        build_tile(1, -1, 0, 0)


def test_assemble_rejects_junction_mismatch():
    a = build_tile(1, 2, 3, 3)
    b = build_tile(1, 3, 1, 2)
    top_bad = build_tile(1, 0, 2, 1)  # x disagrees with the left junction
    with pytest.raises(ValueError):
        assemble_from_copies(
            2, {LOWER_LEFT: list(a.chips), LOWER_RIGHT: list(b.chips), TOP: list(top_bad.chips)}
        )


def test_rotation_moves_chips_with_vertices():
    tile = build_tile(2, 5, 6, 7)
    once = rotate_config(tile, "ccw")
    assert corner_values(once) == (7, 5, 6)
    assert rotate_config(once, "cw") == tile
    thrice = rotate_config(rotate_config(once, "ccw"), "ccw")
    assert thrice == tile
    with pytest.raises(ValueError):
        rotate_config(tile, "widdershins")


@pytest.mark.parametrize("level", [1, 2, 3, 6, 7])
def test_tile_gluing_reproduces_the_identity(level):
    graph = build_gasket(level)
    assert identity_from_tiles(level) == recurrent_rep(graph, [0] * graph.n_vertices)


def test_identity_gluing_needs_level_at_least_1():
    # Level 1 glues three level-0 (2,2,2) tiles, which are just their corners.
    assert identity_from_tiles(1).chips == (2,) * 6
    with pytest.raises(ValueError):
        identity_from_tiles(0)


@pytest.mark.parametrize("level,gain", [(1, 10), (2, 34), (5, 970), (6, 2914)])
def test_doubling_collects_the_frozen_corner_excess(level, gain):
    report = verify_doubling(level)
    assert report.passed
    assert report.gain == gain == 4 * 3**level - 2
    assert report.corner_final == report.corner_expected == 2 + 4 * 3**level
    assert report.first_mismatch is None
    doc = report.to_json()
    assert doc["check"] == "doubling"
    assert doc["pass"] is True
    assert doc["details"]["expected_gain"] == gain


@pytest.mark.parametrize("level", [1, 2])
def test_corner_transport_on_the_identity(level):
    report = verify_corner_transport(level)
    assert report.passed
    details = report.to_json()["details"]
    assert details["returned_to_input"] is details["class_is_trivial"] is True


def test_corner_transport_on_random_recurrents():
    """The verdict holds for every recurrent configuration: each returns."""
    graph = build_gasket(2, corner_sink(LOWER_LEFT))
    rng = random.Random(3)
    assert verify_corner_transport(2).passed
    for _ in range(10):
        eta = recurrent_rep(graph, [rng.randrange(-8, 8) for _ in range(graph.n_vertices)])
        assert transport_by_avalanche(eta, LOWER_LEFT)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_junction_invariance_for_family_members(level):
    for x in (2, 3):
        report = verify_junction_invariance(level, build_tile(level, x, 2, 2))
        assert report.passed and report.assembled_recurrent
        assert report.to_json()["details"]["junction_add_neutral"] is True


def test_junction_invariance_rejects_wrong_corners():
    with pytest.raises(ValueError):
        verify_junction_invariance(1, build_tile(1, 2, 1, 1))
    with pytest.raises(ValueError):
        verify_junction_invariance(1, config(build_gasket(1), (0, 0, 0, 0, 2, 2)))


def test_glued_identity_is_recurrent():
    assert is_recurrent_burning(identity_from_tiles(3))


# Stabilizing references for the three certificates: run the avalanche and
# compare the result with the claim.


def corner_chips(graph, corner, amount):
    added = [0] * graph.n_vertices
    for name in CORNER_NAMES:
        if name != corner:
            added[graph.corner_index(name)] = amount
    return added


def junction_chips(graph, amount):
    added = [0] * graph.n_vertices
    for coord in junction_coords(graph.level).values():
        added[graph.index(coord)] = amount
    return added


def returns_after_adding(conf, added):
    result, _ = stabilize(config(conf.graph, [c + a for c, a in zip(conf.chips, added)]))
    return result == conf


def transport_by_avalanche(conf, corner):
    return returns_after_adding(conf, corner_chips(conf.graph, corner, 3**conf.graph.level))


def junction_by_avalanche(conf):
    """(assembled recurrent, junction add neutral) by stabilization."""
    assembled = glue_with_rotations(conf)
    added = junction_chips(assembled.graph, 2 * 3**conf.graph.level)
    return is_recurrent_burning(assembled), returns_after_adding(assembled, added)


def doubling_by_avalanche(level):
    """The doubling report by stabilization: double the tile, stabilize it on
    the corner-sunk gasket, put the chips that left on the corner and compare
    with the expected tile vertex by vertex."""
    doubled = selfsim.build_tile(level, 2, 1, 1).scale(2)
    graph = doubled.graph
    corner = graph.corner_index(LOWER_LEFT)
    sunk = build_gasket(level, corner_sink(LOWER_LEFT))
    rest, _ = stabilize(config(sunk, [doubled.chips[graph.index(c)] for c in sunk.points.tolist()]))
    chips = [0] * graph.n_vertices
    for c, v in zip(sunk.points.tolist(), rest.chips):
        chips[graph.index(c)] = v
    chips[corner] = doubled.total - rest.total
    result = config(graph, chips)
    expected = selfsim.build_tile(level, 2 + 4 * 3**level, 1, 1)
    mismatch = None
    for i, (got, want) in enumerate(zip(result.chips, expected.chips)):
        if got != want:
            mismatch = f"vertex {i} at {tuple(graph.points[i].tolist())}: got {got}, expected {want}"
            break
    return DoublingReport(
        level=level,
        passed=(result == expected),
        corner_start=doubled.chips[corner],
        corner_final=result.chips[corner],
        corner_expected=expected.chips[corner],
        gain=result.chips[corner] - doubled.chips[corner],
        expected_gain=4 * 3**level - 2,
        first_mismatch=mismatch,
    )


def junction_inputs(level, seed, count=12):
    """Random recurrent configurations with 2-chip lower-right and top
    corners: a recurrent representative with those corners lowered to 2,
    which the burning test still accepts."""
    graph = build_gasket(level)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        eta = recurrent_rep(graph, [rng.randrange(-50, 50) for _ in range(graph.n_vertices)])
        chips = list(eta.chips)
        for name in (LOWER_RIGHT, TOP):
            chips[graph.corner_index(name)] = 2
        conf = config(graph, chips)
        assert is_recurrent_burning(conf)
        out.append(conf)
    return out


@pytest.mark.parametrize("level", range(1, 7))
def test_certificates_agree_with_the_avalanches_on_the_true_inputs(level):
    graph = build_gasket(level, corner_sink(LOWER_LEFT))
    report = verify_corner_transport(level)
    assert report.passed and transport_by_avalanche(identity(graph), LOWER_LEFT)
    tile = build_tile(level, 2, 2, 2)
    report = verify_junction_invariance(level, tile)
    assert (report.assembled_recurrent, report.passed) == (True, True)
    assert junction_by_avalanche(tile) == (True, True)


@pytest.mark.parametrize("level", range(1, 7))
def test_doubling_certificate_agrees_with_the_avalanche(level):
    report = verify_doubling(level)
    assert report.passed
    assert report == doubling_by_avalanche(level)


def empty_corner_neighbours(tile):
    """Zero chips on both neighbours of the lower-left corner: two adjacent
    empty vertices, a forbidden subconfiguration."""
    chips = list(tile.chips)
    for coord in ((1, 0), (0, 1)):
        chips[tile.graph.index(coord)] = 0
    return config(tile.graph, chips)


def one_more_chip(tile, v):
    chips = list(tile.chips)
    chips[v] += 1
    return config(tile.graph, chips)


def raise_a_two(tile):
    """One more chip on a midpoint that holds 2 of degree 4: still stable
    and recurrent, but no longer in the lattice."""
    corners = {tile.graph.corner_index(name) for name in CORNER_NAMES}
    return one_more_chip(tile, next(v for v, c in enumerate(tile.chips) if c == 2 and v not in corners))


def raise_a_three(tile):
    """One more chip where there are 3 of degree 4: no longer stable."""
    return one_more_chip(tile, tile.chips.index(3))


def raise_the_corner(tile):
    return one_more_chip(tile, tile.graph.corner_index(LOWER_LEFT))


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize(
    "mismatch,corrupt",
    [
        ("start: the configuration is not recurrent", empty_corner_neighbours),
        ("start: the configuration is not stable", raise_a_three),
        ("start: the configuration is not in the lattice", raise_a_two),
        ("corner:", raise_the_corner),
    ],
    ids=["start", "start-unstable", "lattice", "corner"],
)
def test_each_doubling_clause_fails_on_its_own(monkeypatch, level, mismatch, corrupt):
    # Every corruption goes to the (2,1,1) tile, the one tile the check builds.
    real = selfsim.build_tile

    def corrupted(lv, *corners):
        tile = real(lv, *corners)
        return corrupt(tile) if corners == (2, 1, 1) else tile

    monkeypatch.setattr(selfsim, "build_tile", corrupted)
    report = verify_doubling(level)
    assert not report.passed
    assert report.first_mismatch.startswith(mismatch)
    assert report.to_json()["pass"] is False
    assert not doubling_by_avalanche(level).passed


@pytest.mark.parametrize("level", range(1, 6))
def test_doubling_burns_once_and_solves_once_on_the_corner_sink(monkeypatch, level):
    """The check is one certificate: one burning test and one membership
    solve, both of the (2,1,1) tile off its corner on the sunk gasket."""
    burnt, solved = [], []
    real_burnt, real_in_lattice = sandpile._burnt, group.in_lattice

    def burning(conf):
        burnt.append(conf.graph.boundary.token())
        return real_burnt(conf)

    def membership(graph, entries):
        solved.append(graph.boundary.token())
        return real_in_lattice(graph, entries)

    monkeypatch.setattr(sandpile, "_burnt", burning)
    monkeypatch.setattr(group, "in_lattice", membership)
    assert verify_doubling(level).passed
    assert burnt == solved == ["corner_sink:lower_left"]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_junction_certificate_agrees_with_the_avalanche_on_random_recurrents(level):
    verdicts = set()
    for conf in junction_inputs(level, seed=level):
        report = verify_junction_invariance(level, conf)
        got = (report.assembled_recurrent, report.passed)
        assert got == junction_by_avalanche(conf)
        assert report.to_json()["details"]["junction_add_neutral"] is report.passed
        verdicts.add(report.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("corner", CORNER_NAMES)
def test_transport_certificate_agrees_with_the_avalanche_on_random_recurrents(level, corner):
    graph = build_gasket(level, corner_sink(corner))
    rng = random.Random(level)
    assert verify_corner_transport(level, corner).passed
    for _ in range(4):
        eta = recurrent_rep(graph, [rng.randrange(-50, 50) for _ in range(graph.n_vertices)])
        assert transport_by_avalanche(eta, corner)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("delta", [-1, 1])
def test_corrupted_chip_counts_fail_both_ways(level, delta):
    graph = build_gasket(level, corner_sink(LOWER_LEFT))
    added = corner_chips(graph, LOWER_LEFT, 3**level + delta)
    assert not group.in_lattice(graph, added)
    assert not returns_after_adding(identity(graph), added)
    assembled = glue_with_rotations(build_tile(level, 2, 2, 2))
    added = junction_chips(assembled.graph, 2 * 3**level + delta)
    assert not group.in_lattice(assembled.graph, added)
    assert not returns_after_adding(assembled, added)


def test_certificates_run_no_avalanche(monkeypatch):
    """The identity, the three self-similarity checks and the burning test
    itself never call the toppling kernel: burning is one pass over the
    burnt set."""
    real = sandpile._stabilize_raw
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sandpile, "_stabilize_raw", counting)
    for level in range(1, 6):
        for boundary in (gasket.NORMAL, *(corner_sink(name) for name in CORNER_NAMES)):
            graph = build_gasket(level, boundary)
            sandpile.identity.cache_clear()
            conf = identity(graph)
            assert is_recurrent_burning(conf)
            assert sandpile.burning_odometer(conf) == (True, (1,) * graph.n_vertices)
            assert not is_recurrent_burning(config(graph, [0] * graph.n_vertices))
        for name in CORNER_NAMES:
            assert verify_corner_transport(level, name).passed
        assert verify_doubling(level).passed
        assert verify_junction_invariance(level, build_tile(level, 2, 2, 2)).passed
    assert len(calls) == 0


def test_doubling_runs_no_toppling_rounds(monkeypatch):
    real = sandpile._topple_rounds
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sandpile, "_topple_rounds", counting)
    for level in (3, 4, 5):
        assert verify_doubling(level).passed
    assert len(calls) == 0
