import pytest

from gasketpile.gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    TOP,
    build_gasket,
    corner_sink,
    subcopy_embedding,
)
from gasketpile.sandpile import config, identity, is_recurrent_burning, zero_config
from gasketpile.selfsim import (
    assemble_from_copies,
    build_tile,
    identity_from_tiles,
    rotate_config,
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


@pytest.mark.parametrize("level", [2, 3, 6, 7])
def test_tile_gluing_reproduces_the_identity(level):
    assert identity_from_tiles(level) == identity(build_gasket(level))


def test_identity_gluing_needs_level_at_least_2():
    with pytest.raises(ValueError):
        identity_from_tiles(1)


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
    assert report.passed and report.dynamic_ok and report.lattice_ok
    assert report.to_json()["details"]["class_is_trivial"] is True


def test_corner_transport_on_random_recurrents():
    import random

    from gasketpile.sandpile import recurrent_rep

    graph = build_gasket(2, corner_sink(LOWER_LEFT))
    rng = random.Random(3)
    for _ in range(10):
        eta = recurrent_rep(graph, [rng.randrange(-8, 8) for _ in range(graph.n_vertices)])
        report = verify_corner_transport(2, eta)
        assert report.passed


def test_corner_transport_rejects_bad_input():
    graph = build_gasket(1, corner_sink(LOWER_LEFT))
    with pytest.raises(ValueError):
        verify_corner_transport(1, zero_config(graph))
    with pytest.raises(ValueError):
        verify_corner_transport(1, identity(build_gasket(1)))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_junction_invariance_for_family_members(level):
    for x in (2, 3):
        report = verify_junction_invariance(level, build_tile(level, x, 2, 2))
        assert report.passed
        assert report.assembled_recurrent and report.junction_add_neutral


def test_junction_invariance_rejects_wrong_corners():
    with pytest.raises(ValueError):
        verify_junction_invariance(1, build_tile(1, 2, 1, 1))
    with pytest.raises(ValueError):
        verify_junction_invariance(1, config(build_gasket(1), (0, 0, 0, 0, 2, 2)))


def test_glued_identity_is_recurrent():
    assert is_recurrent_burning(identity_from_tiles(3))
