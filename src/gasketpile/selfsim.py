"""Self-similar structure of recurrent configurations on gasket graphs.

The central object is a family of configurations parameterized by the three
corner values: at level 0 a member is just its corner values, and at level
n+1 it is assembled from three level-n members whose corner arguments agree
across the junctions; so every cell holds 3 chips on its bottom and left
midpoints and 2 on its right one, the closed form `tile_chips` writes
over `gasket.cell_index`.  Doubling such a configuration and stabilizing it
with one corner as the sink reproduces the family with a shifted corner
argument, the sunk corner collecting the chips that leave; gluing the
all-2-corner member with its two rotations (`glue_with_rotations`) yields
the group identity (`identity_from_tiles`), which `sandpile.identity`
writes down cell by cell instead.  No check here stabilizes.  The doubling
identity is the certificate that the (2,1,1) tile off its corner is the
corner-sink identity (`sandpile._certified_identity`, one burn and one
lattice solve), with the corner's chips by conservation; corner transport
is one lattice membership, and junction invariance the burning test and
lattice membership.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import gasket, group, sandpile
from .gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    TOP,
    build_gasket,
    cell_index,
    corner_sink,
    gasket_size,
    subcopy_embedding,
)
from .sandpile import Configuration, config, is_recurrent_burning


def tile_chips(level: int, x: int, y: int, z: int) -> tuple[int, ...]:
    """Chips of the (x, y, z) tile on the bare level-`level` gasket, corner
    values x (lower left), y (lower right), z (top), as Python ints.  The
    paper glues the (x,3,3), (3,y,2) and (3,2,z) tiles of level n-1 into
    level n, level 0 being the corners.  The copies agree at the junctions,
    3 at the bottom and left ones and 2 at the right one, so by induction
    every cell holds 3 on its bottom and left midpoints and 2 on its right
    one, and only the corners carry the arguments."""
    mids, _, big = cell_index(build_gasket(level))
    chips = np.full(gasket_size(level), 3, dtype=object)
    for cells in mids:
        chips[cells[:, 2]] = 2
    chips[list(big)] = x, y, z
    return tuple(chips.tolist())


def assemble_from_copies(level: int, parts: dict[str, Sequence[int]]) -> list[int]:
    """Glue three level-(n-1) chip vectors into a level-n one, requiring the
    copies to agree at the shared junction vertices."""
    out = np.empty(gasket_size(level), dtype=object)
    written = np.zeros(len(out), dtype=bool)
    for name in (LOWER_LEFT, LOWER_RIGHT, TOP):
        image = np.array(subcopy_embedding(level, name))
        chips = np.array(parts[name], dtype=object)
        held = written[image]
        clash = image[held][out[image[held]] != chips[held]]
        if len(clash):
            raise ValueError(f"junction mismatch at parent vertex {clash[0]}")
        out[image] = chips
        written[image] = True
    return out.tolist()


def build_tile(level: int, x: int, y: int, z: int) -> Configuration:
    """The corner-parameterized self-similar configuration with corner values
    x (lower left), y (lower right), z (top)."""
    if level < 1:
        raise ValueError("tiles are defined for level >= 1")
    for v in (x, y, z):
        if v < 0:
            raise ValueError("corner values must be non-negative")
    return config(build_gasket(level), tile_chips(level, x, y, z))


def rotate_config(conf: Configuration, direction: str = "ccw") -> Configuration:
    """Rotate a configuration with the gasket: chips travel with their
    vertices, so the new value at the image of v is the old value at v, a
    gather through the inverse rotation."""
    inverse = {"ccw": gasket.rotation_cw, "cw": gasket.rotation_ccw}.get(direction)
    if inverse is None:
        raise ValueError("direction must be 'ccw' or 'cw'")
    return Configuration(conf.graph, tuple(conf.chips[i] for i in inverse(conf.graph)))


def glue_with_rotations(conf: Configuration) -> Configuration:
    """The level-(n+1) configuration with `conf` in the lower-left copy, its
    counterclockwise rotation in the lower right and its clockwise rotation
    on top."""
    level = conf.graph.level + 1
    parts = {
        LOWER_LEFT: conf.chips,
        LOWER_RIGHT: rotate_config(conf, "ccw").chips,
        TOP: rotate_config(conf, "cw").chips,
    }
    return config(build_gasket(level), assemble_from_copies(level, parts))


def identity_from_tiles(level: int) -> Configuration:
    """The sandpile identity assembled without any toppling, as the paper
    does: the level-(n-1) all-2-corner tile glued with its two rotations,
    for level >= 1.  `sandpile.identity` builds it cell by cell and
    certifies it; this function does not certify it."""
    if level < 1:
        raise ValueError("the tile construction of the identity needs level >= 1")
    return glue_with_rotations(config(build_gasket(level - 1), tile_chips(level - 1, 2, 2, 2)))


# ---------------------------------------------------------------------------
# Verification routines.  Each returns a small report object; preconditions
# raise ValueError.
# ---------------------------------------------------------------------------


@dataclass
class DoublingReport:
    level: int
    passed: bool
    corner_start: int
    corner_final: int
    corner_expected: int
    gain: int
    expected_gain: int
    first_mismatch: str | None

    def to_json(self) -> dict:
        return {
            "check": "doubling",
            "level": self.level,
            "pass": self.passed,
            "details": {
                "corner_start": self.corner_start,
                "corner_final": self.corner_final,
                "corner_expected": self.corner_expected,
                "gain": self.gain,
                "expected_gain": self.expected_gain,
                "first_mismatch": self.first_mismatch,
            },
        }


def verify_doubling(level: int) -> DoublingReport:
    """Double the (2,1,1)-corner tile and stabilize it with the lower-left
    corner frozen, which on the bare gasket is sinking it: the rest must
    become the (2+4*3**n,1,1) tile and the corner must gain 4*3**n - 2.

    No avalanche is run.  `tile_chips` takes only the corner values from
    its arguments, so off the lower-left corner the two tiles are one
    configuration, `start`, on the sunk gasket.  The claim is that `start`
    is the identity there, plus conservation.  When `start` is stable,
    recurrent and in the lattice (`sandpile._certified_identity`), twice it
    is in the lattice too and stabilizes to a recurrent configuration
    (Holroyd et al. 2008) of the zero class, which is `start` itself
    (Dhar 1990).  The chips that leave collect on the corner, which by
    conservation ends with 2*total(tile) - total(start) and must hold
    2+4*3**n.  `first_mismatch` names the failed clause, `start` with the
    property it lacks or `corner`, as no stabilized configuration is left
    to compare vertex by vertex."""
    tile = build_tile(level, 2, 1, 1)
    corner = tile.graph.corner_index(LOWER_LEFT)
    start = tile.chips[:corner] + tile.chips[corner + 1 :]
    corner_start, corner_final = 2 * tile.chips[corner], 2 * tile.total - sum(start)
    corner_expected = 2 + 4 * 3**level
    try:
        sandpile._certified_identity(build_gasket(level, corner_sink(LOWER_LEFT)), start)
        mismatch = None
    except ArithmeticError as err:
        mismatch = f"start: {err}"
    if mismatch is None and corner_final != corner_expected:
        mismatch = f"corner: got {corner_final}, expected {corner_expected}"
    return DoublingReport(
        level=level,
        passed=mismatch is None,
        corner_start=corner_start,
        corner_final=corner_final,
        corner_expected=corner_expected,
        gain=corner_final - corner_start,
        expected_gain=4 * 3**level - 2,
        first_mismatch=mismatch,
    )


@dataclass
class TransportReport:
    level: int
    corner: str
    passed: bool

    def to_json(self) -> dict:
        # Returning to the input and a trivial class are one verdict.
        return {
            "check": "corner_transport",
            "level": self.level,
            "pass": self.passed,
            "details": {
                "sunk_corner": self.corner,
                "returned_to_input": self.passed,
                "class_is_trivial": self.passed,
            },
        }


def verify_corner_transport(level: int, corner: str = LOWER_LEFT) -> TransportReport:
    """On the gasket with one corner sunk, adding 3**n chips at each of the
    other two corners is neutral: any recurrent configuration stabilizes back
    to itself, equivalently the class of that chip vector is trivial.  The
    two are the same verdict: a recurrent configuration plus non-negative
    chips stabilizes to a recurrent one (Holroyd, Levine, Meszaros, Peres,
    Propp and Wilson 2008), and each class holds exactly one recurrent
    configuration (Dhar 1990).  So the verdict holds for every recurrent
    configuration at once, and no configuration or avalanche is needed."""
    graph = build_gasket(level, corner_sink(corner))
    added = [0] * graph.n_vertices
    for name in set(CORNER_NAMES) - {corner}:
        added[graph.corner_index(name)] = 3**level
    return TransportReport(level=level, corner=corner, passed=group.in_lattice(graph, added))


@dataclass
class JunctionReport:
    level: int
    passed: bool
    assembled_recurrent: bool

    def to_json(self) -> dict:
        # The junction addition is neutral exactly when the check passes.
        return {
            "check": "junction_invariance",
            "level": self.level,
            "pass": self.passed,
            "details": {
                "assembled_recurrent": self.assembled_recurrent,
                "junction_add_neutral": self.passed,
            },
        }


def verify_junction_invariance(level: int, conf: Configuration) -> JunctionReport:
    """Glue a recurrent configuration with 2-chip lower-right and top corners
    together with its two rotations into a level-(n+1) configuration: the
    result must be recurrent, and adding 2*3**n chips at each of the three
    junctions must stabilize back to it.  A recurrent configuration plus
    non-negative chips stabilizes to a recurrent one (Holroyd et al. 2008),
    and each class holds one recurrent configuration (Dhar 1990), so a
    recurrent glued configuration comes back exactly when the junction
    vector is in the Laplacian lattice.  One that is not recurrent fails
    both: if it came back, it would come back from every multiple of that
    vector, which topples every vertex and so ends recurrent."""
    graph = build_gasket(level)
    if conf.graph is not graph:
        raise ValueError("configuration must live on the normally wired gasket")
    if any(conf.chips[graph.corner_index(name)] != 2 for name in (LOWER_RIGHT, TOP)):
        raise ValueError("lower-right and top corner values must equal 2")
    if not is_recurrent_burning(conf):
        raise ValueError("junction invariance needs a recurrent configuration")
    assembled = glue_with_rotations(conf)
    parent = assembled.graph
    recurrent_ok = is_recurrent_burning(assembled)
    added = [0] * parent.n_vertices
    for side in ("left", "right", "bottom"):
        added[parent.junction_index(side)] = 2 * 3**level
    return JunctionReport(
        level=level,
        passed=recurrent_ok and group.in_lattice(parent, added),
        assembled_recurrent=recurrent_ok,
    )
