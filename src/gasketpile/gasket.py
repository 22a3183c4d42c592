"""Sierpinski gasket graphs wired to a sink, in integer triangular coordinates.

A vertex is a pair (a, b) of non-negative integers sitting at the planar point
a*(1, 0) + b*(1/2, sqrt(3)/2).  Level 0 is the triangle {(0,0), (1,0), (0,1)};
level k+1 is the union of three level-k copies translated by (0,0), (2**k, 0)
and (0, 2**k), glued at the three junction vertices.  The build reads the
same graph off the bit pattern instead (Lucas: Pascal's triangle mod 2): the
unit up-triangles of level n sit at the (a, b) with a & b = 0 and
a + b < 2**n, and every edge is a side of one of them.  The canonical vertex
order everywhere in this package is lexicographic ascending in (b, a).

The arrays are the graph: a `GasketGraph` holds the coordinates and the
4 x n neighbour table.  The order ascends in the key b * (2**n + 1) + a, so
every map from coordinates to indices (the rotations, the sub-copy
embeddings, the cells) is one `searchsorted` on the sorted keys.  The keys
and `neighbors`, the tuples that the toppling queue reads, are views built
on first use.  Also shared with the rest of the package: `cell_index`,
the cells of every level as index arrays (the layout of the Laplacian
factorization and of the level-1 cell characters), `laplacian_product`, the
one exact Delta @ v (in int64 for an int64 array), and `reduced_laplacian`,
the dense matrix that the Smith and Bareiss reductions need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

LOWER_LEFT = "lower_left"
LOWER_RIGHT = "lower_right"
TOP = "top"
CORNER_NAMES = (LOWER_LEFT, LOWER_RIGHT, TOP)

# Copy labels for the three-piece recursive decomposition reuse corner names:
# each sub-gasket is named after the corner of the big triangle it contains.
COPY_OFFSETS = {LOWER_LEFT: (0, 0), LOWER_RIGHT: (1, 0), TOP: (0, 1)}


@dataclass(frozen=True)
class Boundary:
    """Sink wiring: either two extra sink edges at every corner ("normal"),
    or one corner vertex declared to be the sink itself ("corner_sink")."""

    kind: str
    corner: str | None = None

    def __post_init__(self):
        if self.kind == "normal":
            if self.corner is not None:
                raise ValueError("normal boundary takes no corner")
        elif self.kind == "corner_sink":
            if self.corner not in CORNER_NAMES:
                raise ValueError(f"corner_sink needs a corner in {CORNER_NAMES}")
        else:
            raise ValueError(f"unknown boundary kind {self.kind!r}")

    def token(self) -> str:
        """Serialized form, e.g. "normal" or "corner_sink:lower_left"."""
        if self.kind == "normal":
            return "normal"
        return f"corner_sink:{self.corner}"


NORMAL = Boundary("normal")


def corner_sink(corner: str) -> Boundary:
    return Boundary("corner_sink", corner)


def parse_boundary(token: str) -> Boundary:
    if token == "normal":
        return NORMAL
    if token.startswith("corner_sink:"):
        return corner_sink(token.split(":", 1)[1])
    raise ValueError(f"bad boundary token {token!r}")


def gasket_size(level: int) -> int:
    """Vertex count of the bare level-`level` gasket, without building it."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return 3 * (3**level + 1) // 2


def corner_coords(level: int) -> dict[str, tuple[int, int]]:
    side = 1 << level
    return {LOWER_LEFT: (0, 0), LOWER_RIGHT: (side, 0), TOP: (0, side)}


def junction_coords(level: int) -> dict[str, tuple[int, int]]:
    """The three vertices shared by two sub-copies (defined for level >= 1),
    keyed by the side of the big triangle they sit on."""
    if level < 1:
        raise ValueError("junctions exist for level >= 1")
    half = 1 << (level - 1)
    return {"left": (0, half), "right": (half, half), "bottom": (half, 0)}


@dataclass(frozen=True, eq=False)
class GasketGraph:
    """A gasket of some level plus its sink wiring.

    `points` holds the non-sink vertices' coordinates (n x 2) in canonical
    order, so their keys b * (2**n + 1) + a ascend and a coordinate is
    looked up by its key; `table[k, v]` is the k-th neighbour of v in
    ascending order, or n, a padding slot.  `beta[i]` counts edges from
    vertex i to the sink and `degrees[i]` is the full degree including sink
    edges.  `neighbors`, the toppling queue's, is the one tuple view.
    """

    level: int
    boundary: Boundary
    points: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)
    beta: tuple[int, ...] = field(repr=False)
    degrees: tuple[int, ...] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @cached_property
    def _keys(self) -> np.ndarray:
        return _key(self.level, *self.points.T)

    @cached_property
    def _int64_degrees(self) -> np.ndarray:
        degrees = np.array(self.degrees, dtype=np.int64)
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        rows = list(zip(*self.table.tolist()))
        # Only the corners and the sunk corner's neighbours have padding.
        for v in np.flatnonzero(self.table[-1] == self.n_vertices).tolist():
            rows[v] = rows[v][: self.degrees[v] - self.beta[v]]
        return tuple(rows)

    def index(self, coord: tuple[int, int]) -> int:
        if (i := self._find(coord)) == self.n_vertices:
            raise KeyError(coord)
        return i

    def __contains__(self, coord: tuple[int, int]) -> bool:
        return self._find(coord) != self.n_vertices

    def _find(self, coord: tuple[int, int]) -> int:
        inside = 0 <= min(coord) and max(coord) <= 1 << self.level
        return int(_lookup(self._keys, _key(self.level, *coord))) if inside else self.n_vertices

    def corner_index(self, name: str) -> int | None:
        """Canonical index of a corner, or None when that corner is the sink."""
        return None if name == self.boundary.corner else self.index(corner_coords(self.level)[name])

    def junction_index(self, side: str) -> int:
        return self.index(junction_coords(self.level)[side])

    @property
    def sink_degree(self) -> int:
        return sum(self.beta)


def build_gasket(level: int, boundary: Boundary = NORMAL) -> GasketGraph:
    """Build the level-`level` gasket with the requested sink wiring.

    Normal boundary: every corner gets two extra edges to an external sink,
    which makes every gasket vertex degree 4 and the sink degree 6.
    Corner sink: the chosen corner vertex is the sink; no edges are added.

    Graphs are interned: the same (level, boundary) always returns the same
    instance, so configurations can compare graphs by identity.  Each graph
    is built directly from its level's bit pattern, so no lower level and no
    other boundary is built or interned on the way.
    """
    return _build_gasket(level, boundary)


def _key(level: int, a, b):
    """The ascending sort key of (a, b); (2**n + 1, 0) aliases (0, 1), so check the range."""
    return b * ((1 << level) + 1) + a


def _lookup(keys: np.ndarray, wanted) -> np.ndarray:
    """Index of each wanted key in the ascending `keys`; n = len(keys) where it is absent."""
    at = keys.searchsorted(wanted)
    return np.where(keys.take(at, mode="clip") == wanted, at, len(keys))


def _edge_pairs(table: np.ndarray) -> np.ndarray:
    """Edges (i, j), i < j, in ascending order as an m x 2 array: each
    vertex's neighbour table entries above it, vertex by vertex."""
    rows = table.T
    above = (rows > np.arange(len(rows))[:, None]) & (rows < len(rows))
    return np.stack([np.nonzero(above)[0], rows[above]], axis=1)


@lru_cache(maxsize=None)
def _build_gasket(level: int, boundary: Boundary) -> GasketGraph:
    if level < 0:
        raise ValueError("level must be >= 0")
    side = 1 << level
    row = side + 1  # a + 1 is key + 1, b + 1 is key + row
    # The unit up-triangles sit at the (a, b) with a & b = 0 and a + b < 2**n
    # (Pascal's triangle mod 2): base-3 digit i of a triangle's number adds
    # (0, 0), (2**i, 0) or (0, 2**i) to its origin.  The vertices are the
    # origins and their +(1, 0) and +(0, 1) corners, sorted, repeats dropped.
    origins = np.zeros(1, dtype=np.intp)
    for i in range(level):
        origins = (origins[:, None] + (np.array([0, 1, row]) << i)).ravel()
    keys = np.sort(np.concatenate([origins, origins + 1, origins + row]))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    if boundary.corner:
        keys = keys[keys != _key(level, *corner_coords(level)[boundary.corner])]
    n = len(keys)
    points = np.stack(np.divmod(keys, row)[::-1], axis=1)
    a, b = points.T
    # The six candidate neighbours in ascending key order, each pair the
    # other corners of the up-triangle at (a, b - 1), (a - 1, b) or (a, b).
    # A candidate found goes to the next free slot; one whose triangle
    # exists but that is not found is the sunk corner.  The -1 and +1
    # candidates, when present, are the previous and the next key.
    below = (b >= 1) & ((a & (b - 1)) == 0)
    left = (a >= 1) & (((a - 1) & b) == 0)
    origin = ((a & b) == 0) & (a + b < side)
    table = np.full((4, n), n, dtype=np.intp)
    fill = np.zeros(n, dtype=np.intp)
    beta = np.zeros(n, dtype=np.intp)
    step = np.diff(keys) == 1  # keys[i + 1] == keys[i] + 1
    for offset, exists in ((-row, below), (1 - row, below), (-1, left), (1, origin), (row - 1, left), (row, origin)):
        if abs(offset) == 1:
            hit = exists & (np.append(False, step) if offset < 0 else np.append(step, False))
            at = np.flatnonzero(hit)
            found = at + offset
        else:
            found = _lookup(keys, keys + offset)
            hit = exists & (found < n)
            at = np.flatnonzero(hit)
            found = found[at]
        beta += exists & ~hit
        table[fill[at], at] = found
        fill[at] += 1
    if boundary.kind == "normal":
        beta[_lookup(keys, [_key(level, *c) for c in corner_coords(level).values()])] = 2
    points.flags.writeable = table.flags.writeable = False
    return GasketGraph(
        level=level,
        boundary=boundary,
        points=points,
        table=table,
        beta=tuple(beta.tolist()),
        degrees=tuple(((table != n).sum(axis=0) + beta).tolist()),
    )


def rotation_ccw(graph: GasketGraph) -> tuple[int, ...]:
    """Permutation perm with perm[i] = index of the counterclockwise rotation
    of vertex i.  The rotation (a, b) -> (2**n - a - b, a) cycles the corners
    lower-left -> lower-right -> top and fixes the external sink, so it is
    only an automorphism of normally wired gaskets."""
    if graph.boundary.kind != "normal":
        raise ValueError("rotation is an automorphism of the normal boundary only")
    a, b = graph.points.T
    return tuple(_lookup(graph._keys, _key(graph.level, (1 << graph.level) - a - b, a)).tolist())


def rotation_cw(graph: GasketGraph) -> tuple[int, ...]:
    perm = rotation_ccw(graph)
    return tuple(perm[i] for i in perm)


@lru_cache(maxsize=None)
def subcopy_embedding(level: int, copy: str) -> tuple[int, ...]:
    """Map canonical vertex indices of the bare level-(level-1) gasket to the
    indices of its image inside the level-`level` gasket.

    `copy` names which of the three translated sub-gaskets: the one containing
    the lower-left, lower-right, or top corner of the big triangle.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if copy not in COPY_OFFSETS:
        raise ValueError(f"copy must be one of {CORNER_NAMES}")
    shift = np.array(COPY_OFFSETS[copy]) << (level - 1)
    a, b = (build_gasket(level - 1).points + shift).T
    return tuple(_lookup(build_gasket(level)._keys, _key(level, a, b)).tolist())


def laplacian_product(graph: GasketGraph, entries) -> np.ndarray:
    """Delta @ v: deg(v) v_v minus the sum of v over the neighbours,
    gathered through the neighbour table.  An int64 array is multiplied in
    int64, exact while every |v_v| < 2**59 (a degree is at most 4, so an
    entry of the product is at most 8 |v| in size); anything else becomes
    an object array, exact for Python ints and Fractions, since every step
    is a Python operation on the entries."""
    n = graph.n_vertices
    if isinstance(entries, np.ndarray) and entries.dtype == np.int64:
        values, degrees = entries, graph._int64_degrees
    else:
        # Python-int degrees: an int64 degree times a Python int could wrap.
        values = np.array(entries, dtype=object)
        degrees = np.array(graph.degrees, dtype=object)
    if values.shape != (n,):
        raise ValueError("vector length must match vertex count")
    padded = np.zeros(n + 1, dtype=values.dtype)
    padded[:n] = values
    out = degrees * values
    for slot in graph.table:
        out -= padded[slot]
    return out


@lru_cache(maxsize=None)
def cell_index(graph: GasketGraph) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], tuple[int, int, int]]:
    """For each level k, the cells of side 2**(k+1) as two read-only C x 3
    index arrays: midpoints (bottom, left, right) and corners (lower left,
    lower right, top), in the same cell order; then the three big corners.
    A sunk corner reads as n, the padding slot.

    Cells are listed depth-first: each cell's lower-left, lower-right and
    top sub-cells follow one another, so level 0 lists the level-1 cells
    sub-gasket by sub-gasket, from the largest copies down."""
    level, side = graph.level, 1 << graph.level
    row = side + 1  # a + h is key + h, b + h is key + h * row
    origins = np.zeros(1, dtype=np.intp)  # the cells' lower-left corners' keys
    # A cell of side 2h in units of h: midpoints, corners, sub-cells' origins.
    steps = np.array([[1, row, row + 1], [0, 2, 2 * row], [0, 1, row]])
    levels = []
    for k in reversed(range(level)):
        keys = origins[:, None, None] + (steps << k)
        levels.insert(0, keys)
        origins = keys[:, 2].ravel()
    # One search for every level's keys, then each block a view of the result.
    blocks = [keys[:, 0] for keys in levels] + [keys[:, 1] for keys in levels] + [np.array([[0, side, side * row]])]
    found = _lookup(graph._keys, np.concatenate(blocks))
    found.flags.writeable = False
    cells = [found[end - len(block) : end] for block, end in zip(blocks, accumulate(map(len, blocks)))]
    return tuple(cells[:level]), tuple(cells[level:-1]), tuple(found[-1].tolist())


def reduced_laplacian(graph: GasketGraph) -> list[list[int]]:
    """Graph Laplacian of gasket + sink with the sink row and column deleted:
    full degree on the diagonal, -1 per neighbour table slot off it."""
    n = graph.n_vertices
    mat = np.zeros((n, n + 1), dtype=np.int64)  # column n takes the padding
    mat[np.arange(n), np.arange(n)] = graph.degrees
    np.add.at(mat, (np.arange(n), graph.table), -1)
    return mat[:, :n].tolist()


def graph_to_json(graph: GasketGraph) -> dict:
    """JSON-ready description: vertices in canonical order, edges as sorted
    index pairs, per-vertex sink edge counts."""
    return {
        "level": graph.level,
        "boundary": graph.boundary.token(),
        "vertices": graph.points.tolist(),
        "edges": _edge_pairs(graph.table).tolist(),
        "beta": list(graph.beta),
    }
