"""Sierpinski gasket graphs wired to a sink, in integer triangular coordinates.

A vertex is a pair (a, b) of non-negative integers sitting at the planar point
a*(1, 0) + b*(1/2, sqrt(3)/2).  Level 0 is the triangle {(0,0), (1,0), (0,1)};
level k+1 is the union of three level-k copies translated by (0,0), (2**k, 0)
and (0, 2**k), glued at the three junction vertices.  The canonical vertex
order everywhere in this package is lexicographic ascending in (b, a).

Three structures are owned here and shared by the rest of the
package: `cell_index`, the cells of every level as index arrays (the layout
of the Laplacian factorization and of the level-1 cell characters),
`laplacian_product`, the one exact Delta @ v, and the chip vectors of the
corner-parameterized tiles (`tile_chips`), glued from rotated and
translated copies by pure index geometry.  The toppling rounds keep their
own int64 update and `reduced_laplacian` the dense matrix that the Smith and
Bareiss reductions need.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=None)
def gasket_cells(level: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, int], tuple[int, int]], ...]]:
    """Vertex coordinates and undirected edges (as coordinate pairs) of the
    bare level-`level` gasket, both in canonical order."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if level == 0:
        verts = {(0, 0), (1, 0), (0, 1)}
        edges = {((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))}
    else:
        sub_verts, sub_edges = gasket_cells(level - 1)
        half = 1 << (level - 1)
        verts = set()
        edges = set()
        for name in (LOWER_LEFT, LOWER_RIGHT, TOP):
            da, db = COPY_OFFSETS[name]
            da, db = da * half, db * half
            verts.update((a + da, b + db) for a, b in sub_verts)
            edges.update(
                tuple(sorted(((ua + da, ub + db), (va + da, vb + db)), key=lambda p: (p[1], p[0])))
                for (ua, ub), (va, vb) in sub_edges
            )
    order = sorted(verts, key=lambda p: (p[1], p[0]))
    canonical_edges = tuple(sorted(edges, key=lambda e: (e[0][1], e[0][0], e[1][1], e[1][0])))
    return tuple(order), canonical_edges


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

    `coords` lists the non-sink vertices in canonical (b, a) order; `neighbors`
    is the gasket adjacency restricted to them; `beta[i]` counts edges from
    vertex i to the sink; `degrees[i]` is the full degree including sink edges;
    `vertex_index` maps each coordinate back to its canonical index.
    """

    level: int
    boundary: Boundary
    coords: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    beta: tuple[int, ...]
    degrees: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    vertex_index: dict[tuple[int, int], int] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    def index(self, coord: tuple[int, int]) -> int:
        return self.vertex_index[coord]

    def __contains__(self, coord: tuple[int, int]) -> bool:
        return coord in self.vertex_index

    def corner_index(self, name: str) -> int | None:
        """Canonical index of a corner, or None when that corner is the sink."""
        coord = corner_coords(self.level)[name]
        return self.vertex_index.get(coord)

    def junction_index(self, side: str) -> int:
        return self.vertex_index[junction_coords(self.level)[side]]

    @property
    def sink_degree(self) -> int:
        return sum(self.beta)


def build_gasket(level: int, boundary: Boundary = NORMAL) -> GasketGraph:
    """Build the level-`level` gasket with the requested sink wiring.

    Normal boundary: every corner gets two extra edges to an external sink,
    which makes every gasket vertex degree 4 and the sink degree 6.
    Corner sink: the chosen corner vertex is the sink; no edges are added.

    Graphs are interned: the same (level, boundary) always returns the same
    instance, so configurations can compare graphs by identity.
    """
    return _build_gasket(level, boundary)


@lru_cache(maxsize=None)
def _build_gasket(level: int, boundary: Boundary) -> GasketGraph:
    coords, coord_edges = gasket_cells(level)
    corners = corner_coords(level)
    if boundary.kind == "corner_sink":
        sunk = corners[boundary.corner]
        kept = tuple(c for c in coords if c != sunk)
    else:
        sunk = None
        kept = coords
    index = {c: i for i, c in enumerate(kept)}
    nbrs: list[list[int]] = [[] for _ in kept]
    beta = [0] * len(kept)
    edges: list[tuple[int, int]] = []
    for u, v in coord_edges:
        if sunk is not None and (u == sunk or v == sunk):
            other = v if u == sunk else u
            beta[index[other]] += 1
            continue
        i, j = index[u], index[v]
        nbrs[i].append(j)
        nbrs[j].append(i)
        edges.append((i, j) if i < j else (j, i))
    if boundary.kind == "normal":
        for c in corners.values():
            beta[index[c]] += 2
    degrees = tuple(len(nbrs[i]) + beta[i] for i in range(len(kept)))
    return GasketGraph(
        level=level,
        boundary=boundary,
        coords=kept,
        neighbors=tuple(tuple(sorted(n)) for n in nbrs),
        beta=tuple(beta),
        degrees=degrees,
        edges=tuple(sorted(edges)),
        vertex_index=index,
    )


def rotation_ccw(graph: GasketGraph) -> tuple[int, ...]:
    """Permutation perm with perm[i] = index of the counterclockwise rotation
    of vertex i.  The rotation (a, b) -> (2**n - a - b, a) cycles the corners
    lower-left -> lower-right -> top and fixes the external sink, so it is
    only an automorphism of normally wired gaskets."""
    if graph.boundary.kind != "normal":
        raise ValueError("rotation is an automorphism of the normal boundary only")
    side = 1 << graph.level
    return tuple(graph.index((side - a - b, a)) for a, b in graph.coords)


def rotation_cw(graph: GasketGraph) -> tuple[int, ...]:
    perm = rotation_ccw(graph)
    return tuple(perm[perm[i]] for i in range(len(perm)))


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
    half = 1 << (level - 1)
    da, db = COPY_OFFSETS[copy]
    da, db = da * half, db * half
    child_coords, _ = gasket_cells(level - 1)
    parent = build_gasket(level)
    return tuple(parent.index((a + da, b + db)) for a, b in child_coords)


def assemble_from_copies(level: int, parts: dict[str, Sequence[int]]) -> list[int]:
    """Glue three level-(n-1) chip vectors into a level-n one, requiring the
    copies to agree at the shared junction vertices."""
    out: list[int | None] = [None] * gasket_size(level)
    for name in (LOWER_LEFT, LOWER_RIGHT, TOP):
        chips = parts[name]
        for child_i, parent_i in enumerate(subcopy_embedding(level, name)):
            if out[parent_i] is None:
                out[parent_i] = chips[child_i]
            elif out[parent_i] != chips[child_i]:
                raise ValueError(f"junction mismatch at parent vertex {parent_i}")
    return out  # type: ignore[return-value]


@lru_cache(maxsize=256)
def tile_chips(level: int, x: int, y: int, z: int) -> tuple[int, ...]:
    """Chips of the (x, y, z) tile on the bare level-`level` gasket, corner
    values x (lower left), y (lower right), z (top).  Level 0 is just the
    corners; level n glues the (x,3,3), (3,y,2) and (3,2,z) tiles of level
    n-1.  Memoized: the corner arguments of the sub-tiles take few distinct
    values (one tile has at most 7 distinct sub-tiles per level), so each is
    built once.  The cache is bounded because callers choose the corner
    values."""
    if level == 0:
        return (x, y, z)  # the canonical order of the level-0 corners
    parts = {
        LOWER_LEFT: tile_chips(level - 1, x, 3, 3),
        LOWER_RIGHT: tile_chips(level - 1, 3, y, 2),
        TOP: tile_chips(level - 1, 3, 2, z),
    }
    return tuple(assemble_from_copies(level, parts))


def rotate_chips(graph: GasketGraph, chips: Sequence[int], direction: str = "ccw") -> tuple[int, ...]:
    """Rotate a chip vector with the gasket: chips travel with their
    vertices, so the new value at the image of v is the old value at v."""
    if direction == "ccw":
        perm = rotation_ccw(graph)
    elif direction == "cw":
        perm = rotation_cw(graph)
    else:
        raise ValueError("direction must be 'ccw' or 'cw'")
    out = [0] * len(perm)
    for i, target in enumerate(perm):
        out[target] = chips[i]
    return tuple(out)


def glue_with_rotations(level: int, chips: Sequence[int]) -> list[int]:
    """The level-`level` chip vector with the level-(n-1) `chips` in the
    lower-left copy, their counterclockwise rotation in the lower right and
    their clockwise rotation on top."""
    child = build_gasket(level - 1)
    parts = {
        LOWER_LEFT: chips,
        LOWER_RIGHT: rotate_chips(child, chips, "ccw"),
        TOP: rotate_chips(child, chips, "cw"),
    }
    return assemble_from_copies(level, parts)


@lru_cache(maxsize=None)
def neighbor_table(graph: GasketGraph) -> np.ndarray:
    """Neighbour-index table, one row per neighbour slot (4 x n): entry
    [k, v] is the k-th neighbour of v, or n, a padding slot, where v has
    fewer than k + 1 neighbours."""
    n = graph.n_vertices
    table = np.full((4, n), n, dtype=np.intp)
    for v, nbrs in enumerate(graph.neighbors):
        table[: len(nbrs), v] = nbrs
    return table


def laplacian_product(graph: GasketGraph, entries) -> np.ndarray:
    """Delta @ v as an object array: deg(v) v_v minus the sum of v over the
    neighbours, gathered through `neighbor_table`.  Exact for Python ints
    and Fractions, since every step is a Python operation on the entries."""
    n = graph.n_vertices
    padded = np.zeros(n + 1, dtype=object)
    values = np.array(entries, dtype=object)
    if values.shape != (n,):
        raise ValueError("vector length must match vertex count")
    padded[:n] = values
    out = np.array(graph.degrees, dtype=object) * values
    for slot in neighbor_table(graph):
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
    n, level = graph.n_vertices, graph.level
    side = 1 << level
    grid = np.full((side + 1, side + 1), n, dtype=np.intp)
    a, b = np.array(graph.coords, dtype=np.intp).T
    grid[a, b] = np.arange(n)
    a = b = np.zeros(1, dtype=np.intp)
    mids, corners = [], []
    for k in reversed(range(level)):
        h = 1 << k
        mids.append(np.stack([grid[a + h, b], grid[a, b + h], grid[a + h, b + h]], axis=1))
        corners.append(np.stack([grid[a, b], grid[a + 2 * h, b], grid[a, b + 2 * h]], axis=1))
        a, b = np.stack([a, a + h, a], axis=1).ravel(), np.stack([b, b, b + h], axis=1).ravel()
    for cells in mids + corners:
        cells.flags.writeable = False
    big = (int(grid[0, 0]), int(grid[side, 0]), int(grid[0, side]))
    return tuple(mids[::-1]), tuple(corners[::-1]), big


def reduced_laplacian(graph: GasketGraph) -> list[list[int]]:
    """Graph Laplacian of gasket + sink with the sink row and column deleted:
    full degree on the diagonal, -1 per gasket edge off the diagonal."""
    n = graph.n_vertices
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = graph.degrees[i]
        for j in graph.neighbors[i]:
            mat[i][j] -= 1
    return mat


def graph_to_json(graph: GasketGraph) -> dict:
    """JSON-ready description: vertices in canonical order, edges as sorted
    index pairs, per-vertex sink edge counts."""
    return {
        "level": graph.level,
        "boundary": graph.boundary.token(),
        "vertices": [list(c) for c in graph.coords],
        "edges": [list(e) for e in graph.edges],
        "beta": list(graph.beta),
    }
