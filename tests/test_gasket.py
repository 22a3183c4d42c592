import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from gasketpile import gasket
from gasketpile.gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    NORMAL,
    TOP,
    build_gasket,
    cell_index,
    corner_coords,
    corner_sink,
    graph_to_json,
    junction_coords,
    laplacian_product,
    parse_boundary,
    reduced_laplacian,
    rotation_ccw,
    rotation_cw,
    subcopy_embedding,
)
from gasketpile.sandpile import config
from gasketpile.selfsim import assemble_from_copies, rotate_config


def cofactor_det(mat):
    """Textbook Laplace expansion, used as an independent small-matrix oracle."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        sign = -1 if j % 2 else 1
        total += sign * mat[0][j] * cofactor_det(minor)
    return total


def reference_cells(level):
    """Vertex coordinates and edges (as coordinate pairs) of the bare gasket
    by the coordinate recursion on sets of tuples, both sorted by (b, a): the
    reference for the array build."""
    if level == 0:
        verts = {(0, 0), (1, 0), (0, 1)}
        edges = {((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))}
    else:
        sub_verts, sub_edges = reference_cells(level - 1)
        half = 1 << (level - 1)
        verts, edges = set(), set()
        for da, db in ((0, 0), (half, 0), (0, half)):
            verts.update((a + da, b + db) for a, b in sub_verts)
            edges.update(
                tuple(sorted(((ua + da, ub + db), (va + da, vb + db)), key=lambda p: (p[1], p[0])))
                for (ua, ub), (va, vb) in sub_edges
            )
    order = sorted(verts, key=lambda p: (p[1], p[0]))
    return tuple(order), tuple(sorted(edges, key=lambda e: (e[0][1], e[0][0], e[1][1], e[1][0])))


def reference_graph(level, boundary):
    """(coords, edges, neighbors, beta, degrees) from `reference_cells` by a
    coordinate dict: a sunk corner's edges become sink edges, and the normal
    boundary adds two sink edges at every corner."""
    coords, coord_edges = reference_cells(level)
    corners = corner_coords(level)
    sunk = corners[boundary.corner] if boundary.kind == "corner_sink" else None
    kept = tuple(c for c in coords if c != sunk)
    index = {c: i for i, c in enumerate(kept)}
    nbrs = [[] for _ in kept]
    beta = [0] * len(kept)
    edges = []
    for u, v in coord_edges:
        if sunk in (u, v):
            beta[index[v if u == sunk else u]] += 1
            continue
        i, j = index[u], index[v]
        nbrs[i].append(j)
        nbrs[j].append(i)
        edges.append((min(i, j), max(i, j)))
    if sunk is None:
        for c in corners.values():
            beta[index[c]] += 2
    neighbors = tuple(tuple(sorted(x)) for x in nbrs)
    degrees = tuple(len(x) + b for x, b in zip(neighbors, beta))
    return kept, tuple(sorted(edges)), neighbors, tuple(beta), degrees


@pytest.mark.parametrize("level,expected", [(0, 3), (1, 6), (2, 15), (3, 42), (4, 123), (5, 366), (6, 1095)])
def test_vertex_counts(level, expected):
    graph = build_gasket(level)
    assert graph.n_vertices == expected
    assert graph.n_vertices == 3 * (3**level + 1) // 2


@pytest.mark.parametrize("level", range(7))
def test_edge_counts(level):
    graph = build_gasket(level)
    assert len(graph_to_json(graph)["edges"]) == 3 ** (level + 1)


@pytest.mark.parametrize("level", range(5))
def test_normal_boundary_degrees(level):
    graph = build_gasket(level)
    assert all(d == 4 for d in graph.degrees)
    assert graph.sink_degree == 6
    corners = {graph.corner_index(name) for name in CORNER_NAMES}
    for i, b in enumerate(graph.beta):
        assert b == (2 if i in corners else 0)


@pytest.mark.parametrize("level", range(5))
def test_degrees_consistent_with_neighbors(level):
    graph = build_gasket(level)
    for i in range(graph.n_vertices):
        assert graph.degrees[i] == len(graph.neighbors[i]) + graph.beta[i]


def test_corner_and_junction_coords():
    assert corner_coords(3) == {LOWER_LEFT: (0, 0), LOWER_RIGHT: (8, 0), TOP: (0, 8)}
    assert junction_coords(3) == {"left": (0, 4), "right": (4, 4), "bottom": (4, 0)}
    with pytest.raises(ValueError):
        junction_coords(0)


def test_canonical_vertex_order_is_row_major():
    points = build_gasket(2).points.tolist()
    assert points == sorted(points, key=lambda p: (p[1], p[0]))
    assert points[0] == [0, 0]
    assert points[-1] == [0, 4]


def test_corner_sink_level1():
    graph = build_gasket(1, corner_sink(LOWER_LEFT))
    assert graph.points.tolist() == [[1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]
    assert graph.degrees == (4, 2, 4, 4, 2)
    assert graph.beta == (1, 0, 1, 0, 0)
    assert graph.sink_degree == 2
    assert graph.corner_index(LOWER_LEFT) is None
    assert graph.corner_index(LOWER_RIGHT) == 1


def test_boundary_tokens_round_trip():
    assert parse_boundary("normal") is NORMAL
    for name in CORNER_NAMES:
        b = corner_sink(name)
        assert parse_boundary(b.token()) == b
    with pytest.raises(ValueError):
        parse_boundary("weird")
    with pytest.raises(ValueError):
        corner_sink("middle")


@pytest.mark.parametrize("level", range(1, 5))
def test_rotation_is_an_order_three_graph_automorphism(level):
    graph = build_gasket(level)
    perm = rotation_ccw(graph)
    n = graph.n_vertices
    assert sorted(perm) == list(range(n))
    triple = list(range(n))
    for _ in range(3):
        triple = [perm[i] for i in triple]
    assert triple == list(range(n))
    edges = {frozenset(e) for e in graph_to_json(graph)["edges"]}
    assert {frozenset((perm[a], perm[b])) for a, b in edges} == edges
    # Corners cycle lower-left -> lower-right -> top.
    ll, lr, tp = (graph.corner_index(name) for name in CORNER_NAMES)
    assert perm[ll] == lr and perm[lr] == tp and perm[tp] == ll


@pytest.mark.parametrize("level", range(1, 5))
def test_rotation_cw_inverts_ccw(level):
    graph = build_gasket(level)
    ccw, cw = rotation_ccw(graph), rotation_cw(graph)
    assert [cw[ccw[i]] for i in range(graph.n_vertices)] == list(range(graph.n_vertices))


@pytest.mark.parametrize("level", range(1, 5))
def test_rotation_conjugates_laplacian(level):
    graph = build_gasket(level)
    perm = rotation_ccw(graph)
    lap = reduced_laplacian(graph)
    n = graph.n_vertices
    for i in range(n):
        for j in range(n):
            assert lap[perm[i]][perm[j]] == lap[i][j]


@pytest.mark.parametrize("level", range(1, 4))
def test_subcopy_embeddings(level):
    parent = build_gasket(level)
    child_coords, child_edges = reference_cells(level - 1)
    child_index = {c: i for i, c in enumerate(child_coords)}
    parent_edges = {frozenset(e) for e in graph_to_json(parent)["edges"]}
    seen = {}
    for name in CORNER_NAMES:
        emb = subcopy_embedding(level, name)
        assert len(emb) == len(child_coords)
        assert len(set(emb)) == len(emb)
        for u, v in child_edges:
            i, j = emb[child_index[u]], emb[child_index[v]]
            assert frozenset((i, j)) in parent_edges
        for i, target in enumerate(emb):
            seen.setdefault(target, set()).add((name, i))
    # Every parent vertex is covered; exactly the three junctions twice.
    assert set(seen) == set(range(parent.n_vertices))
    doubled = {v for v, hits in seen.items() if len(hits) == 2}
    assert doubled == {parent.junction_index(s) for s in ("left", "right", "bottom")}


def test_level0_reduced_laplacian_matrix():
    lap = reduced_laplacian(build_gasket(0))
    assert lap == [[4, -1, -1], [-1, 4, -1], [-1, -1, 4]]
    assert cofactor_det(lap) == 50


def test_level1_reduced_laplacian_determinant_against_cofactor_oracle():
    lap = reduced_laplacian(build_gasket(1))
    assert cofactor_det(lap) == 1444


@pytest.mark.parametrize("level", range(4))
def test_reduced_laplacian_row_sums_equal_sink_multiplicities(level):
    for boundary in (NORMAL, *(corner_sink(name) for name in CORNER_NAMES)):
        graph = build_gasket(level, boundary)
        lap = reduced_laplacian(graph)
        assert [sum(row) for row in lap] == list(graph.beta)
        for i in range(graph.n_vertices):
            for j in range(graph.n_vertices):
                assert lap[i][j] == lap[j][i]
        if boundary.kind == "normal":
            continue
        # A sunk corner leaves the bare gasket Laplacian minus its row and
        # column: the two other corners keep their bare degree 2, every
        # other vertex degree 4.
        assert graph.sink_degree == 2
        corners = set(corner_coords(level).values())
        for i, (a, b) in enumerate(graph.points.tolist()):
            assert lap[i][i] == (2 if (a, b) in corners else 4)


def test_graph_json_is_deterministic_and_faithful():
    graph = build_gasket(2)
    doc = graph_to_json(graph)
    again = graph_to_json(build_gasket(2))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert doc["level"] == 2
    assert doc["boundary"] == "normal"
    assert len(doc["vertices"]) == 15
    assert len(doc["edges"]) == 27
    assert sum(doc["beta"]) == 6
    for a, b in doc["edges"]:
        assert 0 <= a < b < 15


def test_build_gasket_rejects_negative_level():
    with pytest.raises(ValueError):
        build_gasket(-1)


def test_cold_build_interns_only_the_graph_asked_for(monkeypatch):
    """No lower level and no other boundary is built on the way.  The test
    runs on an empty copy of the intern cache, so the graphs that other
    tests hold stay the interned ones."""
    fresh = lru_cache(maxsize=None)(gasket._build_gasket.__wrapped__)
    monkeypatch.setattr(gasket, "_build_gasket", fresh)
    build_gasket(6, corner_sink(TOP))
    assert fresh.cache_info().currsize == 1
    fresh.cache_clear()
    build_gasket(6)
    assert fresh.cache_info().currsize == 1


BOUNDARIES = (NORMAL, *(corner_sink(name) for name in CORNER_NAMES))


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
@pytest.mark.parametrize("level", range(6))
def test_laplacian_product_equals_the_dense_matrix(level, boundary):
    graph = build_gasket(level, boundary)
    lap = reduced_laplacian(graph)
    n = graph.n_vertices
    rng = random.Random(f"product:{level}:{boundary.token()}")
    vectors = [
        [rng.randint(-10**40, 10**40) for _ in range(n)],
        [rng.randint(-3, 3) for _ in range(n)],
        [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(n)],
    ]
    for v in vectors:
        want = [sum(a * b for a, b in zip(row, v)) for row in lap]
        got = laplacian_product(graph, v)
        assert got.tolist() == want
        assert all(type(g) is type(w) for g, w in zip(got, want))
    # An int64 array is multiplied in int64, up to entries of 2**59.
    for span in (3, 2**59 - 1):
        v = [rng.randint(-span, span) for _ in range(n)]
        got = laplacian_product(graph, np.array(v, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [sum(a * b for a, b in zip(row, v)) for row in lap]


def test_laplacian_product_refuses_a_wrong_length():
    graph = build_gasket(1)
    for bad in ([1] * 5, [1] * 7, [1], 1):
        with pytest.raises(ValueError):
            laplacian_product(graph, bad)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
@pytest.mark.parametrize("level", range(7))
def test_cell_index_lists_cells_depth_first(level, boundary):
    """Level k lists the cells of side 2**(k+1) with midpoints (bottom, left,
    right) and corners (lower left, lower right, top); cell i of level k is
    split into cells 3i, 3i+1, 3i+2 of level k-1, its lower-left,
    lower-right and top sub-cells, so level 0 lists the level-1 cells
    depth-first."""
    graph = build_gasket(level, boundary)
    n = graph.n_vertices
    mids, corners, big = cell_index(graph)
    assert len(mids) == len(corners) == level

    def coord(v):
        return None if v == n else tuple(graph.points[v].tolist())

    side = 1 << level
    assert tuple(coord(v) for v in big) == tuple(
        c if c in graph else None for c in ((0, 0), (side, 0), (0, side))
    )
    for k in range(level):
        h = 1 << k
        assert mids[k].shape == corners[k].shape == (3 ** (level - 1 - k), 3)
        assert not mids[k].flags.writeable and not corners[k].flags.writeable
        for (p, q, r), (x, y, z) in zip(mids[k].tolist(), corners[k].tolist()):
            a, b = graph.points[p].tolist()
            a -= h
            assert (coord(x), coord(y), coord(z)) == tuple(
                c if c in graph else None for c in ((a, b), (a + 2 * h, b), (a, b + 2 * h))
            )
            assert (coord(q), coord(r)) == ((a, b + h), (a + h, b + h))
        if k:
            finer = corners[k - 1].reshape(-1, 3, 3)
            for (p, q, r), (x, y, z), sub in zip(mids[k].tolist(), corners[k].tolist(), finer.tolist()):
                assert sub == [[x, p, q], [p, y, r], [q, r, z]]
    if level:
        assert corners[-1].tolist() == [list(big)]


def reference_cell_index(graph):
    """`cell_index` by a stacked recursion on coordinates: every level reads
    the cells' six vertices off a {coord: index} dict of `graph.points`, one
    (a, b) pair at a time, n where there is none, and splits each cell's
    lower-left corner into its three sub-cells'."""
    level, n = graph.level, graph.n_vertices
    where = {c: i for i, c in enumerate(map(tuple, graph.points.tolist()))}

    def look(a, b):
        return np.array([where.get(c, n) for c in zip(a.tolist(), b.tolist())], dtype=np.intp)

    side = 1 << level
    a = b = np.zeros(1, dtype=np.intp)
    mids, corners = [], []
    for k in reversed(range(level)):
        h = 1 << k
        mids.append(np.stack([look(a + h, b), look(a, b + h), look(a + h, b + h)], axis=1))
        corners.append(np.stack([look(a, b), look(a + 2 * h, b), look(a, b + 2 * h)], axis=1))
        a, b = np.stack([a, a + h, a], axis=1).ravel(), np.stack([b, b, b + h], axis=1).ravel()
    big = tuple(where.get(c, n) for c in ((0, 0), (side, 0), (0, side)))
    return tuple(mids[::-1]), tuple(corners[::-1]), big


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
@pytest.mark.parametrize("level", range(11))
def test_cell_index_equals_the_stacked_recursion(level, boundary):
    graph = build_gasket(level, boundary)
    mids, corners, big = cell_index(graph)
    want_mids, want_corners, want_big = reference_cell_index(graph)
    assert big == want_big
    if boundary.corner:
        assert big[CORNER_NAMES.index(boundary.corner)] == graph.n_vertices
    assert len(mids) == len(want_mids) == len(corners) == len(want_corners) == level
    for got, want in zip(mids + corners, want_mids + want_corners):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
@pytest.mark.parametrize("level", range(8))
def test_build_equals_the_set_recursion(level, boundary):
    graph = build_gasket(level, boundary)
    coords, edges, neighbors, beta, degrees = reference_graph(level, boundary)
    assert list(map(tuple, graph.points.tolist())) == list(coords)
    assert graph_to_json(graph)["edges"] == list(map(list, edges))
    assert graph.neighbors == neighbors
    assert graph.beta == beta
    assert graph.degrees == degrees
    assert [graph.index(c) for c in coords] == list(range(len(coords)))
    side = 1 << level
    # (side + 1, 0) and (-1, 1) share their keys with (0, 1) and (side, 0).
    outside = {(-1, 0), (0, -1), (-1, 1), (side + 1, 0), (0, side + 1), (side, side), *corner_coords(level).values()}
    for c in outside - set(coords):
        assert c not in graph
        with pytest.raises(KeyError):
            graph.index(c)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
@pytest.mark.parametrize("level", range(11))
def test_graph_holds_no_array_larger_than_its_table(level, boundary):
    """The graph's arrays, fields and cached views alike, grow with its n
    vertices, not with the (2**level + 1)**2 square of coordinates."""
    graph = build_gasket(level, boundary)
    graph.neighbors, (0, 1) in graph
    arrays = [v for v in vars(graph).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 3
    assert max(array.size for array in arrays) <= 4 * graph.n_vertices


# SHA-256 over json.dumps(graph_to_json(g)) for levels 0-9, each on the
# normal boundary and then on the corner sinks in CORNER_NAMES order, as
# the set-and-sort build produced them.
GRAPH_JSON_SHA256 = "15ebf740333f334400b0dfd319a38cb04a732981819b19acfa58f811ff3efce8"


def test_graph_json_hash_through_level_9():
    digest = hashlib.sha256()
    for level in range(10):
        for boundary in BOUNDARIES:
            digest.update(json.dumps(graph_to_json(build_gasket(level, boundary))).encode())
    assert digest.hexdigest() == GRAPH_JSON_SHA256


def python_ints(values):
    return all(type(v) is int for v in values)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_views_hold_python_ints(boundary):
    """numpy integers would slow the toppling queue and change JSON."""
    graph = build_gasket(3, boundary)
    assert python_ints(v for e in graph_to_json(graph)["edges"] for v in e)
    assert python_ints(v for nbrs in graph.neighbors for v in nbrs)
    assert python_ints(graph.beta) and python_ints(graph.degrees)
    assert python_ints(v for row in reduced_laplacian(graph) for v in row)
    assert python_ints(graph_to_json(graph)["vertices"][0])
    assert python_ints([graph.index((1, 1))] + [v for v in map(graph.corner_index, CORNER_NAMES) if v is not None])
    if boundary == NORMAL:
        assert python_ints(rotation_ccw(graph)) and python_ints(rotation_cw(graph))
        assert python_ints(rotate_config(config(graph, [1] * graph.n_vertices), "cw").chips)
        assert python_ints(subcopy_embedding(3, TOP))
        parts = {name: [2] * build_gasket(2).n_vertices for name in CORNER_NAMES}
        assert python_ints(assemble_from_copies(3, parts))
