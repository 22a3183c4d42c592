import json

import pytest

from gasketpile.gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    NORMAL,
    TOP,
    build_gasket,
    corner_coords,
    corner_sink,
    gasket_cells,
    graph_to_json,
    junction_coords,
    parse_boundary,
    reduced_laplacian,
    rotation_ccw,
    rotation_cw,
    subcopy_embedding,
)


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


@pytest.mark.parametrize("level,expected", [(0, 3), (1, 6), (2, 15), (3, 42), (4, 123), (5, 366), (6, 1095)])
def test_vertex_counts(level, expected):
    graph = build_gasket(level)
    assert graph.n_vertices == expected
    assert graph.n_vertices == 3 * (3**level + 1) // 2


@pytest.mark.parametrize("level", range(7))
def test_edge_counts(level):
    graph = build_gasket(level)
    assert len(graph.edges) == 3 ** (level + 1)


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
    graph = build_gasket(2)
    assert graph.coords == tuple(sorted(graph.coords, key=lambda p: (p[1], p[0])))
    assert graph.coords[0] == (0, 0)
    assert graph.coords[-1] == (0, 4)


def test_corner_sink_level1():
    graph = build_gasket(1, corner_sink(LOWER_LEFT))
    assert graph.coords == ((1, 0), (2, 0), (0, 1), (1, 1), (0, 2))
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
    edges = {frozenset(e) for e in graph.edges}
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
    child_coords, child_edges = gasket_cells(level - 1)
    child_index = {c: i for i, c in enumerate(child_coords)}
    seen = {}
    for name in CORNER_NAMES:
        emb = subcopy_embedding(level, name)
        assert len(emb) == len(child_coords)
        assert len(set(emb)) == len(emb)
        for u, v in child_edges:
            i, j = emb[child_index[u]], emb[child_index[v]]
            assert frozenset((i, j)) in {frozenset(e) for e in parent.edges}
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
        for i, c in enumerate(graph.coords):
            assert lap[i][i] == (2 if c in corners else 4)


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
