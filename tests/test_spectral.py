import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gasketpile import group, spectral
from gasketpile.gasket import LOWER_LEFT, LOWER_RIGHT, NORMAL, TOP, build_gasket, cell_index, corner_sink, reduced_laplacian
from gasketpile.markov import exact_tv_curve
from gasketpile.sandpile import identity, max_config
from gasketpile.spectral import (
    DEFAULT_CHARACTER_CAP,
    GroupTooLargeError,
    HarmonicFunction,
    cell_harmonic,
    distinguishing_statistic,
    enumerate_characters,
    eigenvalue,
    exact_distance,
    t_star,
    walk_spectrum,
)

from test_acceptance import character_rotation, is_trivial, product_harmonic
from test_group import smith_coordinates

G0 = build_gasket(0)
G1 = build_gasket(1)
BOUNDARIES = [NORMAL, corner_sink(TOP), corner_sink(LOWER_LEFT), corner_sink(LOWER_RIGHT)]


def trivial_character(graph):
    return HarmonicFunction(graph, (Fraction(0),) * graph.n_vertices)


def test_trivial_character():
    h = trivial_character(G1)
    assert is_trivial(h) and h.is_real and h.is_harmonic()
    assert eigenvalue(h) == 1
    assert character_rotation(h, [3, 1, 4, 1, 5, 9]) == 0


def test_rotation_vector_must_match_graph():
    with pytest.raises(ValueError):
        HarmonicFunction(G1, (Fraction(0),) * 3)


def test_constant_third_is_not_harmonic():
    h = HarmonicFunction(G1, (Fraction(1, 3),) * 6)
    assert not h.is_harmonic()
    with pytest.raises(ValueError):
        eigenvalue(h)


def test_level1_cell_harmonic_layout():
    h = cell_harmonic(1, 1)
    # Canonical order (0,0),(1,0),(2,0),(0,1),(1,1),(0,2): one half turn on
    # each of the three midpoints, corners untouched.
    half = Fraction(1, 2)
    assert h.rotation == (0, half, 0, half, half, 0)
    assert h.is_real and h.is_harmonic() and not is_trivial(h)


def level1_cells(level):
    """The level-1 cells as the level-0 rows of `gasket.cell_index` give
    them: vertices (corner, bottom midpoint, corner, left midpoint, right
    midpoint, corner) and midpoints (bottom, left, right)."""
    mids, corners, _ = cell_index(build_gasket(level))
    return [((x, p, y, q, r, z), (p, q, r)) for (p, q, r), (x, y, z) in zip(mids[0].tolist(), corners[0].tolist())]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_cells_partition_midpoints(level):
    graph = build_gasket(level)
    cells = level1_cells(level)
    assert len(cells) == 3 ** (level - 1)
    mids = [v for _, midpoints in cells for v in midpoints]
    assert len(mids) == len(set(mids))
    for vertices, midpoints in cells:
        assert len(vertices) == 6
        assert set(midpoints) < set(vertices)
    covered = {v for vertices, _ in cells for v in vertices}
    assert covered == set(range(graph.n_vertices))


def reference_cells(level):
    """The level-1 cells by the coordinate recursion: origins depth-first
    in copy order lower-left, lower-right, top; vertices (0,0), (1,0),
    (2,0), (0,1), (1,1), (0,2) and midpoints (1,0), (0,1), (1,1) around
    each origin."""

    def origins(k):
        if k == 1:
            return [(0, 0)]
        half = 1 << (k - 1)
        return [(a + da * half, b + db * half) for da, db in ((0, 0), (1, 0), (0, 1)) for a, b in origins(k - 1)]

    index = build_gasket(level).index
    return [
        (
            tuple(index((a + da, b + db)) for da, db in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))),
            tuple(index((a + da, b + db)) for da, db in ((1, 0), (0, 1), (1, 1))),
        )
        for a, b in origins(level)
    ]


@pytest.mark.parametrize("level", range(1, 9))
def test_cells_equal_the_coordinate_recursion(level):
    want = reference_cells(level)
    assert level1_cells(level) == want
    n = build_gasket(level).n_vertices
    half = Fraction(1, 2)
    # Every cell up to level 4; the first, last and five random ones above.
    picks = range(len(want)) if level <= 4 else [0, len(want) - 1, *random.Random(level).sample(range(len(want)), 5)]
    for i in picks:
        rotation = [Fraction(0)] * n
        for v in want[i][1]:
            rotation[v] = half
        assert cell_harmonic(level, i + 1).rotation == tuple(rotation)


def loop_is_harmonic(h):
    """The per-vertex check `is_harmonic` ran before it read
    `gasket.laplacian_product`."""
    q = h.rotation
    for v, nbrs in enumerate(h.graph.neighbors):
        residue = h.graph.degrees[v] * q[v] - sum(q[w] for w in nbrs)
        if residue.denominator != 1:
            return False
    return True


def test_is_harmonic_keeps_its_verdicts():
    chars = enumerate_characters(G1)
    assert all(c.is_harmonic() and loop_is_harmonic(c) for c in chars)
    rng = random.Random(19)
    verdicts = []
    for level in range(4):
        for boundary in (NORMAL, corner_sink(LOWER_LEFT)):
            graph = build_gasket(level, boundary)
            n = graph.n_vertices
            for den in (2, 3, 5, 10**20):
                h = HarmonicFunction(graph, tuple(Fraction(rng.randrange(den), den) for _ in range(n)))
                verdicts.append(h.is_harmonic())
                assert verdicts[-1] == loop_is_harmonic(h)
            # A character moved by 1/den at one vertex stops being harmonic.
            for den in (2, 7):
                base = cell_harmonic(level, 1).rotation if boundary == NORMAL and level else (Fraction(0),) * n
                bumped = list(base)
                v = rng.randrange(n)
                bumped[v] = (bumped[v] + Fraction(1, den)) % 1
                h = HarmonicFunction(graph, tuple(bumped))
                assert not h.is_harmonic() and not loop_is_harmonic(h)
    assert True in verdicts and False in verdicts


def test_cell_harmonic_bounds():
    with pytest.raises(ValueError):
        cell_harmonic(2, 0)
    with pytest.raises(ValueError):
        cell_harmonic(2, 4)
    # Level 0 has no level-1 cells: `cell_index` lists no level there, and
    # both readers raise ValueError, not IndexError.
    assert cell_index(G0)[0] == ()
    with pytest.raises(ValueError):
        cell_harmonic(0, 1)
    with pytest.raises(ValueError):
        distinguishing_statistic(G0, [0] * G0.n_vertices)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_cell_eigenvalue_formula(level):
    n = build_gasket(level).n_vertices
    for i in range(1, 3 ** (level - 1) + 1):
        h = cell_harmonic(level, i)
        assert h.is_harmonic()
        assert eigenvalue(h) == Fraction(n - 5, n + 1) == 1 - Fraction(6, n + 1)


@pytest.mark.parametrize("level", [2, 3])
def test_pair_product_eigenvalue_formula(level):
    n = build_gasket(level).n_vertices
    cells = 3 ** (level - 1)
    for i in range(1, cells + 1):
        for j in range(i + 1, cells + 1):
            h = product_harmonic(cell_harmonic(level, i), cell_harmonic(level, j))
            assert h.is_harmonic()
            assert eigenvalue(h) == Fraction(n - 11, n + 1) == 1 - Fraction(12, n + 1)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_cell_products_trivial_exactly_on_the_diagonal(level):
    cells = 3 ** (level - 1)
    for i in range(1, cells + 1):
        for j in range(1, cells + 1):
            prod = product_harmonic(cell_harmonic(level, i), cell_harmonic(level, j))
            assert is_trivial(prod) == (i == j)


def test_statistic_on_reference_configs():
    assert distinguishing_statistic(G1, identity(G1).chips) == 1.0
    assert distinguishing_statistic(G1, max_config(G1).chips) == -1.0
    e2 = identity(build_gasket(2))
    assert distinguishing_statistic(build_gasket(2), e2.chips) == 1.0


def test_statistic_is_a_class_function():
    rng = random.Random(13)
    for level in (1, 2):
        graph = build_gasket(level)
        lap = reduced_laplacian(graph)
        n = graph.n_vertices
        for _ in range(10):
            x = [rng.randrange(8) for _ in range(n)]
            y = [rng.randrange(-2, 3) for _ in range(n)]
            moved = [
                x[i] + sum(lap[i][v] * y[v] for v in range(n)) for i in range(n)
            ]
            assert distinguishing_statistic(graph, moved) == distinguishing_statistic(graph, x)


def test_statistic_rejects_corner_sink_graphs():
    with pytest.raises(ValueError):
        distinguishing_statistic(build_gasket(1, corner_sink(LOWER_LEFT)), [0] * 5)


def test_enumerate_characters_level0():
    chars = enumerate_characters(G0)
    assert len(chars) == 50
    # Built without the per-character check, they equal checked ones.
    assert chars == [HarmonicFunction(G0, c.rotation) for c in chars]
    assert is_trivial(chars[0])
    assert len({c.rotation for c in chars}) == 50
    for c in chars[:10]:
        assert c.is_harmonic()
    # Real characters form the 2-torsion of the dual group, here Z5 + Z10.
    assert sum(1 for c in chars if c.is_real) == 2
    for c in chars:
        assert character_rotation(c, identity(G0).chips) == 0
        if not is_trivial(c):
            lam = eigenvalue(c)
            assert abs(complex(lam) if isinstance(lam, Fraction) else lam) < 1


def test_enumerate_characters_level1():
    chars = enumerate_characters(G1)
    assert len(chars) == 1444
    assert len({c.rotation for c in chars}) == 1444
    assert sum(1 for c in chars if c.is_real) == 4
    assert cell_harmonic(1, 1).rotation in {c.rotation for c in chars}


def reference_characters(graph):
    """Rotation vectors character by character, in C order of the Smith
    coordinates (m_i): q(v) = sum_i m_i * Uinv[i, v] / d_i mod 1, straight
    from the adapted basis."""
    data = group.lattice_data(graph)
    rows = [(data.Uinv[i], d) for i, d in data.cyclic]
    return [
        tuple(sum(Fraction(m * row[v], d) for m, (row, d) in zip(counts, rows)) % 1 for v in range(graph.n_vertices))
        for counts in itertools.product(*(range(d) for _, d in rows))
    ]


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_enumerate_characters_equals_the_per_character_formula(level, boundary):
    graph = build_gasket(level, boundary)
    assert [c.rotation for c in enumerate_characters(graph)] == reference_characters(graph)


@pytest.mark.parametrize("block", [1, 7, 1443, 1444, 1445])
def test_enumeration_is_exact_across_block_boundaries(block, monkeypatch):
    monkeypatch.setattr(spectral, "_CHARACTER_BLOCK", block)
    assert [c.rotation for c in enumerate_characters(G1)] == reference_characters(G1)


def test_huge_smith_torus_takes_exact_integers(monkeypatch):
    # The numerators run past 2**70, beyond int64.  The torus is far too big
    # to enumerate, so the recorder stops after 60 characters, one block of
    # 50 and part of the next.
    dims = [3, 2**70 + 1]
    shifts = [(1, 2**70), (2, 2**69 + 3), (0, 1), (1, 0), (2, 5**30), (0, 2**70 - 7)]
    monkeypatch.setattr(spectral, "_smith_shifts", lambda graph, cap: (dims, shifts))
    monkeypatch.setattr(spectral, "_CHARACTER_BLOCK", 50)
    seen = []

    class Enough(Exception):
        pass

    def record(graph, rotation):
        seen.append(rotation)
        if len(seen) == 60:
            raise Enough

    monkeypatch.setattr(spectral, "_character", record)
    with pytest.raises(Enough):
        enumerate_characters(G1)
    # The first 60 coordinates in C order are (0, m) for m < 60.
    expected = [tuple(Fraction(s * m, dims[1]) % 1 for _, s in shifts) for m in range(60)]
    assert seen == expected


def test_enumeration_refuses_oversized_groups():
    with pytest.raises(GroupTooLargeError) as info:
        enumerate_characters(build_gasket(2))
    assert info.value.order == 25_613_280
    assert info.value.cap == DEFAULT_CHARACTER_CAP
    with pytest.raises(GroupTooLargeError):
        exact_distance(G1, 5, cap=100)


def test_exact_distance_at_time_zero():
    result = exact_distance(G0, 0)
    assert result.group_order == 50
    assert math.isclose(result.l2**2, 49 / 50, rel_tol=0, abs_tol=1e-15)
    assert result.tv_upper == math.sqrt(50) * result.l2 / 2


def test_tv_upper_bounds_the_exact_total_variation():
    for graph in (G0, G1):
        curve = exact_tv_curve(graph, 60)
        for t in (0, 1, 2, 5, 10, 24, 47, 60):
            assert curve[t] <= exact_distance(graph, t).tv_upper


# ---------------------------------------------------------------------------
# The Fourier engine against references that do not use it.
# ---------------------------------------------------------------------------

ENGINE_GRAPHS = [
    pytest.param(build_gasket(level, boundary), id=f"L{level}-{boundary.token()}")
    for level in (0, 1)
    for boundary in (NORMAL, corner_sink(LOWER_LEFT))
]


def plancherel_l2_reference(graph, t_values):
    """l2 distance after each t by the per-character Plancherel sum over the
    enumerated characters, each eigenvalue from its rotation vector."""
    chars = enumerate_characters(graph)
    mag2 = []
    for h in chars[1:]:
        lam = eigenvalue(h)
        mag2.append(float(lam) ** 2 if isinstance(lam, Fraction) else abs(lam) ** 2)
    return [math.sqrt(sum(m**t for m in mag2) / len(chars)) for t in t_values]


def rolled_tv_reference(graph, t_max):
    """TV curve by evolving the full distribution over the Smith torus: one
    np.roll per vertex shift and step, plus the lazy sink move."""
    data = group.lattice_data(graph)
    n = graph.n_vertices
    dist = np.zeros([d for _, d in data.cyclic])
    dist.flat[0] = 1.0  # the identity class has zero coordinates
    shifts = [tuple(smith_coordinates(data, group.delta_vector(graph, v))) for v in range(n)]
    axes = tuple(range(dist.ndim))
    uniform = 1.0 / dist.size
    curve = [0.5 * float(np.abs(dist - uniform).sum())]
    for _ in range(t_max):
        acc = dist.copy()
        for shift in shifts:
            acc += np.roll(dist, shift, axis=axes)
        dist = acc / (n + 1)
        curve.append(0.5 * float(np.abs(dist - uniform).sum()))
    return curve


@pytest.mark.parametrize("graph", ENGINE_GRAPHS)
def test_exact_distance_equals_the_per_character_sum(graph):
    t_values = range(101)
    reference = plancherel_l2_reference(graph, t_values)
    for t, expected in zip(t_values, reference):
        result = exact_distance(graph, t)
        assert result.group_order == group.lattice_data(graph).order
        assert math.isclose(result.l2, expected, rel_tol=1e-12, abs_tol=1e-15), t


def fourier_tv_reference(graph, t_max):
    """TV curve by Fourier inversion: the law after t steps is the inverse
    transform of the t-th power of `walk_spectrum`, one `ifftn` per t."""
    spectrum = walk_spectrum(graph)
    power = np.ones_like(spectrum)
    curve = []
    for _ in range(t_max + 1):
        curve.append(0.5 * float(np.abs(np.fft.ifftn(power).real - 1 / spectrum.size).sum()))
        power *= spectrum
    return curve


@pytest.mark.parametrize("reference", [rolled_tv_reference, fourier_tv_reference], ids=["rolled", "fourier"])
@pytest.mark.parametrize("graph", ENGINE_GRAPHS)
def test_exact_tv_curve_equals_the_references(graph, reference):
    curve = exact_tv_curve(graph, 100)
    expected_curve = reference(graph, 100)
    assert len(curve) == len(expected_curve) == 101
    for t, (value, expected) in enumerate(zip(curve, expected_curve)):
        assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-15), t


def test_exact_tv_curve_has_no_transform_noise_floor():
    # Fourier inversion leaves about 1e-14 at t = 200 on level 1.
    assert exact_tv_curve(G1, 200)[200] < 1e-15


def test_walk_spectrum_holds_the_trivial_eigenvalue_first():
    spectrum = walk_spectrum(G1)
    assert spectrum.shape == (38, 38)
    assert math.isclose(spectrum.flat[0].real, 1.0, rel_tol=1e-15)
    assert np.all(np.abs(spectrum.flat[1:]) < 1 - 1e-9)
    with pytest.raises(GroupTooLargeError):
        walk_spectrum(G1, cap=1443)


def test_refusals_come_before_any_smith_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused request reached the Smith code")

    group.lattice_data.cache_clear()
    monkeypatch.setattr(group, "smith_mod", refuse)
    graph = build_gasket(2)
    with pytest.raises(GroupTooLargeError):
        exact_tv_curve(graph, 3)
    with pytest.raises(GroupTooLargeError):
        exact_distance(graph, 1)
    with pytest.raises(GroupTooLargeError):
        enumerate_characters(graph)


@pytest.mark.parametrize(
    "run",
    [walk_spectrum, enumerate_characters, lambda graph: exact_tv_curve(graph, 4)],
    ids=["walk_spectrum", "enumerate_characters", "exact_tv_curve"],
)
def test_the_spectrum_takes_one_smith_run_with_transforms(run, monkeypatch):
    real = group.smith_mod
    calls = []

    def counting(matrix, modulus, transforms=False):
        calls.append(transforms)
        return real(matrix, modulus, transforms=transforms)

    group.lattice_data.cache_clear()
    monkeypatch.setattr(group, "smith_mod", counting)
    run(G1)
    assert calls == [True]


def test_exact_distance_rejects_negative_times():
    with pytest.raises(ValueError, match="must be >= 0"):
        exact_distance(G0, -1)


def test_exact_distance_decreases():
    values = [exact_distance(G0, t).l2 for t in range(6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_l2_bound_holds_at_the_prescribed_time():
    for graph, t in ((G0, 24), (G1, 47)):
        assert t_star(graph.n_vertices) == t
        assert exact_distance(graph, t).l2 <= 0.25


def test_character_values_lie_on_the_unit_circle():
    for c in enumerate_characters(G0)[:10]:
        for v in c.values():
            assert math.isclose(abs(v), 1.0, abs_tol=1e-12)
        assert 0 <= character_rotation(c, [1, 2, 3]) < 1
