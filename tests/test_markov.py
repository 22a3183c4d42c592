import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from gasketpile import group, markov, sandpile
from gasketpile.gasket import CORNER_NAMES, LOWER_LEFT, NORMAL, build_gasket, cell_index, corner_sink, gasket_size
from gasketpile.sandpile import config, identity, is_recurrent_burning, recurrent_rep, stabilize
from gasketpile.spectral import GroupTooLargeError, distinguishing_statistic

G1 = build_gasket(1)
BOUNDARIES = (NORMAL, *(corner_sink(c) for c in CORNER_NAMES))


def test_master_seed_resolution(monkeypatch):
    monkeypatch.delenv(markov.SEED_ENV_VAR, raising=False)
    assert markov.master_seed(None) == 0
    assert markov.master_seed(17) == 17
    monkeypatch.setenv(markov.SEED_ENV_VAR, "123")
    assert markov.master_seed(None) == 123
    assert markov.master_seed(4) == 4


def test_trajectory_rng_is_reproducible():
    a = markov.trajectory_rng(5, 2)
    b = markov.trajectory_rng(5, 2)
    assert [a.randrange(100) for _ in range(10)] == [b.randrange(100) for _ in range(10)]
    c = markov.trajectory_rng(5, 3)
    assert [markov.trajectory_rng(5, 2).randrange(100) for _ in range(5)] != [
        c.randrange(100) for _ in range(5)
    ]


def drawn_streams(rngs, m, count):
    """Each generator's values from `_randbelow_rounds`, checking that every
    round continues each generator's stream where the last one stopped."""
    streams = [[] for _ in rngs]
    rounds = 0
    for owner, first, size, values in markov._randbelow_rounds(rngs, m, count):
        rounds += 1
        assert size.sum() == len(values) and values.dtype == np.uint32
        for i, start, part in zip(owner.tolist(), first.tolist(), np.split(values, np.cumsum(size)[:-1])):
            assert start == len(streams[i])
            streams[i] += part.tolist()
    return streams, rounds


def bulk_draws(rng, m, count):
    return drawn_streams([rng], m, count)[0][0]


# 2**k rejects half its words: k = m.bit_length() is one bit more than needed.
MODULI = (1, 2, 3, 7, 16, 17, 43, 124, 9844, 2**31 - 1, 2**32 - 1)


@pytest.mark.parametrize("m", MODULI)
def test_bulk_draws_are_the_randrange_stream(m):
    for seed, index in ((0, 0), (7, 3), (12345, 98)):
        for count in (0, 1, 5_000):
            reference = markov.trajectory_rng(seed, index)
            expected = [reference.randrange(m) for _ in range(count)]
            assert bulk_draws(markov.trajectory_rng(seed, index), m, count) == expected, (seed, index, count)


@pytest.mark.parametrize("m", (2, 124, 9844, 2**32 - 1))
def test_bulk_draws_cross_chunk_boundaries(monkeypatch, m):
    """Three generators drawn together in rounds of at most 7 values' words
    each: every generator's values are its own `randrange` stream."""
    monkeypatch.setattr(markov, "_DRAW_CHUNK", 7)
    expected = []
    for index in range(3):
        reference = markov.trajectory_rng(4, index)
        expected.append([reference.randrange(m) for _ in range(1_000)])
    streams, rounds = drawn_streams([markov.trajectory_rng(4, index) for index in range(3)], m, 1_000)
    assert streams == expected
    assert rounds >= 1_000 / markov._words(7, m)


@pytest.mark.parametrize("m", (0, -3, 2**32, 2**40))
def test_bulk_draws_refuse_moduli_outside_32_bits(m):
    with pytest.raises(ValueError, match="modulus"):
        bulk_draws(markov.trajectory_rng(0, 0), m, 1)


def test_chunked_walks_equal_the_unchunked_ones(monkeypatch):
    graph = build_gasket(3)
    chain = markov.run_chain(graph, 500, seed=5, index=2)
    estimate = markov.estimate_chi_decay(3, 40, 30, seed=5)
    monkeypatch.setattr(markov, "_DRAW_CHUNK", 13)
    assert markov.run_chain(graph, 500, seed=5, index=2) == chain
    assert markov.estimate_chi_decay(3, 40, 30, seed=5) == estimate


def reference_chi_decay(level, t, trials, seed):
    """The per-trial loop: trajectory i's t draws by `randrange`, counted per
    level-1 cell by one `np.bincount`, one value per trial."""
    n = gasket_size(level)
    mids = cell_index(build_gasket(level))[0][0]
    n_cells = len(mids)
    slot = np.full(n + 1, n_cells, dtype=np.intp)
    slot[mids] = np.arange(n_cells)[:, None]
    values = np.empty(trials)
    for i in range(trials):
        rng = markov.trajectory_rng(seed, i)
        draws = np.array([rng.randrange(n + 1) for _ in range(t)], dtype=np.intp)
        counts = np.bincount(slot[draws], minlength=n_cells + 1)
        values[i] = (n_cells - 2 * np.count_nonzero(counts[:n_cells] & 1)) / n_cells
    return markov.ChiDecayEstimate(
        level=level,
        t=t,
        trials=trials,
        mean=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf"),
        expected=markov.expected_chi(level, t),
    )


def spy_rounds(monkeypatch):
    """Record the rounds that each call of `_randbelow_rounds`, one block of
    trajectories, yields."""
    blocks = []
    decode = markov._randbelow_rounds

    def spy(rngs, m, count):
        blocks.append(0)
        for part in decode(rngs, m, count):
            blocks[-1] += 1
            yield part

    monkeypatch.setattr(markov, "_randbelow_rounds", spy)
    return blocks


# (level, t, trials, seed, _DRAW_CHUNK or None, blocks, a block with at
# least this many rounds)
CHI_TABLE = [
    (1, 1, 250, 3, None, 3, 1),  # blocks of 103 trials
    (2, 5, 7, 1, 1_300, 4, 1),  # blocks of two trials
    (1, 0, 5, 0, None, 1, 0),  # no draws
    (1, 0, 1, 2, None, 1, 0),
    (3, 17, 1, 4, None, 1, 1),  # one trial: no stderr
    (3, 40, 30, 5, 13, 30, 3),  # t above the chunk: rounds per trajectory
    (4, 100, 20, 2, None, 1, 1),  # the benchmark's op
    (9, 3, 50, 8, None, 2, 1),  # blocks of 39 trials, bounded by their counts
]


@pytest.mark.parametrize("level, t, trials, seed, chunk, blocks, rounds", CHI_TABLE)
def test_chi_decay_equals_the_per_trial_loop(monkeypatch, level, t, trials, seed, chunk, blocks, rounds):
    if chunk:
        monkeypatch.setattr(markov, "_DRAW_CHUNK", chunk)
    seen = spy_rounds(monkeypatch)
    assert markov.estimate_chi_decay(level, t, trials, seed=seed) == reference_chi_decay(level, t, trials, seed)
    assert len(seen) == blocks and max(seen) >= rounds, seen


def test_chi_decay_refills_a_short_first_read(monkeypatch):
    # Level 2 draws below m = 16 from 5-bit values, so half the words are
    # rejected and a first read falls short now and then.
    short = next(i for i in itertools.count() if drawn_streams([markov.trajectory_rng(0, i)], 16, 100)[1] > 1)
    seen = spy_rounds(monkeypatch)
    assert markov.estimate_chi_decay(2, 100, short + 1, seed=0) == reference_chi_decay(2, 100, short + 1, 0)
    assert seen == [2]


@pytest.mark.parametrize("chunk", (None, 13))
def test_mixing_report_reads_each_trajectory_once(monkeypatch, chunk):
    """The draws up to each time in CHI_TIMES are the first ones of one
    stream, so every trajectory is seeded once for all four estimates."""
    if chunk:
        monkeypatch.setattr(markov, "_DRAW_CHUNK", chunk)
    seeded = []
    trajectory_rng = markov.trajectory_rng

    def spy(seed, index):
        seeded.append(index)
        return trajectory_rng(seed, index)

    monkeypatch.setattr(markov, "trajectory_rng", spy)
    report = markov.mixing_report(2, chi_trials=40, seed=6)
    assert sorted(seeded) == list(range(40))
    assert report.chi_decay == [reference_chi_decay(2, t, 40, 6) for t in markov.CHI_TIMES]


def replay_chain(graph, steps, seed, index):
    """The walk step by step through the public `stabilize`: draw a vertex
    or the sink from the trajectory's generator, add a chip, stabilize."""
    rng = markov.trajectory_rng(seed, index)
    conf = identity(graph)
    n = graph.n_vertices
    for _ in range(steps):
        v = rng.randrange(n + 1)
        if v < n:
            chips = list(conf.chips)
            chips[v] += 1
            conf, _ = stabilize(config(graph, chips))
    return conf


def test_run_chain_starts_at_the_identity():
    assert markov.run_chain(G1, 0, seed=0) == identity(G1)


def test_run_chain_stays_stable_and_recurrent():
    for steps in range(1, 30):
        conf = markov.run_chain(G1, steps, seed=1)
        assert conf.is_stable
    assert is_recurrent_burning(conf)


def test_run_chain_matches_a_replay_through_stabilize():
    # 2,000 steps only where the step-by-step replay is cheap.
    short, long = (0, 1, 13, 200), (0, 1, 13, 200, 2000)
    cases = [
        (build_gasket(1), long),
        (build_gasket(2), long),
        (build_gasket(3), short),
        (build_gasket(4), short),
        (build_gasket(2, corner_sink("lower_left")), long),
        (build_gasket(3, corner_sink("lower_left")), short),
    ]
    for graph, steps in cases:
        for t in steps:
            for seed, index in ((9, 4), (9, 5), (2, 0)):
                direct = markov.run_chain(graph, t, seed=seed, index=index)
                assert direct == replay_chain(graph, t, seed, index), (graph.level, t, seed, index)
        assert markov.run_chain(graph, 200, seed=9, index=5) != markov.run_chain(graph, 200, seed=9, index=4)


@pytest.mark.parametrize("level", [1, 2])
def test_long_chains_preserve_recurrence(level):
    graph = build_gasket(level)
    for steps in range(250, 2001, 250):
        assert is_recurrent_burning(markov.run_chain(graph, steps, seed=level))


def test_walk_steps_never_enter_the_rounds_phase(monkeypatch):
    graph = build_gasket(4)
    identity(graph)

    def refuse(*args):
        raise AssertionError("a walk step handed its avalanche to the rounds")

    monkeypatch.setattr(sandpile, "_topple_rounds", refuse)
    assert replay_chain(graph, 2000, 4, 0).is_stable


def test_expected_chi_formula():
    assert markov.expected_chi(2, 0) == 1.0
    n = build_gasket(3).n_vertices
    assert markov.expected_chi(3, 7) == pytest.approx((1 - 6 / (n + 1)) ** 7)


def test_chi_decay_at_time_zero_is_exactly_one():
    est = markov.estimate_chi_decay(1, 0, trials=20, seed=0)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.expected == 1.0


def test_chi_decay_estimates_are_reproducible():
    a = markov.estimate_chi_decay(1, 3, trials=200, seed=7)
    b = markov.estimate_chi_decay(1, 3, trials=200, seed=7)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = markov.estimate_chi_decay(1, 3, trials=200, seed=8)
    assert (a.mean, a.stderr) != (c.mean, c.stderr)
    doc = a.to_json()
    assert doc == {
        "level": 1,
        "t": 3,
        "trials": 200,
        "mean": a.mean,
        "stderr": a.stderr,
        "expected": a.expected,
    }


def test_chi_decay_tracks_the_spectral_prediction():
    est = markov.estimate_chi_decay(2, 4, trials=2_000, seed=0)
    assert abs(est.mean - est.expected) <= 3 * est.stderr


def toppled_statistic(graph, t, seed, index=0):
    return distinguishing_statistic(graph, markov.run_chain(graph, t, seed=seed, index=index).chips)


# 3,000 trajectories in all; fewer at the levels where toppling costs more.
@pytest.mark.parametrize("level, count", [(1, 1400), (2, 1000), (3, 450), (4, 150)])
def test_chi_decay_equals_the_toppled_statistic_per_trajectory(level, count):
    graph = build_gasket(level)
    for s in range(count):
        t = s % 101
        est = markov.estimate_chi_decay(level, t, 1, seed=s)
        assert est.mean == toppled_statistic(graph, t, s), (level, t, s)


@pytest.mark.parametrize("level, t, trials", [(1, 7, 50), (2, 30, 40), (3, 100, 25), (4, 60, 20)])
def test_chi_decay_moments_equal_those_of_the_toppled_walk(level, t, trials):
    graph = build_gasket(level)
    values = np.array([toppled_statistic(graph, t, 11, i) for i in range(trials)])
    est = markov.estimate_chi_decay(level, t, trials, seed=11)
    assert est.mean == float(values.mean())
    assert est.stderr == float(values.std(ddof=1) / math.sqrt(trials))


def test_chi_decay_never_topples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_chi_decay reached the toppling code")

    monkeypatch.setattr(sandpile, "_stabilize_raw", refuse)
    est = markov.estimate_chi_decay(4, 100, 20, seed=2)
    assert est.trials == 20
    with pytest.raises(AssertionError, match="toppling"):
        markov.run_chain(G1, 1)


def test_stationary_sampler_yields_recurrent_configs():
    graph = build_gasket(0)
    rng = markov.trajectory_rng(0, 0)
    seen = set()
    for _ in range(400):
        conf = markov.sample_stationary(graph, rng)
        seen.add(conf.chips)
        assert conf.is_stable
    assert len(seen) == 50
    assert all(is_recurrent_burning(recurrent_rep(graph, list(chips))) for chips in list(seen)[:5])


def test_stationary_chi_samples_have_the_right_moments():
    graph = build_gasket(2)
    rng = markov.trajectory_rng(0, 0)
    samples = np.array([
        distinguishing_statistic(graph, markov.sample_stationary(graph, rng).chips)
        for _ in range(4_000)
    ])
    assert set(samples).issubset({-1.0, -1 / 3, 1 / 3, 1.0})
    assert abs(samples.mean()) < 4 / math.sqrt(len(samples))
    assert samples.var(ddof=1) == pytest.approx(1 / 3, rel=0.15)


def spanning_tree_slots(graph):
    """Every parent-slot assignment that forms a tree rooted at the sink:
    slot k of vertex v leads to neighbors[v][k], the last beta[v] slots to
    the sink (index n)."""
    n = graph.n_vertices
    targets = [nbrs + (n,) * b for nbrs, b in zip(graph.neighbors, graph.beta)]

    def reaches_sink(slots, u):
        for _ in range(n):  # a path to the sink has at most n steps
            u = targets[u][slots[u]]
            if u == n:
                return True
        return False

    for slots in itertools.product(*(range(d) for d in graph.degrees)):
        if all(reaches_sink(slots, v) for v in range(n)):
            yield list(slots)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_edge_slots_are_prefixes_of_the_neighbour_table_columns(boundary):
    """The sampler's slots of v are the first degrees[v] entries of its table
    column: its neighbours, then the sink (index n) once per sink edge."""
    for level in range(7):
        graph = build_gasket(level, boundary)
        n, targets = graph.n_vertices, graph.table.T.tolist()
        reference = [list(nbrs) + [n] * b for nbrs, b in zip(graph.neighbors, graph.beta)]
        assert [column[:d] for column, d in zip(targets, graph.degrees)] == reference


@pytest.mark.parametrize(
    "level, boundary, order",
    [(0, NORMAL, 50), (1, NORMAL, 1_444), (1, corner_sink(LOWER_LEFT), 54)],
    ids=["L0-normal", "L1-normal", "L1-corner_sink:lower_left"],
)
def test_burning_bijection_maps_every_tree_to_a_distinct_recurrent_config(level, boundary, order):
    graph = build_gasket(level, boundary)
    images = {}
    for slots in spanning_tree_slots(graph):
        conf = markov._burning_config(graph, graph.table.T.tolist(), slots)
        assert conf.chips not in images, f"trees {images[conf.chips]} and {slots} collide"
        assert is_recurrent_burning(conf)
        images[conf.chips] = slots
    assert len(images) == order == group.sandpile_group_order(graph)


def test_stationary_sampler_is_uniform_over_the_level1_group():
    graph = build_gasket(1)
    classes = group.sandpile_group_order(graph)
    draws = 20 * classes
    rng = markov.trajectory_rng(0, 0)
    counts = Counter(markov.sample_stationary(graph, rng).chips for _ in range(draws))
    assert len(counts) == classes
    expected = draws / classes
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    critical = chi2.ppf(0.99, classes - 1)
    assert stat <= critical, f"chi-square {stat:.1f} over critical {critical:.1f}"


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_stationary_samples_are_recurrent_at_levels_0_to_6(boundary):
    rng = markov.trajectory_rng(0, 0)
    for level in range(7):
        graph = build_gasket(level, boundary)
        for _ in range(3):
            conf = markov.sample_stationary(graph, rng)
            assert conf.is_stable and is_recurrent_burning(conf), (level, conf.chips)


def test_stationary_sampler_needs_no_group_algebra_and_no_toppling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_stationary reached the group algebra or the toppling code")

    graph = build_gasket(3)
    for name in ("smith_mod", "lattice_data"):
        monkeypatch.setattr(group, name, refuse)
    monkeypatch.setattr(sandpile, "_stabilize_raw", refuse)
    rng = markov.trajectory_rng(0, 0)
    samples = [markov.sample_stationary(graph, rng) for _ in range(20)]
    assert all(conf.is_stable for conf in samples)


def test_exact_tv_curve_level0():
    curve = markov.exact_tv_curve(build_gasket(0), 5)
    assert len(curve) == 6
    assert curve[0] == pytest.approx(49 / 50, abs=1e-12)
    assert all(0 <= v <= 1 for v in curve)
    assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))


def test_exact_tv_curve_respects_the_cap():
    with pytest.raises(GroupTooLargeError):
        markov.exact_tv_curve(build_gasket(2), 3, cap=1000)
    with pytest.raises(GroupTooLargeError):
        markov.exact_tv_curve(build_gasket(2), 3)


def test_negative_step_counts_are_rejected():
    with pytest.raises(ValueError, match="must be >= 0"):
        markov.exact_tv_curve(build_gasket(0), -3)
    with pytest.raises(ValueError, match="must be >= 0"):
        markov.expected_chi(1, -1)
    with pytest.raises(ValueError, match="must be >= 0"):
        markov.estimate_chi_decay(1, -1, 3)
    with pytest.raises(ValueError, match="must be >= 0"):
        markov.run_chain(G1, -5)
    with pytest.raises(ValueError, match="t must be >= 0"):
        markov.tv_lower_bound(2, -3)


@pytest.mark.parametrize("trials", (0, -1, -50))
def test_estimate_rejects_trial_counts_below_one(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        markov.estimate_chi_decay(1, 5, trials)


def test_lower_bound_is_below_the_exact_curve():
    curve = markov.exact_tv_curve(G1, 20)
    for t in range(21):
        assert markov.tv_lower_bound(1, t) <= curve[t] + 1e-12


def r_statistic(level, t):
    """R(t) = 3**(level-1) * (1 - 6/(n+1))**(2t), exactly."""
    n = gasket_size(level)
    return Fraction(3) ** (level - 1) * Fraction(n - 5, n + 1) ** (2 * t)


def tv_lower_bound_exact(level, t):
    """TV(t) >= 1 - 4/(4 + R(t)), exactly."""
    return 1 - Fraction(4) / (4 + r_statistic(level, t))


def test_r_statistic_values():
    assert r_statistic(3, 0) == 9
    assert tv_lower_bound_exact(3, 0) == Fraction(9, 13)
    assert markov.tv_lower_bound(3, 0) == pytest.approx(9 / 13)
    n = build_gasket(2).n_vertices
    assert r_statistic(2, 1) == 3 * Fraction(n - 5, n + 1) ** 2
    for level in range(1, 7):
        for t in (0, 1, 5, 40, 300):
            exact = float(tv_lower_bound_exact(level, t))
            assert markov.tv_lower_bound(level, t) == pytest.approx(exact, rel=1e-12)


def test_r_statistic_decays():
    values = [markov.tv_lower_bound(2, t) for t in range(8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_gasket_size():
    assert markov.gasket_size is gasket_size
    assert [markov.gasket_size(n) for n in range(6)] == [3, 6, 15, 42, 123, 366]
    assert all(markov.gasket_size(n) == build_gasket(n).n_vertices for n in range(6))
    with pytest.raises(ValueError):
        markov.expected_chi(-1, 3)
    with pytest.raises(ValueError, match="level >= 1"):
        markov.estimate_chi_decay(0, 3, 2)


def test_bound_times_at_level2():
    assert markov.upper_bound_t(2) == 125
    assert markov.lower_bound_raw(2) == pytest.approx(
        (15 / 12) * math.log(15) - markov.LOWER_BOUND_C * 15
    )
    assert markov.lower_bound_raw(2) < 0
    assert markov.lower_bound_t(2) == 0


def test_bounds_order_and_clamping():
    for level in range(1, 15):
        low, high = markov.lower_bound_t(level), markov.upper_bound_t(level)
        assert 0 <= low < high
    # The raw formula goes positive once the graph tops a million vertices.
    assert markov.lower_bound_t(12) == 0
    assert markov.lower_bound_t(13) > 0


def test_mixing_report_analytic_fields():
    report = markov.mixing_report(2)
    assert report.level == 2 and report.n_vertices == 15
    assert report.spectral_gap_upper == pytest.approx(6 / 16)
    assert report.upper_bound_t == 125
    assert report.lower_bound_t == 0
    assert report.group_order == 25613280
    assert report.chi_decay == []
    by_t = {t: (r, tv) for t, r, tv in report.r_curve}
    assert by_t[0][0] == pytest.approx(3.0)
    assert by_t[0][1] == pytest.approx(3 / 7)
    assert 125 in by_t


def test_mixing_report_optional_parts():
    report = markov.mixing_report(1, chi_trials=50, seed=0)
    assert report.group_order == 1444
    assert [e.t for e in report.chi_decay] == [1, 5, 10, 25]
    assert all(e.trials == 50 for e in report.chi_decay)
    doc = report.to_json()
    assert doc["group_order"] == "1444"
    assert {"t", "r", "tv_lower"} == set(doc["r_curve"][0])
    assert doc["chi_decay"][0]["trials"] == 50
    with pytest.raises(ValueError):
        markov.mixing_report(0)
