import argparse
import gc
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
import warnings

import pytest

from gasketpile import cli, gasket, markov
from gasketpile.cli import main
from gasketpile.gasket import CORNER_NAMES, build_gasket, parse_boundary
from gasketpile.group import digits, sandpile_group_order, tau_recursion
from gasketpile.render import (
    BACKGROUND,
    MARGIN,
    OVERFULL_COLOR,
    PALETTE,
    RADIUS_FRAC,
    RenderSpec,
    color_for,
    render,
    render_buffer,
    render_ppm,
    render_svg,
)
from gasketpile.sandpile import (
    config,
    config_from_json,
    config_to_json,
    config_to_text,
    identity,
    is_recurrent_burning,
    max_config,
    stabilize,
)
from gasketpile.selfsim import build_tile
from gasketpile.spectral import distinguishing_statistic

from test_group import closed_form_invariants

G1 = build_gasket(1)


def ppm_pixels(data: bytes):
    assert data.startswith(b"P6\n")
    header, _, rest = data.partition(b"\n255\n")
    width, height = map(int, header.split(b"\n")[1].split())
    assert len(rest) == 3 * width * height
    return width, height, {tuple(rest[i : i + 3]) for i in range(0, len(rest), 3)}


def test_color_mapping():
    assert color_for(0) == (200, 200, 200)
    assert color_for(2) == PALETTE[2]
    assert color_for(4) == OVERFULL_COLOR
    assert color_for(99) == OVERFULL_COLOR


def test_render_bytes_are_deterministic():
    conf = identity(build_gasket(2))
    assert render(conf) == render(conf)
    assert render(conf, RenderSpec(fmt="svg")) == render(conf, RenderSpec(fmt="svg"))
    with pytest.raises(ValueError):
        render(conf, RenderSpec(fmt="png"))


def test_identity_render_uses_only_red_and_blue():
    conf = identity(build_gasket(2))
    _, _, colors = ppm_pixels(render_ppm(conf))
    assert colors == {BACKGROUND, PALETTE[2], PALETTE[3]}


def test_max_config_renders_blue():
    _, _, colors = ppm_pixels(render_ppm(max_config(G1)))
    assert colors == {BACKGROUND, PALETTE[3]}


def test_overfull_vertices_render_black():
    conf = config(G1, (7, 0, 1, 2, 3, 0))
    _, _, colors = ppm_pixels(render_ppm(conf))
    assert colors == {BACKGROUND, OVERFULL_COLOR} | {PALETTE[c] for c in (0, 1, 2, 3)}


def test_ppm_dimensions_scale():
    small = render_ppm(max_config(G1), RenderSpec(scale=6))
    large = render_ppm(max_config(G1), RenderSpec(scale=24))
    w_small = int(small.split(b"\n")[1].split()[0])
    w_large = int(large.split(b"\n")[1].split()[0])
    assert w_large > w_small


def loop_render_ppm(conf, scale):
    """Reference renderer: paints every vertex's disc pixel by pixel in
    vertex order, so where discs overlap the highest vertex index wins."""
    side = 1 << conf.graph.level
    width = math.ceil(side * scale) + 2 * MARGIN + 1
    height = math.ceil(side * scale * math.sqrt(3) / 2) + 2 * MARGIN + 1
    rows = bytearray(BACKGROUND * width * height)
    radius = max(1.0, scale * RADIUS_FRAC)
    r_int = math.ceil(radius)
    half_sqrt3 = math.sqrt(3) / 2
    for (a, b), chips in zip(conf.graph.points.tolist(), conf.chips):
        color = bytes(color_for(chips))
        px = round((a + b / 2) * scale + MARGIN)
        py = height - 1 - (round(b * half_sqrt3 * scale) + MARGIN)
        for dy in range(-r_int, r_int + 1):
            for dx in range(-r_int, r_int + 1):
                iy, ix = py + dy, px + dx
                if dx * dx + dy * dy <= radius * radius and 0 <= iy < height and 0 <= ix < width:
                    off = 3 * (iy * width + ix)
                    rows[off : off + 3] = color
    return f"P6\n{width} {height}\n255\n".encode() + bytes(rows)


# Discs overlap up to scale 4 (so the highest index must win) and are apart
# from scale 5; at scale 30 the radius 9.9 exceeds MARGIN, so the raster edge
# clips them.
@pytest.mark.parametrize("scale", [1, 2, 3, 4, 5, 12, 30])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("boundary", ["normal", "corner_sink:top"])
def test_ppm_matches_the_pixel_loop(boundary, level, scale):
    graph = build_gasket(level, parse_boundary(boundary))
    rng = random.Random(f"ppm:{boundary}:{level}:{scale}")
    for _ in range(3):
        conf = config(graph, [rng.randrange(6) for _ in range(graph.n_vertices)])
        assert render_ppm(conf, RenderSpec(scale=scale)) == loop_render_ppm(conf, scale)


def test_a_ppm_render_peaks_below_ten_bytes_per_pixel():
    # The owner map, the file's array and the returned bytes take 8 bytes
    # per pixel at level 6; index temporaries scale with the discs only.
    conf = identity(build_gasket(6))
    tracemalloc.start()
    try:
        data = render_ppm(conf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width, height, _ = ppm_pixels(data)
    assert peak < 10 * width * height


def test_render_buffer_holds_the_rendered_bytes():
    conf = identity(build_gasket(3))
    for fmt in ("ppm", "svg"):
        spec = RenderSpec(fmt=fmt, scale=5)
        assert bytes(render_buffer(conf, spec)) == render(conf, spec)
    assert render(conf) == render_ppm(conf)
    with pytest.raises(ValueError, match="format must be"):
        render_buffer(conf, RenderSpec(fmt="png"))


def test_a_cli_render_writes_the_raster_without_a_bytes_copy(tmp_path, capsys):
    # The owner map and the file's array take 5 bytes per pixel at level 6;
    # a copy into bytes would add 3 more.
    main(["sandpile", "identity", "--level", "6"])
    capsys.readouterr()
    out_path = tmp_path / "id.ppm"
    tracemalloc.start()
    try:
        assert main(["sandpile", "identity", "--level", "6", "--render", str(out_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width, height, _ = ppm_pixels(out_path.read_bytes())
    assert out_path.read_bytes() == render_ppm(identity(build_gasket(6)))
    assert peak < 8 * width * height


def test_svg_structure():
    conf = identity(G1)
    text = render_svg(conf).decode()
    assert text.startswith("<svg xmlns=")
    assert text.count("<circle") == 6
    assert 'fill="rgb(60,90,220)"' in text or 'fill="rgb(220,50,50)"' in text


# ---------------------------------------------------------------------------
# Command line round trips.
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_gasket_json(capsys):
    code, out = run_cli(capsys, "gasket", "--level", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 1
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 9
    assert sum(doc["beta"]) == 6


def test_cli_gasket_human(capsys):
    code, out = run_cli(capsys, "gasket", "--level", "0")
    assert code == 0
    assert "vertices 3 gasket-edges 3 sink-degree 6" in out


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("boundary", ["normal", *(f"corner_sink:{name}" for name in CORNER_NAMES)])
def test_cli_gasket_counts_the_edges_from_the_degrees(capsys, level, boundary):
    code, out = run_cli(capsys, "gasket", "--level", str(level), "--boundary", boundary)
    assert code == 0
    graph = build_gasket(level, gasket.parse_boundary(boundary))
    assert f"gasket-edges {len(gasket.graph_to_json(graph)['edges'])} sink-degree" in out


def test_cli_sandpile_stabilize_from_file(tmp_path, capsys):
    path = tmp_path / "conf.txt"
    path.write_text("0 normal 4 0 0\n")
    code, out = run_cli(capsys, "sandpile", "stabilize", "--input", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["chips"] == [0, 1, 1]
    assert doc["odometer"] == [1, 0, 0]


def test_cli_sandpile_stabilize_accepts_json_input(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"level": 0, "boundary": "normal", "chips": [5, 5, 5]}))
    code, out = run_cli(capsys, "sandpile", "stabilize", "--input", str(path))
    assert code == 0
    level, boundary, *chips = out.splitlines()[0].split()
    assert (level, boundary) == ("0", "normal")
    assert all(int(c) < 4 for c in chips)


def test_cli_sandpile_stabilize_frozen_corners(tmp_path, capsys):
    """`--frozen` keeps a corner from toppling: the output is `stabilize`
    with that corner frozen, and its odometer entry is 0.  On the normal
    boundary the doubled (2,1,1) tile then leaves 8 chips on the lower-left
    corner, not the 14 of the doubling, whose other corners have no sink
    edges: the doubling lives on `corner_sink:lower_left`."""
    tile = build_tile(1, 2, 1, 1)
    doubled = config(tile.graph, [2 * c for c in tile.chips])
    path = tmp_path / "doubled.txt"
    path.write_text(config_to_text(doubled) + "\n")
    for names in (["lower_left"], ["lower_left", "top"]):
        frozen = [tile.graph.corner_index(name) for name in names]
        flags = [arg for name in names for arg in ("--frozen", name)]
        code, out = run_cli(capsys, "sandpile", "stabilize", "--input", str(path), *flags, "--json")
        assert code == 0
        doc = json.loads(out)
        result, odometer = stabilize(doubled, frozen=frozen)
        assert doc == {"config": config_to_json(result), "odometer": list(odometer)}
        assert all(doc["odometer"][v] == 0 for v in frozen)
        if len(names) == 1:
            assert doc["config"]["chips"][frozen[0]] == 8


def test_cli_sandpile_stabilize_refuses_to_freeze_the_sink(tmp_path, capsys):
    graph = build_gasket(1, gasket.corner_sink("lower_left"))
    path = tmp_path / "sunk.txt"
    path.write_text(config_to_text(config(graph, [3] * graph.n_vertices)) + "\n")
    with pytest.raises(SystemExit) as info:
        main(["sandpile", "stabilize", "--input", str(path), "--frozen", "lower_left"])
    assert info.value.code == 2
    assert "corner lower_left is the sink" in capsys.readouterr().err


def test_cli_identity_and_tile_identity_agree(capsys):
    code, text_out = run_cli(capsys, "sandpile", "identity", "--level", "2")
    assert code == 0
    assert text_out.strip() == "2 normal 2 3 2 3 2 3 2 2 3 2 2 2 3 3 2"
    code, tile_out = run_cli(capsys, "selfsim", "id", "--level", "2")
    assert code == 0
    assert tile_out == text_out


def test_cli_tile_identity_runs_at_level_1(capsys):
    code, tile_out = run_cli(capsys, "selfsim", "id", "--level", "1")
    assert code == 0
    assert tile_out.strip() == "1 normal 2 2 2 2 2 2"
    with pytest.raises(SystemExit) as info:
        main(["selfsim", "id", "--level", "0"])
    assert info.value.code == 2


@pytest.mark.parametrize("boundary", ["normal", *(f"corner_sink:{name}" for name in CORNER_NAMES)])
def test_cli_identity_runs_at_level_8_on_every_boundary(boundary, capsys):
    # The identity is built from tiles and certified, with no avalanche
    # but its burning test, so every boundary takes the general cap.
    start = time.perf_counter()
    code, out = run_cli(capsys, "sandpile", "identity", "--level", "8", "--boundary", boundary)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    level, token, *chips = out.split()
    assert (level, token) == ("8", boundary)
    assert set(chips) <= {"1", "2", "3"}


def test_cli_identity_render_to_file(tmp_path, capsys):
    out_path = tmp_path / "id.ppm"
    code, _ = run_cli(
        capsys, "sandpile", "identity", "--level", "1", "--render", str(out_path)
    )
    assert code == 0
    assert out_path.read_bytes().startswith(b"P6\n")


def test_cli_identity_refused_render_leaves_no_file(tmp_path, capsys, monkeypatch):
    from gasketpile import render as render_module

    monkeypatch.setattr(render_module, "MAX_PIXELS", 10)
    out_path = tmp_path / "id.ppm"
    assert main(["sandpile", "identity", "--level", "1", "--render", str(out_path)]) == 2
    assert "pixels, above the limit of 10; no scale fits" in capsys.readouterr().err
    assert not out_path.exists()
    # The refusal names the largest scale that fits, and that scale renders.
    monkeypatch.setattr(render_module, "MAX_PIXELS", 10**4)
    assert main(["sandpile", "identity", "--level", "3", "--render", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert "a 113 x 101 raster has 11413 pixels, above the limit of 10000" in err
    scale = int(err.split("the largest scale that fits is ")[1])
    conf_path = tmp_path / "id.txt"
    conf_path.write_text(config_to_text(identity(build_gasket(3))))
    render_args = ["render", "--input", str(conf_path), "--out", str(out_path), "--scale"]
    assert main([*render_args, str(scale)]) == 0
    width, height = map(int, out_path.read_bytes().split(b"\n")[1].split())
    assert width * height <= 10**4
    out_path.unlink()
    assert main([*render_args, str(scale + 1)]) == 2
    assert f"the largest scale that fits is {scale}" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_burn_exit_codes(tmp_path, capsys):
    good = tmp_path / "max.txt"
    good.write_text(config_to_text(max_config(G1)))
    assert run_cli(capsys, "sandpile", "burn", "--input", str(good))[0] == 0
    bad = tmp_path / "zero.txt"
    bad.write_text("1 normal 0 0 0 0 0 0")
    code, out = run_cli(capsys, "sandpile", "burn", "--input", str(bad))
    assert code == 1
    assert "recurrent False" in out


@pytest.mark.parametrize("check", ["doubling", "transport", "junction"])
def test_cli_selfsim_verify(check, capsys):
    code, out = run_cli(capsys, "selfsim", "verify", "--level", "1", "--check", check, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["level"] == 1


def test_cli_group_snf(capsys):
    code, out = run_cli(capsys, "group", "snf", "--level", "2")
    assert code == 0
    assert "group order 25613280" in out
    assert "invariant factors 2 2 6 462 2310" in out
    code, out = run_cli(capsys, "group", "snf", "--level", "0", "--json")
    doc = json.loads(out)
    assert doc["invariant_factors"] == ["5", "10"]
    assert doc["determinant"] == "50"


def test_cli_group_check_theorem(capsys):
    code, out = run_cli(capsys, "group", "check-theorem", "--level", "2", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_cli_group_commands_run_at_level_9(capsys):
    # One class representative per stage keeps the local Smith forms to a
    # fraction of a second at level 9.
    start = time.perf_counter()
    code, out = run_cli(capsys, "group", "snf", "--level", "9", "--json")
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [str(d) for d in closed_form_invariants(9)]
    code, out = run_cli(capsys, "group", "check-theorem", "--level", "9")
    assert code == 0 and out.startswith("decomposition level 9: pass")
    assert time.perf_counter() - start < 10.0


def test_cli_group_snf_runs_at_the_cap_of_10(capsys):
    code, out = run_cli(capsys, "group", "snf", "--level", "10", "--json")
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [str(d) for d in closed_form_invariants(10)]


def test_cli_group_tau_methods_agree(capsys):
    code, rec = run_cli(capsys, "group", "tau", "--level", "3")
    assert code == 0
    code, mt = run_cli(capsys, "group", "tau", "--level", "3", "--method", "matrix-tree")
    assert code == 0
    assert rec == mt
    assert rec.strip() == "803355125990400000"


def test_cli_spectral_eigs(capsys):
    code, out = run_cli(capsys, "spectral", "eigs", "--level", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cell_eigenvalue"] == "5/8"
    assert doc["pair_eigenvalue"] == "1/4"
    assert doc["cells"] == 3
    code, out = run_cli(capsys, "spectral", "eigs", "--level", "1", "--all", "--json")
    assert code == 0
    assert len(json.loads(out)["eigenvalues"]) == 1444


def test_cli_spectral_distance(capsys):
    code, out = run_cli(capsys, "spectral", "distance", "--level", "0", "--t", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group_order"] == "50"
    assert math.isclose(doc["l2"] ** 2, 49 / 50, abs_tol=1e-12)


def test_cli_markov_simulate_is_seed_deterministic(capsys):
    args = ("markov", "simulate", "--level", "1", "--steps", "40", "--seed", "3", "--json")
    code, first = run_cli(capsys, *args)
    assert code == 0
    code, second = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["steps"] == 40 and doc["seed"] == 3
    assert -1 <= doc["chi"] <= 1


def test_cli_markov_simulate_one_long_trajectory_at_level_6(capsys):
    # One stabilization of the draw counts' class, not one per step.
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "markov", "simulate", "--level", "6", "--steps", "20000", "--seed", "1", "--json"
    )
    assert time.perf_counter() - start < 3.0
    assert code == 0
    doc = json.loads(out)
    conf = config_from_json(doc["config"])
    assert conf.is_stable and is_recurrent_burning(conf)
    assert doc["chi"] == distinguishing_statistic(conf.graph, conf.chips)


def test_cli_markov_simulate_trials(capsys):
    code, out = run_cli(
        capsys,
        *("markov", "simulate", "--level", "1", "--steps", "2", "--trials", "30", "--json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 30
    assert doc["expected"] == pytest.approx((1 - 6 / 7) ** 2)


def test_cli_markov_report(capsys):
    code, out = run_cli(capsys, "markov", "report", "--level", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["upper_bound_t"] == 125
    assert doc["lower_bound_t"] == 0
    assert doc["group_order"] == "25613280"


def test_cli_markov_report_with_one_trial_prints_strict_json(capsys):
    # One trial has no standard error: the library keeps inf, the document
    # writes null, since strict parsers refuse the Infinity token.
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    code, out = run_cli(capsys, "markov", "report", "--level", "2", "--trials", "1", "--json")
    assert code == 0
    doc = json.loads(out, parse_constant=refuse)
    assert [e["stderr"] for e in doc["chi_decay"]] == [None] * len(doc["chi_decay"])
    assert markov.estimate_chi_decay(2, 1, 1).stderr == math.inf


def test_cli_markov_report_prints_the_full_order_at_level_8(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default, whatever ran before
    try:
        code, out = run_cli(capsys, "markov", "report", "--level", "8", "--json")
        assert code == 0
        text = json.loads(out)["group_order"]
        assert len(text) > 4300
        assert text == digits(sandpile_group_order(build_gasket(8)))
    finally:
        sys.set_int_max_str_digits(before)


def test_cli_render_formats(tmp_path, capsys):
    conf_path = tmp_path / "conf.txt"
    conf_path.write_text(config_to_text(identity(G1)))
    ppm_path = tmp_path / "out.ppm"
    code, _ = run_cli(capsys, "render", "--input", str(conf_path), "--out", str(ppm_path))
    assert code == 0
    assert ppm_path.read_bytes().startswith(b"P6\n")
    svg_path = tmp_path / "out.svg"
    code, _ = run_cli(capsys, "render", "--input", str(conf_path), "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_bytes().startswith(b"<svg")


@pytest.mark.parametrize("scale", ["0", "-3"])
def test_cli_render_refuses_a_scale_below_one(scale, tmp_path, capsys):
    conf_path = tmp_path / "conf.txt"
    conf_path.write_text(config_to_text(identity(G1)))
    out_path = tmp_path / "out.svg"
    with pytest.raises(SystemExit) as info:
        main(["render", "--input", str(conf_path), "--out", str(out_path), "--scale", scale])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--scale must be >= 1" in err
    assert_subcommand_refusal(err, ["render"])
    assert not out_path.exists()


def test_oversized_rasters_are_refused_before_any_buffer(tmp_path, capsys, monkeypatch):
    from gasketpile import render as render_module

    # SVG output has no raster and no limit.
    assert render(max_config(G1), RenderSpec(fmt="svg", scale=10**5)).startswith(b"<svg")
    conf_path = tmp_path / "conf.txt"
    conf_path.write_text(config_to_text(identity(G1)))
    level8 = max_config(build_gasket(8))

    class Allocated(Exception):
        pass

    def allocate(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(render_module, "_disc_stencil", allocate)
    for name in ("arange", "empty", "frombuffer", "full", "zeros"):
        monkeypatch.setattr(render_module.np, name, allocate)
    # Level 8 at scale 1000 would be about 5.7e10 pixels.
    with pytest.raises(ValueError, match=r"has \d+ pixels, above the limit of 100000000"):
        render_ppm(level8, RenderSpec(scale=1000))
    # The default scale at level 8 (8.3e6 pixels) gets past the check.
    with pytest.raises(Allocated):
        render_ppm(level8)
    out_path = tmp_path / "out.ppm"
    code = main(["render", "--input", str(conf_path), "--out", str(out_path), "--scale", "100000"])
    assert code == 2
    assert "pixels, above the limit" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_closes_its_input_file(tmp_path, capsys):
    path = tmp_path / "max.txt"
    path.write_text(config_to_text(max_config(G1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sandpile", "burn", "--input", str(path)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# Every command that takes --level: its other required arguments and the
# lowest level it accepts.  The highest is 10 for all of them.
LEVEL_COMMANDS = {
    ("gasket",): ((), 0),
    ("sandpile", "identity"): (("--boundary", "corner_sink:lower_left"), 0),
    ("selfsim", "id"): ((), 1),
    ("selfsim", "verify"): (("--check", "junction"), 1),
    ("group", "snf"): ((), 0),
    ("group", "check-theorem"): ((), 1),
    ("group", "tau"): (("--method", "matrix-tree"), 0),
    ("spectral", "eigs"): (("--all",), 1),
    ("spectral", "distance"): (("--t", "1"), 0),
    ("markov", "simulate"): (("--steps", "1", "--trials", "2"), 1),
    ("markov", "report"): (("--trials", "10"), 1),
}


def level_commands(parser, prefix=()):
    """The subcommand paths of `parser` that declare `--level`."""
    for action in parser._actions:
        if "--level" in action.option_strings:
            yield prefix
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from level_commands(sub, (*prefix, name))


def test_the_level_table_lists_every_level_command():
    assert sorted(level_commands(cli.build_parser())) == sorted(LEVEL_COMMANDS)


def command_paths(parser, prefix=()):
    """Every command path of `parser`, groups and leaves."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*prefix, name)
                yield from command_paths(sub, (*prefix, name))


# Every help and usage text, and refusals by argparse and by the handlers.
PARSER_CASES = [
    [], ["--help"], ["bogus"], ["--level", "2", "gasket"], ["gasket", "--level", "2", "sandpile"],
    ["--", "gasket", "--level", "0"], ["group", "--help", "snf"],
    ["gasket", "--level", "11"], ["group", "snf", "--level", "-1"], ["selfsim", "id", "--level", "x"],
    ["markov", "simulate", "--level", "8", "--steps", "1"],
    ["markov", "report", "--level", "8", "--trials", "49000"],
    ["render", "--out", "unused.ppm", "--scale", "0"],
    *([*path, *extra] for path in command_paths(cli.build_parser()) for extra in ([], ["--help"], ["--bogus"])),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_parser_for_one_command_prints_what_the_full_parser_prints(argv, monkeypatch, capsys):
    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    lazy = outcome()
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: build_parser())
    assert lazy == outcome()


def test_the_parser_declares_only_the_commands_argv_names():
    assert list(level_commands(cli.build_parser(["group", "snf", "--level", "3"]))) == [("group", "snf")]
    assert list(level_commands(cli.build_parser(["markov", "--help"]))) == []
    assert sorted(level_commands(cli.build_parser(["selfsim", "id", "verify"]))) == [
        ("selfsim", "id"), ("selfsim", "verify")
    ]


@pytest.mark.parametrize("command", LEVEL_COMMANDS, ids=" ".join)
def test_cli_refuses_levels_out_of_range_before_any_build(command, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a refused level built a gasket")

    monkeypatch.setattr(gasket, "_build_gasket", no_build)
    extra, low = LEVEL_COMMANDS[command]
    below = "level 0 has no level-1 cells" if low else "a level is not negative"
    for level, why in ((11, "level 11 builds a gasket of 265,722 vertices"), (low - 1, below)):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main([*command, "--level", str(level), *extra])
        assert time.perf_counter() - start < 1.0
        assert info.value.code == 2
        assert f"argument --level: must be between {low} and 10: {why}" in capsys.readouterr().err


def assert_subcommand_refusal(err, command):
    """A handler's refusal prints its subcommand's usage and name, as the
    argparse refusals do."""
    name = " ".join(["gasketpile", *command])
    assert err.startswith(f"usage: {name} ")
    assert f"{name}: error: " in err


def test_cli_refuses_a_single_trajectory_above_level_7(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(["markov", "simulate", "--level", "8", "--steps", "1"])
    assert time.perf_counter() - start < 1.0
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--level must be between 1 and 7 for one trajectory" in err and "23 s at level 8" in err
    assert_subcommand_refusal(err, ["markov", "simulate"])


@pytest.mark.parametrize(
    "argv",
    [["spectral", "distance", "--t", "1"], ["spectral", "eigs", "--all"]],
    ids=["spectral-distance", "spectral-eigs-all"],
)
def test_cli_spectral_commands_refuse_large_groups_quickly(argv, capsys):
    # The group order comes from the sparse factorization, so the
    # group-order cap refuses at once even where the order has thousands
    # of digits.
    for level in ("5", "8"):
        start = time.perf_counter()
        assert main([*argv, "--level", level]) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeds the group-order cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "level,message",
    [
        ("3", "group order 80490526711142400000 exceeds the group-order cap 1000000"),
        ("4", "group order of 190 bits exceeds the group-order cap of 20 bits"),
    ],
)
def test_cli_spectral_refusal_names_order_and_cap_in_one_unit(level, message, capsys):
    # Below 10**30 the order is printed in full, against the cap in full;
    # above it, both sides are bit lengths.
    assert main(["spectral", "eigs", "--all", "--level", level]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_markov_trials_run_at_level_8(capsys):
    # The trials are evaluated from their draws, without the identity.
    start = time.perf_counter()
    assert main(["markov", "report", "--level", "8", "--trials", "1000", "--json"]) == 0
    assert time.perf_counter() - start < 5.0
    doc = json.loads(capsys.readouterr().out)
    assert [e["trials"] for e in doc["chi_decay"]] == [1000] * 4
    assert main(["markov", "simulate", "--level", "8", "--steps", "50", "--trials", "3"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["markov", "simulate", "--level", "1", "--steps", "10000000000", "--trials", "2"],
        ["markov", "simulate", "--level", "1", "--steps", "1000000000"],
        ["markov", "simulate", "--level", "8", "--steps", "0", "--trials", "200001"],
        ["markov", "report", "--level", "8", "--trials", "49000"],
    ],
    ids=["simulate-trials", "simulate-chain", "simulate-many-trajectories", "report"],
)
def test_cli_refuses_monte_carlo_requests_over_the_draw_budget(argv, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert time.perf_counter() - start < 1.0
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed the Monte Carlo budget" in captured.err
    assert_subcommand_refusal(captured.err, argv[:2])


def test_the_draw_budget_counts_draws_and_trajectories(monkeypatch, capsys):
    # simulate: steps x trials draws and `trials` trajectories; report:
    # trials x sum(CHI_TIMES) draws over trials x len(CHI_TIMES) trajectories,
    # one charge per time, since each trajectory's draws are counted per time.
    monkeypatch.setattr(cli, "_DRAW_BUDGET", 2 * (3 + cli._TRIAL_DRAWS))
    assert main(["markov", "simulate", "--level", "1", "--steps", "3", "--trials", "2"]) == 0
    with pytest.raises(SystemExit):
        main(["markov", "simulate", "--level", "1", "--steps", "4", "--trials", "2"])
    per_trial = sum(markov.CHI_TIMES) + len(markov.CHI_TIMES) * cli._TRIAL_DRAWS
    monkeypatch.setattr(cli, "_DRAW_BUDGET", 2 * per_trial)
    assert main(["markov", "report", "--level", "1", "--trials", "2"]) == 0
    with pytest.raises(SystemExit):
        main(["markov", "report", "--level", "1", "--trials", "3"])
    assert capsys.readouterr().err.count("exceed the Monte Carlo budget") == 2


def test_cli_group_commands_run_at_level_6(capsys):
    # The invariant factors come from the local Smith forms.
    start = time.perf_counter()
    assert main(["group", "snf", "--level", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["level", "boundary", "invariant_factors", "determinant"]
    assert doc["determinant"] == str(sandpile_group_order(build_gasket(6)))
    assert main(["group", "check-theorem", "--level", "6"]) == 0
    assert capsys.readouterr().out == "decomposition level 6: pass (convention primary)\n"
    assert time.perf_counter() - start < 5.0


def test_cli_group_snf_prints_the_level_8_order_in_full(capsys):
    # The order has 4485 digits, above Python's default int -> str limit.
    assert main(["group", "snf", "--level", "8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["determinant"] == digits(sandpile_group_order(build_gasket(8)))
    assert len(doc["determinant"]) == 4485
    assert digits(math.prod(int(d) for d in doc["invariant_factors"])) == doc["determinant"]


def test_cli_matrix_tree_tau_prints_the_recursion_digits_at_level_8(capsys):
    assert main(["group", "tau", "--level", "8", "--method", "matrix-tree"]) == 0
    text = capsys.readouterr().out.strip()
    assert len(text) == 4481
    assert main(["group", "tau", "--level", "8"]) == 0
    assert capsys.readouterr().out.strip() == text


@pytest.mark.parametrize(
    "level,check", [(6, "transport"), (8, "transport"), (8, "junction"), (8, "doubling")]
)
def test_cli_selfsim_checks_run_quickly(level, check, capsys):
    # Each verdict is burning tests and a lattice solve, not an avalanche.
    name = {"transport": "corner_transport", "junction": "junction_invariance"}.get(check, check)
    start = time.perf_counter()
    assert main(["selfsim", "verify", "--level", str(level), "--check", check]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out.strip() == f"{name} level {level}: pass"


def test_cli_refuses_a_wrong_length_before_building_the_gasket(tmp_path, capsys):
    """At level 10**8 even the vertex count would take minutes."""
    commands = (["sandpile", "burn"], ["sandpile", "stabilize"], ["render", "--out", str(tmp_path / "never.ppm")])
    for level, argv in itertools.product((11, 10**8), commands):
        doc = {"level": level, "boundary": "normal", "chips": [1, 2, 3]}
        for path, text in ((tmp_path / "short.txt", f"{level} normal 1 2 3"), (tmp_path / "short.json", json.dumps(doc))):
            path.write_text(text)
            start = time.perf_counter()
            assert main([*argv, "--input", str(path)]) == 2
            assert time.perf_counter() - start < 1.0
            assert "chip vector length must match vertex count" in capsys.readouterr().err


def test_cli_tau_recursion_keeps_the_general_cap(capsys):
    assert main(["group", "tau", "--level", "6"]) == 0
    assert capsys.readouterr().out.strip() == str(tau_recursion(6))


def test_cli_group_tau_prints_every_digit_at_level_8(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default, whatever ran before
    try:
        assert main(["group", "tau", "--level", "8"]) == 0
        text = capsys.readouterr().out.strip()
        assert len(text) == 4481 and text.isdigit()
        assert int(text[-30:]) == tau_recursion(8) % 10**30
        assert main(["group", "tau", "--level", "8", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["spanning_trees"] == text
        # The conversion leaves the process's limit as it was.
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_cli_reports_bad_input_as_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 normal 1 2")  # wrong vector length
    code = main(["sandpile", "stabilize", "--input", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sandpile", "burn", "--input", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"level": 0, "boundary": "normal"}, "chips"),
        ({"level": 0, "boundary": "normal", "chips": 5}, "chips"),
        ({"level": 0, "boundary": 7, "chips": [0, 0, 0]}, "boundary"),
        ({"level": 0, "boundary": "normal", "chips": [True, None, 0]}, "chips"),
        ({"level": 0, "boundary": "normal", "chips": [1.7, 0, 0]}, "chips"),
        ({"level": 0.9, "boundary": "normal", "chips": [0, 0, 0]}, "level"),
    ],
    ids=["no-chips", "scalar-chips", "int-boundary", "bool-null-chips", "float-chips", "float-level"],
)
def test_cli_refuses_malformed_json_configurations(tmp_path, capsys, doc, field):
    # Exit 1 would mean "not recurrent"; a malformed document is a usage error.
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(doc))
    assert main(["sandpile", "burn", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"`{field}`" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "distance", "--level", "0", "--t", "-1"],
        ["markov", "simulate", "--level", "1", "--steps", "-5", "--trials", "3"],
        ["markov", "simulate", "--level", "1", "--steps", "-5"],
    ],
    ids=["spectral-distance", "markov-simulate-trials", "markov-simulate-chain"],
)
def test_cli_rejects_negative_step_counts(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["markov", "simulate", "--level", "1", "--steps", "2", "--trials", "0"], "--trials must be >= 1"),
        (["markov", "simulate", "--level", "1", "--steps", "2", "--trials", "-3"], "--trials must be >= 1"),
        (["markov", "report", "--level", "1", "--trials", "-1"], "--trials must be >= 0"),
    ],
    ids=["simulate-zero", "simulate-negative", "report-negative"],
)
def test_cli_refuses_bad_trial_counts(argv, reason, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err
    assert_subcommand_refusal(captured.err, argv[:2])
