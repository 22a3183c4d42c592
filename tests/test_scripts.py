"""Run each script in `scripts/` in-process with small arguments."""

import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np

import pytest

from gasketpile import group, markov
from gasketpile.gasket import build_gasket
from gasketpile.spectral import distinguishing_statistic

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    """Load scripts/<name>.py as a module and return main()'s exit code
    with `argv` as its command line."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def test_group_survey(monkeypatch, capsys):
    assert run_script(monkeypatch, "group_survey", "--max-level", "3", "--theorem-max-level", "2") == 0
    out = capsys.readouterr().out
    assert "invariant factors 2 2 6 462 2310" in out
    assert "three-copy decomposition at level 2: pass" in out


def test_group_survey_prints_every_digit_at_level_8(monkeypatch, capsys):
    # The level-8 order has 4,485 digits, over `str`'s default limit of 4,300.
    assert run_script(monkeypatch, "group_survey", "--max-level", "8", "--theorem-max-level", "0") == 0
    lines = capsys.readouterr().out.splitlines()
    order = group.digits(group.sandpile_group_order(build_gasket(8)))
    assert len(order) == 4_485
    assert f"  group order      {order}" in lines
    assert f"  spanning trees   {group.digits(group.tau_recursion(8))} (recursion == matrix-tree)" in lines


def test_mixing_table(monkeypatch, capsys):
    # Level 2's group (25.6M elements) is over the group-order cap: "-".
    argv = ["--max-level", "2", "--exact-levels", "2", "--trials", "200", "--seed", "1"]
    seeded = []
    trajectory_rng = markov.trajectory_rng

    def spy(seed, index):
        seeded.append(index)
        return trajectory_rng(seed, index)

    monkeypatch.setattr(markov, "trajectory_rng", spy)
    assert run_script(monkeypatch, "mixing_table", *argv) == 0
    # One read of each trajectory per level serves all four times.
    assert sorted(seeded) == sorted(list(range(200)) * 2)
    monkeypatch.setattr(markov, "trajectory_rng", trajectory_rng)
    table, decay = capsys.readouterr().out.split("\n\n")
    rows = {int(line.split()[0]): line.split() for line in table.splitlines()[2:]}
    assert rows[1] == ["1", "6", "0.857143", "0", "47", "9"]
    assert rows[2][-1] == "-"
    points = {tuple(map(int, line.split()[:2])): line.split()[2:] for line in decay.splitlines()[2:]}
    assert sorted(points) == [(level, t) for level in (1, 2) for t in (1, 5, 10, 25)]
    assert points[(2, 5)] == ["0.05333", "0.03964", "0.09537"]
    # The same row from the toppled walk's 200 trajectories.
    graph = build_gasket(2)
    values = np.array([
        distinguishing_statistic(graph, markov.run_chain(graph, 5, seed=1, index=i).chips)
        for i in range(200)
    ])
    stderr = values.std(ddof=1) / math.sqrt(len(values))
    assert points[(2, 5)][:2] == [f"{values.mean():.5f}", f"{stderr:.5f}"]


def test_mixing_table_refuses_trials_over_the_draw_budget(monkeypatch, capsys):
    # 2 levels x 10^7 trials x 41 steps is 8.2 * 10^8 draws: refused before
    # the table and before any draw.
    def no_draws(*args, **kwargs):
        raise AssertionError("a refused request drew")

    monkeypatch.setattr(markov, "mixing_report", no_draws)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as refused:
        run_script(monkeypatch, "mixing_table", "--max-level", "2", "--trials", "10000000")
    assert time.perf_counter() - start < 1
    assert refused.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "exceed the Monte Carlo budget" in out.err


def test_mixing_table_refuses_negative_trials(monkeypatch, capsys):
    with pytest.raises(SystemExit) as refused:
        run_script(monkeypatch, "mixing_table", "--max-level", "1", "--trials", "-1")
    assert refused.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--trials must be >= 0" in out.err


def test_render_identities(monkeypatch, capsys, tmp_path):
    code = run_script(monkeypatch, "render_identities", "--min-level", "2", "--max-level", "3", "--out", str(tmp_path))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["identity_level2.ppm", "identity_level3.ppm"]
    assert "level 3: 42 vertices, chips 2x18 3x24" in capsys.readouterr().out
    code = run_script(monkeypatch, "render_identities", "--min-level", "0", "--max-level", "1", "--out", str(tmp_path / "low"))
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "low").iterdir()) == ["identity_level0.ppm", "identity_level1.ppm"]
    assert "level 0: 3 vertices, chips 2x3 ->" in capsys.readouterr().out

