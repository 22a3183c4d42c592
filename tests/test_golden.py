"""Golden outputs of the README "Command line" examples.

Each command runs in-process through `cli.main` inside a temporary directory.
Its stdout and any file it writes must equal, byte for byte, the files under
`tests/golden/`. `conf.txt` is the stdout of `sandpile identity --level 3`,
as in `gasketpile sandpile identity --level 3 > conf.txt`.
"""

import io
import sys
from pathlib import Path

import pytest

from gasketpile.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (golden name, argv, stdin, file the command writes)
COMMANDS = [
    ("gasket", ["gasket", "--level", "2", "--json"], None, None),
    ("sandpile_identity", ["sandpile", "identity", "--level", "3", "--render", "id3.ppm"], None, "id3.ppm"),
    ("sandpile_stabilize", ["sandpile", "stabilize"], "0 normal 4 0 0\n", None),
    ("sandpile_burn", ["sandpile", "burn", "--input", "conf.txt"], None, None),
    ("selfsim_id", ["selfsim", "id", "--level", "4"], None, None),
    ("selfsim_verify_doubling", ["selfsim", "verify", "--level", "2", "--check", "doubling"], None, None),
    ("group_snf", ["group", "snf", "--level", "2"], None, None),
    ("group_check_theorem", ["group", "check-theorem", "--level", "3"], None, None),
    ("group_tau", ["group", "tau", "--level", "5", "--method", "matrix-tree"], None, None),
    ("spectral_eigs", ["spectral", "eigs", "--level", "2"], None, None),
    ("spectral_distance", ["spectral", "distance", "--level", "1", "--t", "47"], None, None),
    (
        "markov_simulate",
        ["markov", "simulate", "--level", "2", "--steps", "1000", "--trials", "100", "--seed", "7"],
        None,
        None,
    ),
    ("markov_report", ["markov", "report", "--level", "3", "--json"], None, None),
    ("render", ["render", "--input", "conf.txt", "--out", "conf.svg"], None, "conf.svg"),
]


@pytest.mark.parametrize(
    "name, argv, stdin, written", COMMANDS, ids=[c[0] for c in COMMANDS]
)
def test_readme_command_matches_golden(name, argv, stdin, written, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.txt").write_text((GOLDEN / "sandpile_identity.out").read_text())
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    if written is not None:
        assert (tmp_path / written).read_bytes() == (GOLDEN / written).read_bytes()
