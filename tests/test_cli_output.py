"""The CSV text of every catalog command at L = 20, pinned in tests/data/cli_output_L20.json.

Each case reruns one command through `cli.main` and compares it with the
stored text: the header and the row count are equal, the delta_t column is
exact, and every other value is within 2e-12 (BLAS may sum in another
order on another numpy build).  After a change that is meant to move the
output, rewrite the fixture with `python tests/test_cli_output.py` and
list the moved values in CHANGES.md.
"""

import json
import pathlib

import pytest

from dickeprobe.cli import main

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "cli_output_L20.json"
GRID = ["--L", "20", "--tmax", "20", "--steps", "25", "--kappa=1,2"]
HALF = "partial:200.0,200.0"  # scripts/decay_curves.py's half-condensed split at L = 20

COMMANDS = [
    # scripts/decay_curves.py
    ["curve", "--statistics", "bose", "--state", "superfluid"],
    ["curve", "--statistics", "bose", "--state", HALF],
    ["curve", "--statistics", "bose", "--state", "uniform"],
    ["curve", "--statistics", "bose", "--state", "thermal:0.01"],
    ["curve", "--statistics", "bose", "--state", "thermal:0.1"],
    ["curve", "--statistics", "bose", "--state", "thermal:1"],
    ["quench", "--statistics", "bose"],
    ["adiabatic", "--statistics", "bose"],
    ["curve", "--statistics", "fermi", "--state", "metallic"],
    ["curve", "--statistics", "fermi", "--state", "thermal:0.01"],
    ["curve", "--statistics", "fermi", "--state", "thermal:1"],
    ["curve", "--statistics", "fermi", "--state", "thermal:100"],
    ["quench", "--statistics", "fermi"],
    ["adiabatic", "--statistics", "fermi"],
    # the states no script runs
    ["curve", "--statistics", "bose", "--state", "mott"],
    ["curve", "--statistics", "fermi", "--state", "neel"],
    ["curve", "--statistics", "fermi", "--state", "uniform"],
    # scripts/classical_sweep.py, and the one fermionic classical state
    ["classical", "--statistics", "bose", "--state", "superfluid", "--alpha=0.01"],
    ["classical", "--statistics", "bose", "--state", HALF, "--alpha=0.01"],
    ["classical", "--statistics", "bose", "--state", "uniform", "--alpha=0.01"],
    ["classical", "--statistics", "bose", "--state", "thermal:1", "--alpha=0.01"],
    ["classical", "--statistics", "fermi", "--state", "metallic", "--alpha=0.01"],
    # a second pulse that does not reverse the first
    ["classical", "--statistics", "bose", "--state", "uniform", "--alpha=0.2", "--beta-rot=0.3"],
]


def run(argv, path):
    assert main([*argv, *GRID, "-o", str(path)]) == 0
    return path.read_text()


def columns(text):
    header, *rows = text.splitlines()
    return header, [row.split(",") for row in rows]


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def case_id(argv):
    # every classical case but one runs at the scripts' --alpha=0.01, left out of its id
    return " ".join(arg for arg in argv if arg != "--alpha=0.01")


@pytest.mark.parametrize("argv", COMMANDS, ids=case_id)
def test_output_matches_fixture(argv, expected, tmp_path):
    key = " ".join([*argv, *GRID])
    header, rows = columns(run(argv, tmp_path / "out.csv"))
    want_header, want_rows = columns(expected[key])
    assert header == want_header
    assert len(rows) == len(want_rows)
    assert [row[0] for row in rows] == [row[0] for row in want_rows]
    for row, want in zip(rows, want_rows):
        assert len(row) == len(want)
        for value, reference in zip(row[1:], want[1:]):
            assert abs(float(value) - float(reference)) <= 2e-12, (row[0], value, reference)


def test_fixture_holds_exactly_these_commands(expected):
    assert sorted(expected) == sorted(" ".join([*argv, *GRID]) for argv in COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        table = {" ".join([*argv, *GRID]): run(argv, out) for argv in COMMANDS}
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} commands to {FIXTURE}")
