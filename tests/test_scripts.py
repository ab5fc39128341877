import ast
import pathlib
import runpy
import sys

import pytest

from dickeprobe.cli import main

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
GRID = ["--L", "4", "--tmax", "12", "--steps", "25", "--kappa", "1,-1"]


def run_script(name, argv, monkeypatch):
    namespace = runpy.run_path(str(SCRIPTS / name))
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return namespace["main"]()


def cli_bytes(argv, path):
    assert main([*argv, *GRID, "-o", str(path)]) == 0
    return path.read_bytes()


def test_decay_curves_match_cli(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "curves"
    assert run_script("decay_curves.py", ["--outdir", str(outdir), *GRID], monkeypatch) == 0
    assert len(list(outdir.glob("*.csv"))) == 14
    # the summary reads bose_quench.csv: |C(dt)|^2 of the uniform state, whose dips are
    # the zeros of the envelope |Re C(dt)|
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "first envelope zero near delta_t = 3.00 tunneling times"
    cases = {
        "bose_half_condensed": ["curve", "--statistics", "bose", "--state", "partial:8,8"],
        "fermi_thermal_bJ1": ["curve", "--statistics", "fermi", "--state", "thermal:1"],
        "fermi_adiabatic": ["adiabatic", "--statistics", "fermi"],
    }
    for stem, argv in cases.items():
        expected = cli_bytes(argv, tmp_path / f"{stem}.csv")
        assert (outdir / f"{stem}.csv").read_bytes() == expected


def test_classical_sweep_matches_cli(tmp_path, monkeypatch):
    outdir = tmp_path / "classical"
    argv = ["--outdir", str(outdir), "--alpha", "0.2", *GRID]
    assert run_script("classical_sweep.py", argv, monkeypatch) == 0
    expected = cli_bytes(
        ["classical", "--statistics", "bose", "--state", "thermal:1", "--alpha", "0.2"],
        tmp_path / "thermal.csv",
    )
    assert (outdir / "thermal_bJ1.csv").read_bytes() == expected


def test_scripts_reject_bad_kappa(tmp_path, monkeypatch):
    outdir = tmp_path / "curves"
    argv = ["--outdir", str(outdir), "--L", "4", "--kappa", "9,9"]
    assert run_script("decay_curves.py", argv, monkeypatch) == 1
    assert not list(outdir.glob("*.csv"))


def test_scripts_import_only_the_cli():
    # every computation goes through `dickeprobe` calls; a script reads only what they wrote
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert [path.name for path in scripts] == ["classical_sweep.py", "decay_curves.py"]
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "dickeprobe":
                    assert (name + ".").startswith("dickeprobe.cli."), (path.name, name)


@pytest.mark.parametrize("name", ["decay_curves.py", "classical_sweep.py"])
def test_scripts_declare_only_outdir_and_L(name, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_script(name, ["--help"], monkeypatch)
    assert exit_info.value.code == 0
    options = {word for word in capsys.readouterr().out.split() if word.startswith("-")}
    assert {"--outdir", "--L"} <= options
    assert not options & {"--tmax", "--steps", "--kappa", "--alpha"}


@pytest.mark.parametrize(
    ("name", "option"),
    [
        ("decay_curves.py", ["--tmax", "nan"]),
        ("classical_sweep.py", ["--kappa", "9,9"]),
        ("decay_curves.py", ["--alpha", "0.2"]),  # no curve command takes --alpha
    ],
    ids=["decay-tmax-nan", "classical-kappa", "decay-alpha"],
)
def test_option_the_cli_rejects_exits_1_without_csv(name, option, tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    try:
        code = run_script(name, ["--outdir", str(outdir), "--L", "4", *option], monkeypatch)
    except SystemExit as exc:  # the CLI's parser exits on an option it does not know
        code = exc.code
    assert code == 1
    assert not list(outdir.glob("*.csv"))
