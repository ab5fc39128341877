import pathlib
import runpy
import sys

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
    # the summary reads the envelope |Re C(dt)| of the uniform state on the same grid
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
