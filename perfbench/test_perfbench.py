"""Self-tests of the benchmark: output checker, seeded generator, tracer, empty checkout.

Run from the root of a checkout with `python3 -m pytest -q perfbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))  # the package of this checkout

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

GRID = dict(L=10, kappa=(1, 2), tmax=20.0, steps=40)
UNIFORM = Command("curve", "bose", "uniform", **GRID)
QUENCH = Command("quench", "fermi", **GRID)
CLASSICAL = Command("classical", "bose", "uniform", **GRID)
THERMAL = Command("curve", "bose", "thermal:0.5", **GRID)
MOTT = Command("curve", "bose", "mott", **GRID)


def produce(cmd: Command, tmp_path: Path) -> str:
    from dickeprobe.cli import main

    out = tmp_path / "out.csv"
    assert main([*cmd.argv(), "--output", str(out)]) == 0
    return out.read_text()


def replace_field(text: str, row: int, column: int, new: str) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[column] = new
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    return {cmd: produce(cmd, tmp) for cmd in (UNIFORM, QUENCH, CLASSICAL, THERMAL, MOTT)}


def test_valid_outputs_pass(outputs):
    data = []
    for cmd, text in outputs.items():
        values, errors = checks.check_output(cmd, text)
        assert errors == [], (cmd.label, errors)
        data.append(values)
    assert checks.identity_errors(list(outputs), data) == {}


@pytest.mark.parametrize(
    "cmd, row, column, value, expected",
    [
        (THERMAL, 7, 1, "-0.250000000000", "outside [0, 1]"),
        (THERMAL, 1, 1, "0.999000000000", "peak(0)"),
        (THERMAL, 9, 0, "4.000000000001", "delta_t"),
        (MOTT, 5, 1, "0.999999000000", "identically 1"),
        (CLASSICAL, 1, 2, "0.000100000000", "n_meta(0)"),
        (CLASSICAL, 4, 2, "1.000000000000", "4 nbar"),
        (THERMAL, 3, 1, "nan", "non-finite"),
        (THERMAL, 3, 1, "inf", "non-finite"),
    ],
)
def test_flipped_or_nonfinite_value_is_rejected(outputs, cmd, row, column, value, expected):
    _, errors = checks.check_output(cmd, replace_field(outputs[cmd], row, column, value))
    assert any(expected in error for error in errors), errors


def test_flipped_digit_breaks_cross_path_identity(outputs):
    text = outputs[QUENCH]
    value = text.splitlines()[12].split(",")[1]
    flipped = value[:5] + str((int(value[5]) + 1) % 10) + value[6:]  # the 1e-4 digit
    corrupted = replace_field(text, 12, 1, flipped)
    commands = [UNIFORM, QUENCH, CLASSICAL]
    data = [checks.check_output(UNIFORM, outputs[UNIFORM])[0]]
    values, errors = checks.check_output(QUENCH, corrupted)
    assert errors == []  # the per-output invariants cannot see this one
    data += [values, checks.check_output(CLASSICAL, outputs[CLASSICAL])[0]]
    assert set(checks.identity_errors(commands, data)) == {1}


def test_missing_row_and_bad_header_are_rejected(outputs):
    lines = outputs[THERMAL].splitlines()
    missing = "\n".join(lines[:10] + lines[11:]) + "\n"
    assert checks.check_output(THERMAL, missing)[1] == ["39 rows, expected 40"]
    renamed = outputs[THERMAL].replace("normalized_peak", "peak", 1)
    assert "header" in checks.check_output(THERMAL, renamed)[1][0]


def test_oracle_report_needs_every_check_passed():
    good = "PASS a  max deviation 1.0e-16  tolerance 1e-10\n" * 2 + "oracle suite: 2/2 checks passed\n"
    assert checks.check_oracle(good) == []
    bad = good.replace("PASS a", "FAIL a", 1).replace("2/2", "1/2")
    assert len(checks.check_oracle(bad)) == 2
    assert checks.check_oracle(good.rsplit("oracle", 1)[0]) == ["oracle report has no summary line"]


def test_metallic_classical_defect_is_counted(tmp_path):
    metallic = replace(CLASSICAL, statistics="fermi", state="metallic")
    _, errors = checks.check_output(metallic, produce(metallic, tmp_path))
    assert any("n_meta(0)" in error for error in errors)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    dump = lambda seed: json.dumps([cmd.argv() for cmd in workloads.WORKLOADS[name](seed)]).encode()
    assert dump(7) == dump(7)
    if name == "oracle-2x2":
        assert dump(7) == dump(8)
    else:
        assert len({dump(seed) for seed in range(6)}) > 1


def test_every_generated_command_parses():
    from dickeprobe.cli import build_parser

    parser = build_parser()
    for name in workloads.WORKLOADS:
        for cmd in workloads.WORKLOADS[name](3):
            parser.parse_args([*cmd.argv(), "--output", "x"])


def test_tracer_restores_the_package_and_nests_spans(tmp_path):
    import dickeprobe.cli
    import dickeprobe.lattice

    before = tracing.snapshot()
    original = dickeprobe.lattice.dephasing_rates
    argv = [*QUENCH.argv(), "--output", str(tmp_path / "q.csv")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dickeprobe.lattice.dephasing_rates is not original
        assert tracing.snapshot() != before
        assert dickeprobe.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracing.snapshot() == before
    assert dickeprobe.lattice.dephasing_rates is original

    summary = tracer.summary()
    names = summary["names"]
    assert names["cli.main"]["calls"] == 1
    assert names["emission.phase_sum"]["calls"] == QUENCH.steps
    assert names["lattice.dephasing_rates"]["calls"] >= QUENCH.steps
    self_total = sum(row["self_s"] for row in names.values())
    assert self_total == pytest.approx(summary["root_s"], rel=1e-9)
    assert summary["root_s"] == pytest.approx(names["cli.main"]["total_s"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-2x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
