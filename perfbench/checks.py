"""Output checks for every command the benchmark runs.

A command fails when it exits non-zero or its output breaks one of the
documented invariants below.  Each check returns a list of messages; an
empty list means the output passed.
"""

from __future__ import annotations

import re

import numpy as np

from workloads import ALPHA, Command

GRID_TOL = 1e-11  # delta_t is printed with 12 decimals
VALUE_TOL = 1e-9
IDENTITY_TOL = 1e-9

PEAK_HEADER = "delta_t,normalized_peak"
CLASSICAL_HEADER = "delta_t,sigma_z,n_meta"
_ORACLE_TOTAL = re.compile(r"^oracle suite: (\d+)/(\d+) checks passed$")


def parse_csv(text: str, header: str, steps: int) -> tuple[np.ndarray | None, list[str]]:
    """Rows of a CSV output as a float array, or None with the reasons it is malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None, [f"header is {lines[0] if lines else ''!r}, expected {header!r}"]
    width = header.count(",") + 1
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != width:
            return None, [f"line {number} has {len(fields)} fields, expected {width}"]
        try:
            rows.append([float(field) for field in fields])
        except ValueError:
            return None, [f"line {number} is not numeric: {line!r}"]
    if len(rows) != steps:
        return None, [f"{len(rows)} rows, expected {steps}"]
    data = np.array(rows, dtype=float).reshape(steps, width)
    if not np.all(np.isfinite(data)):
        return None, ["non-finite value"]
    return data, []


def _grid_errors(data: np.ndarray, cmd: Command) -> list[str]:
    grid = np.linspace(0.0, cmd.tmax, cmd.steps)
    if np.max(np.abs(data[:, 0] - grid)) > GRID_TOL * max(1.0, cmd.tmax):
        return ["delta_t column differs from linspace(0, tmax, steps)"]
    return []


def mean_excitations(cmd: Command) -> float:
    """nbar = N alpha^2 / 4 for the first pulse of a `classical` command."""
    return cmd.L * cmd.L * ALPHA**2 / 4.0


def check_csv(cmd: Command, text: str) -> tuple[np.ndarray | None, list[str]]:
    """Header, rows, grid and the per-output invariants of one curve or classical output."""
    header = CLASSICAL_HEADER if cmd.kind == "classical" else PEAK_HEADER
    data, errors = parse_csv(text, header, cmd.steps)
    if data is None:
        return None, errors
    errors = _grid_errors(data, cmd)
    if cmd.kind == "classical":
        nbar = mean_excitations(cmd)
        n_meta = data[:, 2]
        tol = VALUE_TOL * max(1.0, 4.0 * nbar)
        if np.any(n_meta < -tol) or np.any(n_meta > 4.0 * nbar + tol):
            errors.append(f"n_meta outside [0, 4 nbar] = [0, {4.0 * nbar}]")
        if abs(n_meta[0]) > tol:
            errors.append(f"n_meta(0) = {float(n_meta[0])!r}, expected 0")
        return data, errors
    peak = data[:, 1]
    if np.any(peak < -VALUE_TOL) or np.any(peak > 1.0 + VALUE_TOL):
        errors.append("normalized peak outside [0, 1]")
    if abs(peak[0] - 1.0) > VALUE_TOL:
        errors.append(f"peak(0) = {float(peak[0])!r}, expected 1 in forward geometry")
    if cmd.constant and np.any(np.abs(peak - 1.0) > VALUE_TOL):
        errors.append("curve is not identically 1")
    return data, errors


def check_oracle(text: str) -> list[str]:
    lines = text.splitlines()
    match = _ORACLE_TOTAL.match(lines[-1]) if lines else None
    if match is None:
        return ["oracle report has no summary line"]
    passed, total = int(match.group(1)), int(match.group(2))
    checks = lines[:-1]
    errors = []
    if total == 0 or passed != total or len(checks) != total:
        errors.append(f"oracle reports {passed}/{total} checks passed over {len(checks)} rows")
    errors.extend(f"oracle check failed: {line}" for line in checks if not line.startswith("PASS "))
    return errors


def check_output(cmd: Command, text: str) -> tuple[np.ndarray | None, list[str]]:
    if cmd.kind == "oracle":
        return None, check_oracle(text)
    return check_csv(cmd, text)


def identity_errors(commands: list[Command], outputs: list[np.ndarray | None]) -> dict[int, list[str]]:
    """Cross-path identities within one pass, keyed by the index of the failing command.

    For the same kappa and grid, curve uniform (either statistics), quench
    and fermionic adiabatic are one curve, and (1 - n_meta / 2 nbar)^2 from
    classical uniform equals it too.  The first uniform-like curve of each
    grid is the reference.
    """
    members: dict[tuple, list[tuple[bool, int, np.ndarray]]] = {}
    for i, (cmd, data) in enumerate(zip(commands, outputs)):
        if data is None:
            continue
        if cmd.uniform_like:
            values = data[:, 1]
        elif cmd.kind == "classical" and cmd.state == "uniform":
            values = (1.0 - data[:, 2] / (2.0 * mean_excitations(cmd))) ** 2
        else:
            continue
        # peak curves sort ahead of classical ones, so the reference is a peak curve
        key = (cmd.L, cmd.kappa, cmd.tmax, cmd.steps)
        members.setdefault(key, []).append((cmd.kind == "classical", i, values))
    errors: dict[int, list[str]] = {}
    for group in members.values():
        group.sort(key=lambda member: member[:2])
        _, _, reference = group[0]
        for _, i, values in group[1:]:
            gap = float(np.max(np.abs(values - reference)))
            if not gap <= IDENTITY_TOL:
                errors[i] = [f"differs from the uniform curve by {gap:.3e}"]
    return errors
