#!/usr/bin/env python3
"""Generate the standard catalog of normalized emission-peak curves as CSV files.

Writes one file per scenario into --outdir by running the `dickeprobe` CLI,
passing every option except --outdir and --L unchanged to each call, so each
file is byte-identical to the matching command.  Prints only what its files
hold: their paths and the first envelope zero of bose_quench.csv.
Bosonic set: superfluid, half condensed, fully distributed, thermal at
several inverse temperatures, quench and adiabatic transitions.  Fermionic
set: metallic, thermal, quench and adiabatic.
"""

import argparse
import pathlib
import sys

import numpy as np

from dickeprobe.cli import main as dickeprobe


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="curves", help="output directory")
    parser.add_argument("--L", type=int, default=100, help="sites per side, default 100")
    args, passed = parser.parse_known_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    half = args.L * args.L / 2
    runs = {
        "bose_superfluid": ["curve", "--statistics", "bose", "--state", "superfluid"],
        "bose_half_condensed": [
            "curve", "--statistics", "bose", "--state", f"partial:{half},{half}"
        ],
        "bose_distributed": ["curve", "--statistics", "bose", "--state", "uniform"],
        "bose_thermal_bJ0.01": ["curve", "--statistics", "bose", "--state", "thermal:0.01"],
        "bose_thermal_bJ0.1": ["curve", "--statistics", "bose", "--state", "thermal:0.1"],
        "bose_thermal_bJ1": ["curve", "--statistics", "bose", "--state", "thermal:1"],
        "bose_quench": ["quench", "--statistics", "bose"],
        "bose_adiabatic": ["adiabatic", "--statistics", "bose"],
        "fermi_metallic": ["curve", "--statistics", "fermi", "--state", "metallic"],
        "fermi_thermal_bJ0.01": ["curve", "--statistics", "fermi", "--state", "thermal:0.01"],
        "fermi_thermal_bJ1": ["curve", "--statistics", "fermi", "--state", "thermal:1"],
        "fermi_thermal_bJ100": ["curve", "--statistics", "fermi", "--state", "thermal:100"],
        "fermi_quench": ["quench", "--statistics", "fermi"],
        "fermi_adiabatic": ["adiabatic", "--statistics", "fermi"],
    }
    for stem, (command, *scenario) in runs.items():
        path = outdir / f"{stem}.csv"
        # the scenario's own options, --L and -o come after the passed ones and win
        code = dickeprobe([command, *passed, *scenario, "--L", str(args.L), "-o", str(path)])
        if code:
            return code
        print(f"wrote {path}")

    # the quench curve is |C(dt)|^2 of the uniform state: its dips are the envelope zeros
    grid, peak = np.loadtxt(outdir / "bose_quench.csv", delimiter=",", skiprows=1, unpack=True)
    dips = np.flatnonzero((peak[1:-1] < peak[:-2]) & (peak[1:-1] <= peak[2:]))
    if dips.size:
        print(f"first envelope zero near delta_t = {grid[dips[0] + 1]:.2f} tunneling times")
    return 0


if __name__ == "__main__":
    sys.exit(main())
