#!/usr/bin/env python3
"""Generate the standard catalog of normalized emission-peak curves as CSV files.

Writes one file per scenario into --outdir by running the `dickeprobe` CLI,
so each file is byte-identical to the matching `dickeprobe` command, and
prints a short summary with the location of the first envelope zero.
Bosonic set: superfluid, half condensed, fully distributed, thermal at
several inverse temperatures, quench and adiabatic transitions.  Fermionic
set: metallic, thermal, quench and adiabatic.
"""

import argparse
import pathlib
import sys

import numpy as np

from dickeprobe.cli import main as dickeprobe
from dickeprobe.distributions import uniform
from dickeprobe.emission import coherent_amplitude
from dickeprobe.lattice import LatticeSpec, Mode


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="curves", help="output directory")
    parser.add_argument("--L", type=int, default=100)
    parser.add_argument("--tmax", type=float, default=100.0)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--kappa", default="1,1", metavar="N,M")
    args = parser.parse_args()

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
    common = ["--L", str(args.L), "--tmax", str(args.tmax), "--steps", str(args.steps)]
    for stem, argv in runs.items():
        path = outdir / f"{stem}.csv"
        code = dickeprobe([*argv, *common, f"--kappa={args.kappa}", "-o", str(path)])
        if code:
            return code
        print(f"wrote {path}")

    # the CLI runs above have already rejected a bad --kappa or time grid
    spec = LatticeSpec(L=args.L)
    grid = np.linspace(0.0, args.tmax, args.steps)
    kappa = Mode(*(int(part) for part in args.kappa.split(",")))
    envelope = np.abs(coherent_amplitude(uniform(spec), kappa, grid, spec).real)
    dips = np.flatnonzero((envelope[1:-1] < envelope[:-2]) & (envelope[1:-1] <= envelope[2:]))
    if dips.size:
        print(f"first envelope zero near delta_t = {grid[dips[0] + 1]:.2f} tunneling times")
    return 0


if __name__ == "__main__":
    sys.exit(main())
