#!/usr/bin/env python3
"""Sweep the classical-laser sequence observables for a few lattice states.

For each state, writes delta_t, sigma_z and the metastable population of the
reversed small-angle sequence (rotation_out = -rotation_in) by running
`dickeprobe classical`, so each file is byte-identical to that command.
"""

import argparse
import pathlib
import sys

from dickeprobe.classical import mean_excitations
from dickeprobe.cli import main as dickeprobe
from dickeprobe.lattice import LatticeSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="classical", help="output directory")
    parser.add_argument("--L", type=int, default=100)
    parser.add_argument("--alpha", type=float, default=0.01)
    parser.add_argument("--tmax", type=float, default=100.0)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--kappa", default="1,1", metavar="N,M")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    half = args.L * args.L / 2
    states = {
        "condensate": "superfluid",
        "half_condensed": f"partial:{half},{half}",
        "distributed": "uniform",
        "thermal_bJ1": "thermal:1",
    }
    common = [
        "--L", str(args.L), "--tmax", str(args.tmax), "--steps", str(args.steps),
        f"--alpha={args.alpha}", f"--kappa={args.kappa}",
    ]
    for stem, state in states.items():
        path = outdir / f"{stem}.csv"
        argv = ["classical", "--statistics", "bose", "--state", state, *common]
        code = dickeprobe([*argv, "-o", str(path)])
        if code:
            return code
        print(f"wrote {path}")
    nbar = mean_excitations(LatticeSpec(L=args.L), args.alpha)
    print(f"mean excitations per pulse: {nbar:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
