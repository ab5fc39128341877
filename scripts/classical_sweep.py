#!/usr/bin/env python3
"""Sweep the classical-laser sequence observables for a few lattice states.

For each state, writes delta_t, sigma_z and the metastable population of the
reversed small-angle sequence (rotation_out = -rotation_in) by running
`dickeprobe classical`, passing every option except --outdir and --L
unchanged to each call, so each file is byte-identical to that command.
Prints only the paths of the files it wrote.
"""

import argparse
import pathlib
import sys

from dickeprobe.cli import main as dickeprobe


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="classical", help="output directory")
    parser.add_argument("--L", type=int, default=100, help="sites per side, default 100")
    args, passed = parser.parse_known_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    half = args.L * args.L / 2
    states = {
        "condensate": "superfluid",
        "half_condensed": f"partial:{half},{half}",
        "distributed": "uniform",
        "thermal_bJ1": "thermal:1",
    }
    for stem, state in states.items():
        path = outdir / f"{stem}.csv"
        argv = ["classical", *passed, "--statistics", "bose", "--state", state]
        code = dickeprobe([*argv, "--L", str(args.L), "-o", str(path)])
        if code:
            return code
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
