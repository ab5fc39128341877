"""Seeded command mixes for the dickeprobe CLI benchmark.

Each workload is a list of `Command`s, one `dickeprobe` invocation each.  The
seed only draws the inputs a user would choose (photon mode, inverse
temperatures, condensate split); the same seed always yields byte-identical
argv lists.  Why each workload exists, and which layer metric should move
which end-to-end metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ALPHA = 0.01  # first pulse angle passed to every `classical` command

# The seed picks kappa among the eight lattice-symmetry images of (1, 2).  They
# share one multiset of dephasing rates, so every seed costs the same work;
# the cost of exp(i rates t) grows with |kappa|, by about a third from (0, 1)
# to (3, 3) at L = 400.
KAPPAS = tuple(
    (sx * a, sy * b) for a, b in ((1, 2), (2, 1)) for sx in (1, -1) for sy in (1, -1)
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; the fields the output checks need are kept parsed."""

    kind: str  # curve | quench | adiabatic | classical | oracle
    statistics: str | None = None
    state: str | None = None
    L: int = 0
    kappa: tuple[int, int] = (1, 1)
    tmax: float = 0.0
    steps: int = 0

    def argv(self) -> list[str]:
        """Arguments after `dickeprobe`, without --output."""
        if self.kind == "oracle":
            return ["oracle"]
        args = [self.kind, "--statistics", self.statistics]
        if self.state is not None:
            args += ["--state", self.state]
        if self.kind == "classical":
            args += ["--alpha", repr(ALPHA)]
        args += [
            "--L", str(self.L),
            f"--kappa={self.kappa[0]},{self.kappa[1]}",  # '=' keeps "-1,2" from reading as an option
            "--tmax", repr(self.tmax),
            "--steps", str(self.steps),
        ]
        return args

    @property
    def label(self) -> str:
        parts = [self.kind, self.statistics, self.state]
        return " ".join(p for p in parts if p)

    @property
    def constant(self) -> bool:
        """Curves documented to be identically 1: mott, neel, bosonic adiabatic."""
        return self.state in ("mott", "neel") or (
            self.kind == "adiabatic" and self.statistics == "bose"
        )

    @property
    def uniform_like(self) -> bool:
        """Curves that all equal |phase_sum(dt)|^2 for one kappa and grid."""
        if self.kind == "curve":
            return self.state == "uniform"
        return self.kind == "quench" or (self.kind == "adiabatic" and self.statistics == "fermi")

    @property
    def kernel_terms(self) -> int:
        """L^2 * steps mode-time terms the emission layer must sum, 0 if none.

        Counted from the inputs, so it does not depend on how the program
        evaluates them.  `classical` sums belong to the classical layer.
        """
        if self.kind in ("curve", "quench", "adiabatic") and not self.constant:
            return self.L * self.L * self.steps
        return 0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    # four significant digits keep the argv text short and exactly reproducible
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.4g}")


def _thermal(rng: random.Random, around: float) -> str:
    return f"thermal:{_log_uniform(rng, around / 2, around * 2)!r}"


def catalog(seed: int) -> list[Command]:
    """scripts/decay_curves.py and scripts/classical_sweep.py as CLI commands."""
    rng = random.Random(f"catalog-L100/{seed}")
    grid = dict(L=100, kappa=rng.choice(KAPPAS), tmax=100.0, steps=500)
    half = f"partial:{100 * 100 // 2},{100 * 100 // 2}"
    curve = lambda stats, state: Command("curve", stats, state, **grid)
    classical = lambda stats, state: Command("classical", stats, state, **grid)
    return [
        curve("bose", "superfluid"),
        curve("bose", half),
        curve("bose", "uniform"),
        curve("bose", _thermal(rng, 0.01)),
        curve("bose", _thermal(rng, 0.1)),
        curve("bose", _thermal(rng, 1.0)),
        Command("quench", "bose", **grid),
        Command("adiabatic", "bose", **grid),
        curve("fermi", "metallic"),
        curve("fermi", _thermal(rng, 0.01)),
        curve("fermi", _thermal(rng, 1.0)),
        curve("fermi", _thermal(rng, 100.0)),
        Command("quench", "fermi", **grid),
        Command("adiabatic", "fermi", **grid),
        classical("bose", "superfluid"),
        classical("bose", half),
        classical("bose", "uniform"),
        classical("bose", _thermal(rng, 1.0)),
    ]


def thermal(seed: int) -> list[Command]:
    """General (non-separable) weights at L = 400 through both Bose mu-solver branches.

    At L = 400 the Bose bisection stalls after 200 steps and pads the k = 0
    mode for inverse temperatures from about 5 on; only above 1e12 / N does
    the pinned chemical potential hold too few atoms, which takes the
    condensed branch.  100 time steps let a run time each command three or
    four times, and its median over those holds still where one sample of a
    longer grid does not.
    """
    rng = random.Random(f"thermal-L400/{seed}")
    grid = dict(L=400, kappa=rng.choice(KAPPAS), tmax=100.0, steps=100)
    beta = lambda lo, hi: f"thermal:{_log_uniform(rng, lo, hi)!r}"
    return [
        Command("curve", "bose", beta(5.0, 50.0), **grid),
        Command("curve", "bose", beta(1e7, 1e8), **grid),
        Command("curve", "fermi", beta(0.1, 10.0), **grid),
        Command("curve", "fermi", "metallic", **grid),
    ]


def separable(seed: int) -> list[Command]:
    """Rank-1 and uniform weights plus the per-time formula loops at L = 400.

    50 time steps keep a pass of the eleven commands within half a run;
    every command in the pass shares one grid and kappa so the cross-path
    identities apply.
    """
    rng = random.Random(f"separable-L400/{seed}")
    grid = dict(L=400, kappa=rng.choice(KAPPAS), tmax=100.0, steps=50)
    N = 400 * 400
    condensed = round(rng.uniform(0.25, 0.75) * N)
    partial = f"partial:{condensed},{N - condensed}"
    return [
        Command("curve", "bose", "superfluid", **grid),
        Command("curve", "bose", partial, **grid),
        Command("curve", "bose", "uniform", **grid),
        Command("curve", "fermi", "uniform", **grid),
        Command("curve", "bose", "mott", **grid),
        Command("curve", "fermi", "neel", **grid),
        Command("quench", "bose", **grid),
        Command("quench", "fermi", **grid),
        Command("adiabatic", "fermi", **grid),
        Command("classical", "bose", "uniform", **grid),
        Command("classical", "bose", partial, **grid),
    ]


def oracle(seed: int) -> list[Command]:
    """The 2 x 2 exact-diagonalization suite, once per pass.

    Its inputs are fixed inside the program (default_rng(1905)), so the seed
    does not change this workload.
    """
    del seed
    return [Command("oracle")]


WORKLOADS = {
    "catalog-L100": catalog,
    "thermal-L400": thermal,
    "separable-L400": separable,
    "oracle-2x2": oracle,
}
