"""Command-line front end: CSV emission curves, classical-drive sweeps, oracle report.

All curve subcommands write `delta_t,normalized_peak` rows; `classical`
writes `delta_t,sigma_z,n_meta`.  Values are printed with 12 decimal places
so repeated runs are byte-identical.  Exit codes: 0 success, 1 usage error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .classical import DriveParameters, expected_sigma_z, mean_excitations, metastable_population
from .distributions import Statistics
from .emission import ProbeGeometry, _build_distribution, emission_curve
from .lattice import LatticeSpec, Mode, validate_mode
from .oracle import verification_suite

__all__ = ["build_parser", "entrypoint", "main"]

_FMT = "%.12f"

_BOSE_STATES = ("superfluid", "partial", "thermal", "uniform", "mott")
_FERMI_STATES = ("metallic", "thermal", "uniform", "neel")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_lattice_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--L", type=int, default=100, help="sites per side (even), default 100")
    parser.add_argument("--ell", type=float, default=1.0, help="lattice spacing, default 1")
    parser.add_argument("--J", type=float, default=1.0, help="tunneling rate, default 1")
    parser.add_argument(
        "--U",
        type=float,
        default=0.0,
        help="on-site interaction; the weak-interaction curves are U-independent",
    )
    parser.add_argument(
        "--kappa",
        default="1,1",
        metavar="N,M",
        help="photon mode as grid indices n,m; kappa = 2*pi/(L*ell) * (n, m)",
    )


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tmax", type=float, default=100.0, help="last waiting time in 1/J")
    parser.add_argument("--steps", type=int, default=500, help="number of samples, default 500")


def _add_output_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dickeprobe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="normalized emission peak for a lattice state")
    curve.add_argument("--statistics", choices=["bose", "fermi"], required=True)
    curve.add_argument(
        "--state",
        required=True,
        help=(
            "bose: superfluid | partial:N1,N2 | thermal:inverse_temperature | uniform | mott;"
            " fermi: metallic | thermal:inverse_temperature | uniform | neel"
        ),
    )
    for p in (curve,):
        _add_lattice_options(p)
        _add_grid_options(p)
        _add_output_option(p)

    quench = sub.add_parser("quench", help="peak after a sudden interaction switch-off")
    quench.add_argument("--statistics", choices=["bose", "fermi"], required=True)
    _add_lattice_options(quench)
    _add_grid_options(quench)
    _add_output_option(quench)

    adiabatic = sub.add_parser("adiabatic", help="peak after a slow interaction ramp")
    adiabatic.add_argument("--statistics", choices=["bose", "fermi"], required=True)
    _add_lattice_options(adiabatic)
    _add_grid_options(adiabatic)
    _add_output_option(adiabatic)

    classical = sub.add_parser(
        "classical", help="classical-laser sequence: sigma_z and metastable population"
    )
    classical.add_argument("--statistics", choices=["bose", "fermi"], required=True)
    classical.add_argument(
        "--state", required=True, help="same selectors as `curve` except mott and neel"
    )
    classical.add_argument(
        "--alpha", type=float, default=0.01, help="first pulse angle, default 0.01"
    )
    classical.add_argument(
        "--beta-rot",
        type=float,
        default=None,
        help="second pulse angle, default -alpha (perfect-reversal sequence)",
    )
    _add_lattice_options(classical)
    _add_grid_options(classical)
    _add_output_option(classical)

    oracle = sub.add_parser("oracle", help="run the exact-diagonalization cross-checks (2x2)")
    _add_output_option(oracle)

    return parser


class _UsageError(ValueError):
    pass


def _parse_kappa(text: str, L: int) -> Mode:
    try:
        n, m = (int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--kappa expects two integers 'n,m', got {text!r}") from None
    try:
        return validate_mode((n, m), L)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_state(text: str, statistics: Statistics) -> tuple[str, dict]:
    """Split a `--state` selector into a scenario name and its keyword arguments."""
    name, _, params = text.partition(":")
    allowed = _BOSE_STATES if statistics is Statistics.BOSE else _FERMI_STATES
    if name not in allowed:
        raise _UsageError(f"state {name!r} is not available for {statistics.value} statistics")
    if name == "partial":
        try:
            n1, n2 = (float(p) for p in params.split(","))
        except ValueError:
            raise _UsageError("partial state needs parameters 'partial:N1,N2'") from None
        return name, {"n_condensed": n1, "n_distributed": n2}
    if name == "thermal":
        try:
            return name, {"inverse_temperature": float(params)}
        except ValueError:
            raise _UsageError("thermal state needs 'thermal:inverse_temperature'") from None
    return name, {}


def _build_spec(args) -> LatticeSpec:
    try:
        return LatticeSpec(L=args.L, ell=args.ell, J=args.J, U=args.U)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _time_grid(args) -> np.ndarray:
    if args.steps < 2:
        raise _UsageError("--steps must be at least 2")
    if not (math.isfinite(args.tmax) and args.tmax > 0):
        raise _UsageError("--tmax must be finite and positive")
    return np.linspace(0.0, args.tmax, args.steps)


def _write_columns(path: str, header: str, *columns: np.ndarray) -> None:
    table = np.column_stack(columns)
    options = {"fmt": _FMT, "delimiter": ",", "header": header, "comments": ""}
    if path == "-":
        np.savetxt(sys.stdout, table, **options)
    else:
        with open(path, "w", newline="") as handle:
            np.savetxt(handle, table, **options)


def _run_curve(args) -> int:
    """`curve`, `quench` and `adiabatic`: one normalized-peak column."""
    spec = _build_spec(args)
    kappa = _parse_kappa(args.kappa, spec.L)
    grid = _time_grid(args)
    statistics = Statistics(args.statistics)
    if args.command == "curve":
        name, kwargs = _parse_state(args.state, statistics)
    else:
        name, kwargs = args.command, {}
    geometry = ProbeGeometry(kappa, kappa)
    curve = emission_curve(name, grid, spec, geometry, statistics=statistics, **kwargs)
    if curve.approximate:
        print(f"note: {curve.note}", file=sys.stderr)
    _write_columns(args.output, "delta_t,normalized_peak", curve.times, curve.values)
    return 0


def _run_classical(args) -> int:
    spec = _build_spec(args)
    kappa = _parse_kappa(args.kappa, spec.L)
    grid = _time_grid(args)
    statistics = Statistics(args.statistics)
    name, kwargs = _parse_state(args.state, statistics)
    dist = _build_distribution(name, spec, statistics, **kwargs)
    alpha = args.alpha
    beta_rot = -alpha if args.beta_rot is None else args.beta_rot
    drive = DriveParameters(alpha, beta_rot, kappa, grid)
    sigma_z = expected_sigma_z(dist, drive, spec)
    n_meta = metastable_population(dist, mean_excitations(spec, alpha), kappa, grid, spec)
    _write_columns(args.output, "delta_t,sigma_z,n_meta", grid, sigma_z, n_meta)
    return 0


def _run_oracle(args) -> int:
    results = verification_suite()
    width = max(len(result.name) for result in results)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"{status} {result.name:<{width}}  max deviation {result.deviation:.3e}"
            f"  tolerance {result.tolerance:.1e}"
        )
    n_pass = sum(result.passed for result in results)
    lines.append(f"oracle suite: {n_pass}/{len(results)} checks passed")
    report = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(report)
    else:
        with open(args.output, "w", newline="") as handle:
            handle.write(report)
    return 0 if n_pass == len(results) else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("curve", "quench", "adiabatic"):
            return _run_curve(args)
        if args.command == "classical":
            return _run_classical(args)
        if args.command == "oracle":
            return _run_oracle(args)
        parser.error(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"dickeprobe: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"dickeprobe: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"dickeprobe: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
