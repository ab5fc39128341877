"""Command-line front end: CSV emission curves, classical-drive sweeps, oracle report.

All curve subcommands write `delta_t,normalized_peak` rows; `classical`
writes `delta_t,sigma_z,n_meta`.  Values are printed with 12 decimal places
so repeated runs are byte-identical.  Every command works in units of the
tunneling rate J: waiting times are in 1/J and `thermal:x` is beta J.  At U = 0
a curve depends on J only through J dt and beta J, so a run at J is the J = 1
run with dt and beta multiplied by J.  Exit codes: 0 success, 1 usage error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys

import numpy as np

from .classical import expected_sigma_z, metastable_population
from .distributions import (
    MomentumDistribution,
    Statistics,
    bose_einstein,
    fermi_dirac,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from .emission import coherent_amplitude, peak_curve
from .lattice import LatticeSpec, Mode, canonical_mode

__all__ = ["build_parser", "entrypoint", "main"]

_FMT = "%.12f"

_FERMI_ADIABATIC_NOTE = (
    "small-wave-number approximation: the slow-ramp result is derived for |kappa| ell << 1"
)

# Every `--state` selector: the statistics that offers it (None for both), the
# number of comma-separated parameters after "name:", the error for malformed
# parameters, and the constructor (spec, statistics, *parameters) of its
# momentum distribution.  mott and neel have none: they are frozen at unit
# filling, where the site Fourier sum is exactly N delta_{kin,kout}.  The
# constructors are lambdas so that each call looks its function up in this
# module when it runs, where a tracer or a test may have rebound it.
_STATES = {
    "superfluid": (Statistics.BOSE, 0, "", lambda spec, stats: superfluid(spec)),
    "partial": (
        Statistics.BOSE,
        2,
        "partial state needs parameters 'partial:N1,N2'",
        lambda spec, stats, n1, n2: partial_condensation(spec, n1, n2),
    ),
    "thermal": (
        None,
        1,
        "thermal state needs 'thermal:inverse_temperature'",
        lambda spec, stats, beta: (
            bose_einstein(spec, beta) if stats is Statistics.BOSE else fermi_dirac(spec, beta)
        ),
    ),
    "uniform": (None, 0, "", lambda spec, stats: uniform(spec, stats)),
    "metallic": (Statistics.FERMI, 0, "", lambda spec, stats: metallic(spec)),
    "mott": (Statistics.BOSE, 0, "", None),
    "neel": (Statistics.FERMI, 0, "", None),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dickeprobe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    csv_commands = {
        "curve": "normalized emission peak for a lattice state",
        "quench": "peak after a sudden interaction switch-off: the curve of --state uniform",
        "adiabatic": (
            "peak after a slow interaction ramp: the curve of --state superfluid (bose)"
            " or --state uniform (fermi, small-wave-number approximation)"
        ),
        "classical": "classical-laser sequence: sigma_z and metastable population",
    }
    state_help = {
        "curve": (
            "bose: superfluid | partial:N1,N2 | thermal:inverse_temperature | uniform | mott;"
            " fermi: metallic | thermal:inverse_temperature | uniform | neel."
            " mott and neel are frozen at unit filling (U -> infinity); every other"
            " state evolves at U = 0"
        ),
        "classical": "same selectors as `curve` except mott and neel",
    }
    for name, summary in csv_commands.items():
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--statistics", choices=["bose", "fermi"], required=True)
        if name in state_help:
            cmd.add_argument("--state", required=True, help=state_help[name])
        if name == "classical":
            cmd.add_argument(
                "--alpha", type=float, default=0.01, help="first pulse angle, default 0.01"
            )
            cmd.add_argument(
                "--beta-rot",
                type=float,
                default=None,
                help="second pulse angle, default -alpha (perfect-reversal sequence)",
            )
        cmd.add_argument("--L", type=int, default=100, help="sites per side (even), default 100")
        cmd.add_argument(
            "--kappa",
            default="1,1",
            metavar="N,M",
            help="photon mode as grid indices n,m, in units of 2*pi/L: kappa = 2*pi/L * (n, m)",
        )
        cmd.add_argument("--tmax", type=float, default=100.0, help="last waiting time in 1/J")
        cmd.add_argument("--steps", type=int, default=500, help="number of samples, default 500")
        cmd.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")

    oracle = sub.add_parser("oracle", help="run the exact-diagonalization cross-checks (2x2)")
    oracle.add_argument(
        "--json",
        action="store_true",
        help="write a JSON list of {name, deviation, tolerance, passed}, one per check",
    )
    oracle.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")

    return parser


def _parse_kappa(text: str, L: int) -> Mode:
    """The mode `--kappa n,m` names; one that canonical_mode would wrap is an error here."""
    try:
        n, m = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--kappa expects two integers 'n,m', got {text!r}") from None
    if canonical_mode((n, m), L) != (n, m):
        span = f"[{1 - L // 2}, {L // 2}] for L={L}"
        raise ValueError(f"mode {(n, m)!r} outside the canonical index range {span}")
    return Mode(n, m)


def _build_state(
    text: str, statistics: Statistics, spec: LatticeSpec
) -> MomentumDistribution | None:
    """The momentum distribution a `--state` selector names; None for a frozen state."""
    name, colon, params = text.partition(":")
    if name not in _STATES or _STATES[name][0] not in (None, statistics):
        raise ValueError(f"state {name!r} is not available for {statistics.value} statistics")
    _, arity, usage, build = _STATES[name]
    if not arity:
        if colon:
            raise ValueError(f"state {name!r} takes no parameters, got {text!r}")
        values = ()
    else:
        try:
            values = tuple(float(p) for p in params.split(","))
        except ValueError:
            raise ValueError(usage) from None
        if len(values) != arity:
            raise ValueError(usage)
    return None if build is None else build(spec, statistics, *values)


def _time_grid(args) -> np.ndarray:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not (math.isfinite(args.tmax) and args.tmax > 0):
        raise ValueError("--tmax must be finite and positive")
    return np.linspace(0.0, args.tmax, args.steps)


def _check_output(path: str) -> None:
    """Raise OSError now if `path` cannot be opened for writing; create nothing.

    Called before any work, so an unwritable --output exits without building
    a distribution or running the oracle suite.  The file itself is opened
    only when its content is ready, so a run that fails leaves no file.
    """
    parent = os.path.dirname(path) or "."
    if path == "-":
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            return
        code = errno.EBADF
    elif not path or not os.path.isdir(parent):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _write(path: str, write) -> None:
    """Call write(handle) on stdout for '-', else on the file at path, opened only now.

    stdout is flushed here, so a closed pipe raises inside `main`, whose
    OSError handler reports it, and not at interpreter exit.
    """
    if path == "-":
        write(sys.stdout)
        sys.stdout.flush()
    else:
        with open(path, "w", newline="") as handle:
            write(handle)


def _run_csv(args) -> int:
    """`curve`, `quench`, `adiabatic` and `classical`: columns from one state's C(dt).

    The four CSV subcommands share this one path and the writer `_write`.
    quench evaluates the uniform state, adiabatic the state the slow ramp ends
    in; the curve commands write the normalized peak, classical sigma_z and
    n_meta, both read from one coherent amplitude.
    """
    spec = LatticeSpec(L=args.L)
    kappa = _parse_kappa(args.kappa, spec.L)
    grid = _time_grid(args)
    statistics = Statistics(args.statistics)
    if args.command in ("curve", "classical"):
        state = args.state
    elif args.command == "adiabatic" and statistics is Statistics.BOSE:
        state = "superfluid"
    else:
        state = "uniform"
    dist = _build_state(state, statistics, spec)
    if args.command == "classical":
        if dist is None:
            raise ValueError(f"state {state!r} has no momentum distribution")
        alpha = args.alpha
        beta_rot = -alpha if args.beta_rot is None else args.beta_rot
        amplitude = coherent_amplitude(dist, kappa, grid, spec)
        header = "delta_t,sigma_z,n_meta"
        columns = (
            expected_sigma_z(dist, amplitude, alpha, beta_rot),
            metastable_population(dist, amplitude, alpha),
        )
    else:
        header = "delta_t,normalized_peak"
        columns = (np.ones_like(grid) if dist is None else peak_curve(dist, kappa, grid, spec),)
        if args.command == "adiabatic" and statistics is Statistics.FERMI:
            print(f"note: {_FERMI_ADIABATIC_NOTE}", file=sys.stderr)
    table = np.column_stack((grid, *columns))
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    text = header + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
    _write(args.output, lambda handle: handle.write(text))
    return 0


def _run_oracle(args) -> int:
    # Only this subcommand needs the oracle; no other command imports it.
    from .oracle import verification_suite

    results = verification_suite()
    n_pass = sum(result.passed for result in results)
    if args.json:
        import json

        rows = [
            {
                "name": result.name,
                "deviation": float(result.deviation),
                "tolerance": float(result.tolerance),
                "passed": bool(result.passed),
            }
            for result in results
        ]
        report = json.dumps(rows, indent=2) + "\n"
    else:
        width = max(len(result.name) for result in results)
        lines = []
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            lines.append(
                f"{status} {result.name:<{width}}  max deviation {result.deviation:.3e}"
                f"  tolerance {result.tolerance:.1e}"
            )
        lines.append(f"oracle suite: {n_pass}/{len(results)} checks passed")
        report = "\n".join(lines) + "\n"
    _write(args.output, lambda handle: handle.write(report))
    return 0 if n_pass == len(results) else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(args.output)
        return _run_oracle(args) if args.command == "oracle" else _run_csv(args)
    except ValueError as exc:
        print(f"dickeprobe: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array it could not allocate, e.g. an (L, L) grid at a huge --L
        print(f"dickeprobe: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"dickeprobe: error: cannot write {args.output}: {reason}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"dickeprobe: numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # main has reported the closed pipe; stdout goes to devnull so that
        # interpreter exit does not retry the write still held in its buffer
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    # Interpreter exit runs full collections over every tracked object (about
    # 21,000 after a curve, most of them made by the imports); frozen objects sit
    # in the permanent generation, which those collections skip.  main() and the
    # import leave the collector alone.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
