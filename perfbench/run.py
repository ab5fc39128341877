#!/usr/bin/env python3
"""Benchmark of the dickeprobe command-line interface.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload catalog-L100 --seed 1 --seconds 25 --trace 0

One driver process issues `dickeprobe` commands one after another, each in a
fresh interpreter running the console-script entry point, as a user's shell
does: a closed loop with one client and no extra threads.  The workload's
command mix (see workloads.py) is one pass; a run makes one pass and goes on
through the mix until --seconds have passed.  Every output is checked (see
checks.py), and a command that exits non-zero or fails a check counts as
failed.

--trace 0 reports the end-to-end metrics: wall_s (one pass of the mix, each
command at its median over the run), cmd_p50_s (median command), setup_s
(median fresh `import dickeprobe.cli`), peak_rss_mb (largest child RSS from
wait4), plus error_rate on the text lines.
--trace 1 instead runs the mix in-process, alternating plain and
tracing.Tracer passes, and reports per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed,
metrics.  Artifacts (outputs, spans, environment record) go to
.perfbench_out/<workload>/; README.md beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_output, identity_errors
from tracing import LAYERS, layer_of
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCH = Path(__file__).resolve().parent

# what the `dickeprobe` console script executes
ENTRY = "from dickeprobe.cli import entrypoint; entrypoint()"
SETUP_REPEATS = 4
TRACE_ROUNDS = 2  # untraced and traced passes alternate, each side timed at its fastest
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run here (no source tree, broken import)."""


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline


@dataclass
class Outcome:
    cmd: Command
    wall_s: float
    rss_kb: int
    code: int
    errors: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, env, deadline: float) -> tuple[int, float, int]:
    """Run one child to completion; returns (exit code, wall seconds, max RSS in kB).

    The child is killed, and reported with exit code -9, if it is still
    running at the deadline.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or Ctrl-C: end the child before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """OpenBLAS thread count of the NumPy in use, or None if it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure_setup(env, workdir: Path, deadline: float) -> list[float]:
    """Wall times of fresh `import dickeprobe.cli`, after one untimed warm-up."""
    walls = []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _ = spawn(
            [sys.executable, "-c", "import dickeprobe.cli"],
            workdir / "setup.out", workdir / "setup.err", env, deadline,
        )
        if code != 0:
            raise BenchmarkError("`import dickeprobe.cli` failed: " + (workdir / "setup.err").read_text())
        if i:
            walls.append(wall)
    return walls


def run_command(cmd: Command, path: Path, env, deadline: float):
    """Run one command as its own `dickeprobe` process; returns its Outcome and checked values."""
    path.unlink(missing_ok=True)
    argv = [sys.executable, "-c", ENTRY, *cmd.argv(), "--output", str(path)]
    code, wall, rss = spawn(argv, path.with_name("cmd.stdout"), path.with_suffix(".err"), env, deadline)
    outcome = Outcome(cmd, wall, rss, code)
    return outcome, check_one(outcome, path)


def check_one(outcome: Outcome, path: Path):
    """Per-output checks; returns the parsed values, or None if there are none."""
    if outcome.code != 0:
        outcome.errors.append(f"exit code {outcome.code}")
        return None
    if not path.is_file():
        outcome.errors.append("no output file")
        return None
    values, errors = check_output(outcome.cmd, path.read_text())
    outcome.errors.extend(errors)
    return values


def check_outcomes(outcomes: list[Outcome], paths: list[Path]) -> None:
    """Per-output checks and the cross-path identities of one complete pass."""
    data = [check_one(outcome, path) for outcome, path in zip(outcomes, paths)]
    for i, errors in identity_errors([o.cmd for o in outcomes], data).items():
        outcomes[i].errors.extend(errors)


def timed_run(commands, seconds: float, workdir: Path, env, deadline: float, lines: list[str]) -> dict:
    """Run the mix's commands in turn, over and over, until `seconds` have passed.

    The clock starts before the set-up imports.  The first pass is always
    completed; after it the run stops at the first command that ends past
    `seconds`, so a run may close on a partial pass.  Each complete pass is
    also checked for the cross-path identities.

    On a shared machine the speed of every process drifts by tens of
    percent, on time scales from milliseconds to minutes.  The median of
    each command over the run, rather than its fastest time, is what stays
    put from run to run: how often a fast moment comes along is the part
    that varies most.
    """
    start = time.perf_counter()
    setup = measure_setup(env, workdir, deadline)
    n = len(commands)
    paths = [workdir / f"cmd{i:02d}.out" for i in range(n)]
    outcomes: list[Outcome] = []
    data = [None] * n
    while len(outcomes) < n or time.perf_counter() - start < seconds:
        i = len(outcomes) % n
        outcome, data[i] = run_command(commands[i], paths[i], env, deadline)
        outcomes.append(outcome)
        if i == n - 1:
            for j, errors in identity_errors(commands, data).items():
                outcomes[-n + j].errors.extend(errors)
    medians = []
    for i, cmd in enumerate(commands):
        runs = outcomes[i::n]
        medians.append(statistics.median(o.wall_s for o in runs))
        rss = max(o.rss_kb for o in runs) / 1024.0
        lines.append(f"  cmd #{i:<2} {medians[i]:8.3f} s {rss:7.1f} MB x{len(runs)}  {' '.join(cmd.argv())}")
    failed = sum(bool(o.errors) for o in outcomes)
    counts = sorted({len(outcomes[i::n]) for i in range(n)})
    repeats = f"{counts[0]}" if len(counts) == 1 else f"{counts[0]}-{counts[-1]}"
    metrics = {
        "wall_s": (sum(medians), "s", f"one pass of {n} commands, each its median of {repeats} runs"),
        "cmd_p50_s": (statistics.median(medians), "s", f"median of {n} commands, each its median of {repeats} runs"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports"),
        "peak_rss_mb": (max(o.rss_kb for o in outcomes) / 1024.0, "MB", f"max over {len(outcomes)} commands"),
        "error_rate": (failed / len(outcomes), "fraction", f"{failed} failed of {len(outcomes)} attempted"),
    }
    return _report(metrics, outcomes, lines, ("wall_s", "cmd_p50_s", "setup_s", "peak_rss_mb"))


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def import_times(env, workdir: Path, deadline: float) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime -c 'import dickeprobe.cli'`."""
    code, _, _ = spawn(
        [sys.executable, "-X", "importtime", "-c", "import dickeprobe.cli"],
        workdir / "importtime.out", workdir / "importtime.err", env, deadline,
    )
    text = (workdir / "importtime.err").read_text()
    if code != 0:
        raise BenchmarkError("`import dickeprobe.cli` failed: " + text)
    cumulative = {}
    for match in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", text, re.M):
        cumulative.setdefault(match.group(2), int(match.group(1)) / 1e6)
    return cumulative


def in_process(commands, workdir: Path, env, deadline: float) -> tuple[list[dict], list[Outcome]]:
    """TRACE_ROUNDS rounds of an untraced then a traced pass, in one fresh interpreter."""
    passes, paths = [], []
    for k in range(2 * TRACE_ROUNDS):
        sub = workdir / f"pass{k}"
        sub.mkdir(exist_ok=True)
        outs = [sub / f"cmd{i:02d}.out" for i in range(len(commands))]
        traced = k % 2 == 1
        passes.append(
            {
                "argvs": [[*cmd.argv(), "--output", str(out)] for cmd, out in zip(commands, outs)],
                "traced": traced,
                "spans": str(sub / "spans.npz") if traced else None,
            }
        )
        paths.append(outs)
    job = workdir / "job.json"
    job.write_text(json.dumps({"passes": passes, "result": str(workdir / "result.json")}))
    code, _, _ = spawn(
        [sys.executable, str(BENCH / "tracing.py"), str(job)],
        workdir / "inproc.out", workdir / "inproc.err", env, deadline,
    )
    if code != 0:
        raise BenchmarkError("in-process run failed: " + (workdir / "inproc.err").read_text()[-2000:])
    results = json.loads((workdir / "result.json").read_text())
    outcomes = []
    for result, outs in zip(results, paths):
        done = [Outcome(cmd, wall, 0, rc) for cmd, wall, rc in zip(commands, result["walls"], result["codes"])]
        check_outcomes(done, outs)
        if not result["restored"]:
            for outcome in done:
                outcome.errors.append("tracer left package functions replaced")
        result["csv_bytes"] = sum(out.stat().st_size for out in outs if out.is_file())
        outcomes.extend(done)
    return results, outcomes


ORACLE_STAGES = {
    "basis": "oracle.FockBasis.__init__",
    "hamiltonian": "oracle.build_lattice_hamiltonian",
    "eigh": "oracle.Propagator.__init__",
    "advance": "oracle.Propagator.advance",
    "correlator_case": "oracle.correlator_case_value",
}


def layer_metrics(summary: dict, commands: list[Command], csv_bytes: int) -> dict:
    names = summary["names"]
    calls = Counter(dict.fromkeys(LAYERS, 0))
    self_s = Counter(dict.fromkeys(LAYERS, 0.0))
    for name, row in names.items():
        calls[layer_of(name)] += row["calls"]
        self_s[layer_of(name)] += row["self_s"]
    total = lambda name: names.get(name, {}).get("total_s", 0.0)
    evals = sum(cmd.kernel_terms for cmd in commands)
    metrics = {
        "cli.self_s": (self_s["cli"], "s"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
    }
    for layer in ("lattice", "distributions", "emission", "classical", "correlators"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["emission.mode_time_evals"] = (evals, "count")
    metrics["emission.evals_per_s"] = (evals / self_s["emission"] if self_s["emission"] > 0 else 0.0, "1/s")
    for stage in ("basis", "hamiltonian", "eigh"):
        metrics[f"oracle.{stage}_s"] = (total(ORACLE_STAGES[stage]), "s")
    for stage in ("advance", "correlator_case"):
        metrics[f"oracle.{stage}_calls"] = (names.get(ORACLE_STAGES[stage], {}).get("calls", 0), "count")
        metrics[f"oracle.{stage}_s"] = (total(ORACLE_STAGES[stage]), "s")
    metrics["oracle.self_s"] = (self_s["oracle"], "s")
    return metrics


def traced_run(commands, workdir: Path, env, deadline: float, lines: list[str]) -> dict:
    imports = import_times(env, workdir, deadline)
    results, outcomes = in_process(commands, workdir, env, deadline)
    fastest = lambda traced: [
        min(walls) for walls in zip(*(r["walls"] for r in results if r["traced"] == traced))
    ]
    # layers come from the least disturbed traced pass
    traced = min((r for r in results if r["traced"]), key=lambda r: sum(r["walls"]))
    summary = traced["trace"]
    traced_wall = sum(traced["walls"])
    metrics = {
        "cli.import_s": (imports.get("dickeprobe.cli", 0.0), "s"),
        "cli.import.scipy_special_s": (imports.get("scipy.special", 0.0), "s"),
        "cli.import.oracle_s": (imports.get("dickeprobe.oracle", 0.0), "s"),
    }
    metrics.update(layer_metrics(summary, commands, traced["csv_bytes"]))
    self_total = sum(row["self_s"] for row in summary["names"].values())
    metrics.update(
        {
            "trace.overhead_frac": (sum(fastest(True)) / sum(fastest(False)) - 1.0, "fraction"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.self_sum_frac": (self_total / traced_wall, "fraction"),
            "trace.spans": (summary["spans"], "count"),
        }
    )
    metrics = {name: (*value, "") for name, value in metrics.items()}
    return _report(metrics, outcomes, lines, tuple(metrics))


# ---------------------------------------------------------------------------


def _report(metrics: dict, outcomes: list[Outcome], lines: list[str], reported: tuple[str, ...]) -> dict:
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name:<28} {value:>16.6g} {unit:<9} {note}".rstrip())
    for i, outcome in enumerate(outcomes):
        for error in outcome.errors:
            lines.append(f"FAIL #{i} {outcome.cmd.label}: {error}")
    failed = sum(bool(o.errors) for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_term)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not (SRC / "dickeprobe" / "cli.py").is_file():
        print(f"perfbench: no dickeprobe source tree at {SRC}", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload](args.seed)
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    record = environment()
    (workdir / "environment.json").write_text(json.dumps(record, indent=1))
    lines = [
        "environment " + json.dumps(record),
        f"workload {args.workload} seed {args.seed}: a pass is {len(commands)} command(s),"
        " closed loop, 1 client",
    ]
    try:
        if args.trace:
            result = traced_run(commands, workdir, env, deadline, lines)
        else:
            result = timed_run(commands, args.seconds, workdir, env, deadline, lines)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
