"""Span tracing of dickeprobe from outside the package, and the in-process runner.

`Tracer.install()` replaces every public function of the package's modules,
and the public methods and `__init__` of their public classes, with a timing
wrapper.  A function is replaced in every module namespace that binds it, so
`dephasing_rates` is traced whether lattice, emission or classical calls it,
and `emission_curve` whether emission or cli calls it.  Each call records one
span: name, start, end and the enclosing span, so spans nest under
`cli.main`.  Spans stay in memory until `write()`; `uninstall()` puts every
original object back.  The package's files are not touched.

Run as a script with a job file, it executes passes of CLI commands in this
process through `dickeprobe.cli.main`, each with or without the tracer, and
writes the per-command wall times (and span summaries) as JSON:

    python3 perfbench/tracing.py JOB.json
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import traceback
from array import array
from enum import Enum
from pathlib import Path

import numpy as np

PACKAGE = "dickeprobe"
LAYERS = ("cli", "lattice", "distributions", "correlators", "emission", "classical", "oracle")


def _modules():
    package = importlib.import_module(PACKAGE)
    return [package] + [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]


def _traceable_class(obj, module) -> bool:
    # NamedTuples, enums and exceptions are values, not layer boundaries
    return (
        inspect.isclass(obj)
        and obj.__module__ == module.__name__
        and not issubclass(obj, (tuple, Enum, BaseException))
    )


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _targets():
    """(namespace, attribute, function, span name) for every binding the tracer replaces."""
    for module in _modules():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith(f"{PACKAGE}."):
                yield module, attr, obj, f"{_layer(obj.__module__)}.{obj.__name__}"
            elif _traceable_class(obj, module):
                for method, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (method == "__init__" or not method.startswith("_")):
                        yield obj, method, fn, f"{_layer(module.__name__)}.{attr}.{method}"


def snapshot() -> dict[tuple[str, str], int]:
    """Identity of every object the tracer may replace, to prove it was restored."""
    return {
        (getattr(namespace, "__name__", ""), attr): id(fn) for namespace, attr, fn, _ in _targets()
    }


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Timing wrappers around the package's public callables, with spans kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for namespace, attr, fn, span_name in _targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, span_name)
            self._saved.append((namespace, attr, fn))
            setattr(namespace, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, fn = self._saved.pop()
            setattr(namespace, attr, fn)

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=float),
            np.frombuffer(self.end, dtype=float),
        )

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name, and the root spans' total.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the root spans.
        """
        name_id, parent, start, end = self._arrays()
        duration = end - start
        nested = parent >= 0
        children = np.zeros(len(duration))
        np.add.at(children, parent[nested], duration[nested])
        own = duration - children
        count = len(self.names)
        calls = np.bincount(name_id, minlength=count)
        total = np.bincount(name_id, weights=duration, minlength=count)
        self_s = np.bincount(name_id, weights=own, minlength=count)
        return {
            "spans": int(len(duration)),
            "root_s": float(duration[~nested].sum()),
            "names": {
                name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)
                if calls[i]
            },
        }

    def write(self, path: Path) -> None:
        name_id, parent, start, end = self._arrays()
        with open(path, "wb") as handle:
            np.savez(handle, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)


def run_pass(argvs: list[list[str]], traced: bool, spans_path: Path | None = None) -> dict:
    """Call dickeprobe.cli.main once per argv in this process and time each call."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    before = snapshot()
    tracer = Tracer() if traced else None
    walls, codes = [], []
    if tracer is not None:
        tracer.install()
    try:
        for argv in argvs:
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crashing command fails alone, as it would in its own process
                traceback.print_exc()
                code = 1
            walls.append(time.perf_counter() - t0)
            codes.append(code)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"traced": traced, "walls": walls, "codes": codes, "restored": snapshot() == before}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv: list[str]) -> int:
    """Run the passes of a job file in order and write their results as JSON.

    The job is {"passes": [{"argvs": [...], "traced": bool, "spans": path or null}],
    "result": path}.
    """
    job = json.loads(Path(argv[0]).read_text())
    results = [
        run_pass(p["argvs"], p["traced"], Path(p["spans"]) if p.get("spans") else None)
        for p in job["passes"]
    ]
    Path(job["result"]).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
