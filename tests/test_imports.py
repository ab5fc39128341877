"""The package runs on numpy alone.

No module under src/dickeprobe imports scipy, so numpy is its one runtime
dependency; scipy serves the tests only, as a reference.  Importing the
oracle cost more than the work of a typical command, so it is loaded only by
`dickeprobe oracle`.  The oracle builds its operators from numpy index
arrays: any scipy module would add import time and memory to every
`dickeprobe oracle` run.  Nor does it load numpy.ma, which numpy 2 imports
on a plain np.unique(x) call (about 16 ms), nor numpy.random (about 16 ms
and 5.7 MB of peak RSS): its check inputs come from the standard library's
`random`, which numpy itself imports.  Every command pays for what
`import dickeprobe.cli` loads, so that path adds nothing beyond the standard
library, numpy and the seven package modules the curve commands need.  The
checks run in a fresh interpreter, because this test session has imported
all of them already.
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _imported_modules(path: pathlib.Path) -> list[str]:
    """Every module an `import` or `from ... import` statement in `path` names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_source_imports_no_scipy():
    sources = sorted((SRC / "dickeprobe").glob("*.py"))
    assert sources
    offenders = {
        path.name: name
        for path in sources
        for name in _imported_modules(path)
        if name == "scipy" or name.startswith("scipy.")
    }
    assert offenders == {}

COMMANDS = """
import os, sys
import dickeprobe
from dickeprobe.cli import main

grid = ["--L", "4", "--steps", "5", "--kappa", "1,-1", "-o", os.devnull]
runs = [
    ["curve", "--statistics", "bose", "--state", "thermal:1"],
    ["curve", "--statistics", "bose", "--state", "partial:8,8"],
    ["curve", "--statistics", "fermi", "--state", "metallic"],
    ["quench", "--statistics", "fermi"],
    ["adiabatic", "--statistics", "fermi"],
    ["classical", "--statistics", "bose", "--state", "superfluid"],
    ["classical", "--statistics", "fermi", "--state", "thermal:2"],
]
for argv in runs:
    assert main([*argv, *grid]) == 0, argv
print("\\n".join(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.") or name == "dickeprobe.oracle"
))
"""


def _loaded_in_fresh_interpreter(code: str) -> list[str]:
    """The module names `code` prints, run in a new interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_non_oracle_commands_load_no_scipy():
    assert _loaded_in_fresh_interpreter(COMMANDS) == []


ORACLE_COMMAND = """
import os, sys
from dickeprobe.cli import main

assert main(["oracle", "-o", os.devnull]) == 0
print("\\n".join(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.") or name in ("numpy.ma", "numpy.random")
))
"""


@functools.lru_cache(maxsize=None)
def _oracle_command_modules() -> tuple[str, ...]:
    return tuple(_loaded_in_fresh_interpreter(ORACLE_COMMAND))


def test_oracle_command_loads_no_scipy():
    assert [name for name in _oracle_command_modules() if name.startswith("scipy")] == []


def test_oracle_command_loads_no_numpy_ma():
    assert "numpy.ma" not in _oracle_command_modules()


def test_oracle_command_loads_no_numpy_random():
    assert "numpy.random" not in _oracle_command_modules()


CLI_IMPORT = """
import sys
bare = set(sys.modules)
import dickeprobe.cli
print("\\n".join(
    name for name in set(sys.modules) - bare
    if name.partition(".")[0] not in sys.stdlib_module_names
    and name != "numpy" and not name.startswith("numpy.")
))
"""


def test_cli_import_adds_only_stdlib_numpy_and_the_curve_modules():
    package = ["classical", "cli", "correlators", "distributions", "emission", "lattice"]
    expected = ["dickeprobe"] + [f"dickeprobe.{name}" for name in package]
    assert sorted(_loaded_in_fresh_interpreter(CLI_IMPORT)) == expected
