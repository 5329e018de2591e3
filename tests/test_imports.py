"""Start-up guards.  Importing hhkt.cli registers every module of the
package, but runs only those that every command needs (algebra, bigraded,
fields); each other module is compiled and run when a command first reads
from it, so a process pays only for the modules its command uses.  What
those modules import is paid by every process: records are
collections.namedtuple, which needs neither dataclasses (and with it
inspect, ast, dis and tokenize) nor typing."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hhkt

SRC = pathlib.Path(hhkt.__file__).resolve().parent
LIST_MODULES = "import sys; print('\\n'.join(sorted(sys.modules)))"


def _modules_after(prelude):
    proc = subprocess.run(
        [sys.executable, "-c", prelude + LIST_MODULES],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return set(proc.stdout.split())


def test_cli_import_adds_no_dataclasses_or_inspect():
    """Compared with a bare interpreter, so a module that site already
    loads here (typing, through a .pth file) does not count against hhkt."""
    bare = _modules_after("")
    after = _modules_after("import hhkt.cli; ")
    added = after - bare
    assert "dataclasses" not in added
    assert "inspect" not in added
    # the benchmark tracer looks its targets up in sys.modules, so every
    # module must be there, if only as a lazy handle that the lookup runs
    package = {f"hhkt.{path.stem}" for path in SRC.glob("*.py")
               if path.stem != "__init__"}
    assert package <= added


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_no_module_imports_dataclasses_or_typing():
    offenders = sorted(
        (path.name, name) for path in SRC.rglob("*.py")
        for name in _imported_modules(ast.parse(path.read_text("utf-8")))
        if name in ("dataclasses", "typing"))
    assert offenders == []


LAZY = {"hhkt.bar", "hhkt.bv", "hhkt.koszul_tate", "hhkt.render",
        "hhkt.spectral", "hhkt.verify"}
# runs hhkt with its output discarded, then prints the exit code and the
# modules still waiting for their first attribute access (type() does not
# touch the module, so it runs none of them)
NOT_RUN_AFTER_MAIN = """
import io, sys, types
import hhkt.cli
sys.stdout = io.StringIO()
code = hhkt.cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code)
print(*sorted(name for name, module in sys.modules.items()
              if type(module) is not types.ModuleType
              and name.startswith("hhkt.")))
"""
EXT2_DEG5 = {
    "characteristic": 2,
    "generators": [{"name": "y1", "degree": 5, "kind": "exterior"},
                   {"name": "y2", "degree": 5, "kind": "exterior"}],
    "relations": [],
    "window": {"max_filtration": 3, "q_min": -18, "q_max": 10},
}


def _not_run_after(argv):
    proc = subprocess.run(
        [sys.executable, "-c", NOT_RUN_AFTER_MAIN, *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    code, *names = proc.stdout.split()
    return int(code), set(names)


# the bv command's report lives in bv, the oracle comparison in bar and the
# text rendering in render, so a JSON compute compiles none of them
@pytest.mark.parametrize("command, not_run", [
    ("compute", {"hhkt.bar", "hhkt.bv", "hhkt.render", "hhkt.verify"}),
    ("oracle", {"hhkt.bv", "hhkt.render", "hhkt.spectral", "hhkt.verify"}),
])
def test_a_command_runs_only_the_modules_it_uses(tmp_path, command, not_run):
    path = tmp_path / "ext2_deg5.json"
    path.write_text(json.dumps(EXT2_DEG5))
    code, lazy = _not_run_after([command, "--input", str(path)])
    assert code == 0
    assert not_run <= lazy
    assert "hhkt.koszul_tate" not in lazy  # the probe sees a module run


def test_an_input_error_runs_no_lazy_module(tmp_path):
    """main maps every error to an exit code from classes defined in the
    modules it runs eagerly, so a failed command loads nothing more."""
    path = tmp_path / "malformed.json"
    path.write_text('{"characteristic": 2,')
    code, lazy = _not_run_after(["compute", "--input", str(path)])
    assert code == 1
    assert lazy == LAZY


def test_text_format_runs_the_renderer(tmp_path):
    path = tmp_path / "ext2_deg5.json"
    path.write_text(json.dumps(EXT2_DEG5))
    code, lazy = _not_run_after(["compute", "--input", str(path),
                                 "--format", "text"])
    assert code == 0
    assert "hhkt.render" not in lazy
    assert {"hhkt.bar", "hhkt.bv", "hhkt.verify"} <= lazy
