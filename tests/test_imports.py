"""Start-up guards: every hhkt command imports the whole package, so what
the package imports is paid by every process.  Records are
collections.namedtuple, which needs neither dataclasses (and with it
inspect, ast, dis and tokenize) nor typing."""

import ast
import os
import pathlib
import subprocess
import sys

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
    # the benchmark tracer relies on hhkt.cli importing every module
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
