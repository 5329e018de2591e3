"""Every backticked dotted name in README.md whose head is an hhkt module
(or the package itself) or a class defined in src/hhkt names something
that exists: a module attribute, reached through getattr, or for
``Class.name`` a class attribute or a ``self.name`` that the class, or a
base class in the package, assigns.  Fenced code blocks are not read."""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hhkt"
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _classes():
    """{class name: (module name, names it assigns as self.name)} over the
    top-level classes of src/hhkt."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                assigned = {
                    target.attr for sub in ast.walk(node)
                    for target in ast.walk(sub)
                    if isinstance(sub, (ast.Assign, ast.AugAssign,
                                        ast.AnnAssign))
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"}
                out[node.name] = (f"hhkt.{path.stem}", assigned)
    return out


CLASSES = _classes()
MODULES = {"hhkt"} | {f"hhkt.{p.stem}" for p in SRC.glob("*.py")
                      if p.stem != "__init__"}


def _readme_names():
    """The dotted names in inline code spans of README.md, outside fenced
    blocks, whose head is an hhkt module or a class of src/hhkt."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                  flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        for dotted in DOTTED.findall(span):
            head = dotted.partition(".")[0]
            if head in CLASSES or head == "hhkt" \
                    or f"hhkt.{head}" in MODULES:
                names.add(dotted)
    return sorted(names)


def _resolves(dotted):
    head, *rest = dotted.split(".")
    if head in CLASSES:
        module, _ = CLASSES[head]
        cls = getattr(importlib.import_module(module), head)
        (name,) = rest
        return hasattr(cls, name) or any(
            name in CLASSES[base.__name__][1] for base in cls.__mro__
            if base.__module__.startswith("hhkt") and base.__name__ in CLASSES)
    obj = importlib.import_module(head if head == "hhkt" else f"hhkt.{head}")
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


README_NAMES = _readme_names()


def test_readme_names_some():
    assert len(README_NAMES) >= 30, README_NAMES


@pytest.mark.parametrize("dotted", README_NAMES)
def test_readme_name_resolves(dotted):
    assert _resolves(dotted), f"README.md names {dotted}, which does not exist"
