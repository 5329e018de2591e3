"""Every function, method and class defined in src/hhkt has a caller, and
one that the program reaches: src, scripts, or perfbench code.

A function or class counts as used when its name appears in code (a name,
an attribute, or a string such as a benchmark target) anywhere in src,
tests, scripts or perfbench, outside the body of its own definition.  A
method counts as used only when it is read as an attribute (``.name``),
when a string names it ``Class.method``, or when it overrides a method of
a base class from outside the package, which that base calls (argparse
calls ``error``); a bare name of the same spelling does not count, nor
does an attribute read ``m.name`` where ``m`` is a module handle of that
file (bound by ``import``, by ``from ... import <module>`` or by ``=
lazy_module(...)``).  Docstrings, imports and dunder methods do not count.
A second pass leaves out the tests and the strings of perfbench (its trace
targets), so that code only a test or a stale benchmark target names is
dead there.
"""

import ast
import importlib.util
import pathlib
import re
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "scripts", "perfbench")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _definitions(tree):
    """Top-level defs and classes as (name, None), and the methods of
    top-level classes as (name, class name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, node.name


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # a parent that is not a package
        return False


def _module_handles(tree, package):
    """The names a file binds to modules: by import, by from ... import
    of a submodule (relative imports resolved in package) or by assignment
    from lazy_module(...)."""
    handles = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            handles.update(alias.asname or alias.name.partition(".")[0]
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package)
            handles.update(alias.asname or alias.name for alias in node.names
                           if _is_module(f"{base}.{alias.name}"))
        elif isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and node.value.func.id == "lazy_module":
            for target in node.targets:
                handles.update(_bound_names(target))
    return handles


class _References(ast.NodeVisitor):
    """Counts identifier uses, skipping those inside the body of a def or
    class with the same name (recursion is not a caller): every use in
    ``names``, attribute reads in ``attributes`` (not those of a module
    handle), and ``Class.method`` pairs named in strings in
    ``qualified``; strings count only when ``strings`` is true."""

    def __init__(self, names, attributes, qualified, handles, strings):
        self.names = names
        self.attributes = attributes
        self.qualified = qualified
        self.handles = handles
        self.strings = strings
        self.enclosing = []
        self.docstrings = set()

    def _use(self, name, counts):
        if name not in self.enclosing:
            counts[name] = counts.get(name, 0) + 1

    def _scope(self, node):
        body = getattr(node, "body", [])
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            self.docstrings.add(id(body[0].value))
        if isinstance(node, ast.Module):
            self.generic_visit(node)
            return
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_Module = visit_FunctionDef = visit_ClassDef = _scope

    def visit_Name(self, node):
        self._use(node.id, self.names)

    def visit_Attribute(self, node):
        self._use(node.attr, self.names)
        if isinstance(node.ctx, ast.Load) and not (
                isinstance(node.value, ast.Name)
                and node.value.id in self.handles):
            self._use(node.attr, self.attributes)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str) \
                and id(node) not in self.docstrings:
            for name in IDENT.findall(node.value):
                self._use(name, self.names)
            for dotted in DOTTED.findall(node.value):
                parts = dotted.split(".")
                self.qualified.update(zip(parts, parts[1:]))

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def _overrides_outside_package(module, cls, method):
    """Whether a base class of module.cls from outside the package defines
    method, so that the base calls the override."""
    bases = getattr(importlib.import_module(module), cls).__mro__[1:]
    return any(method in vars(base) for base in bases
               if base.__module__.partition(".")[0] != "hhkt")


def _unused(sources):
    """The definitions that nothing uses, as names or Class.method, over
    (module, package, source text, strings count) tuples: the definitions
    of the sources whose module is not None, the uses of all of them."""
    names, attributes, qualified = {}, {}, set()
    defined = set()
    for module, package, text, strings in sources:
        tree = ast.parse(text)
        if module is not None:
            defined.update((module, cls, name)
                           for name, cls in _definitions(tree))
        _References(names, attributes, qualified,
                    _module_handles(tree, package), strings).visit(tree)
    unused = []
    for module, cls, name in sorted(defined, key=str):
        if name.startswith("__") and name.endswith("__"):
            continue
        if cls is None:
            used = names.get(name)
        else:
            used = (attributes.get(name) or (cls, name) in qualified
                    or _overrides_outside_package(module, cls, name))
        if not used:
            unused.append(name if cls is None else f"{cls}.{name}")
    return unused


def _sources(tops=SEARCHED, strings=SEARCHED):
    """(module, package, text, strings count) of every file under the
    given top directories; module is the dotted name of a file under src,
    else None, and strings count in the files under strings."""
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            base = ROOT / "src" if top == "src" else ROOT
            parts = path.relative_to(base).with_suffix("").parts
            module = ".".join(parts) if top == "src" else None
            yield (module, ".".join(parts[:-1]),
                   path.read_text(encoding="utf-8"), top in strings)


def test_every_definition_is_used():
    unused = _unused(_sources())
    assert unused == [], f"defined but never used: {unused}"


def test_every_definition_is_used_by_the_program():
    """What only the tests or a perfbench trace target name is dead code;
    perfbench code (its size measures read matrices) still counts."""
    unused = _unused(_sources(("src", "scripts", "perfbench"),
                              strings=("src", "scripts")))
    assert unused == [], f"used only by tests or trace targets: {unused}"


# each dead method shares its name with a function read through a module
# handle, one handle per way of binding it
PROBE = """
import hhkt.koszul_tate as kt
from hhkt import lazy_module, spectral

verify_suite = lazy_module("hhkt.verify")


class _Probe:
    def collapse_certificate(self):
        return None

    def hh_via_kt(self):
        return None

    def run_suite(self):
        return None

    def used(self):
        return None


def run(A, window):
    _Probe().used()
    ring = kt.hh_via_kt(A, window)
    return spectral.collapse_certificate(ring), verify_suite.run_suite()


RUNNERS = [run]
"""


def test_a_method_read_only_through_a_module_handle_is_dead(monkeypatch):
    probe = types.ModuleType("_probe")
    exec(compile(PROBE, "_probe.py", "exec"), vars(probe))
    monkeypatch.setitem(sys.modules, "_probe", probe)
    assert _unused([("_probe", "", PROBE, True)]) == [
        "_Probe.collapse_certificate", "_Probe.hh_via_kt",
        "_Probe.run_suite"]


def _bound_names(node):
    """The names one binding target stores to."""
    return [n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _bindings(func):
    """(line, names) for each binding in a function: assignments,
    augmented assignments, for and comprehension targets and except ... as
    clauses."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield node.lineno, _bound_names(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            yield node.lineno, _bound_names(node.target)
        elif isinstance(node, ast.comprehension):
            yield node.target.lineno, _bound_names(node.target)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.lineno, [node.name]


def test_every_binding_is_read():
    """In each function under src/hhkt, every name a binding stores to,
    each name of an unpacking target included, is read by the function
    (or a function nested in it); names starting with _ are exempt."""
    unread = []
    for path in sorted((ROOT / "src" / "hhkt").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for n in ast.walk(func)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for line, names in _bindings(func):
                names = [n for n in names
                         if not n.startswith("_") and n not in read]
                if names:
                    unread.append(f"{path.name}:{line} {func.name}: "
                                  f"{', '.join(names)}")
    assert unread == [], f"bound but never read: {unread}"
