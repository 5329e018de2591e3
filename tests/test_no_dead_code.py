"""Every function, method and class defined in src/hhkt has a caller.

A name counts as used when it appears in code (a name, an attribute, or a
string such as a benchmark target) anywhere in src, tests, scripts or
perfbench, outside the body of its own definition.  Docstrings, imports
and dunder methods do not count.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "scripts", "perfbench")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files():
    for top in SEARCHED:
        yield from sorted((ROOT / top).rglob("*.py"))


def _definitions(tree):
    """Top-level defs and classes, and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name


class _References(ast.NodeVisitor):
    """Counts identifier uses, skipping those inside the body of a def or
    class with the same name (recursion is not a caller)."""

    def __init__(self, counts):
        self.counts = counts
        self.enclosing = []
        self.docstrings = set()

    def _use(self, name):
        if name not in self.enclosing:
            self.counts[name] = self.counts.get(name, 0) + 1

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
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and id(node) not in self.docstrings:
            for name in IDENT.findall(node.value):
                self._use(name)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def test_every_definition_is_used():
    counts = {}
    defined = set()
    for path in _python_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if (ROOT / "src") in path.parents:
            defined.update(_definitions(tree))
        _References(counts).visit(tree)
    unused = sorted(name for name in defined
                    if not (name.startswith("__") and name.endswith("__"))
                    and not counts.get(name))
    assert unused == [], f"defined but never used: {unused}"


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
