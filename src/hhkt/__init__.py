"""Hochschild cohomology of graded complete intersections over F_p.

Computes HH rings via Koszul-Tate resolutions, cross-checks them against a
window-truncated bar-complex oracle, and computes the BV operator on
Poincare duality (exterior) algebras with mechanical resolution of
filtration extension problems.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"


def lazy_module(name):
    """The submodule `name` (a full dotted name), registered in sys.modules
    and on its package without running it: its code is compiled and run on
    first attribute access.  An already imported module is returned as it
    is."""
    module = sys.modules.get(name)
    if module is None:
        spec = find_spec(name)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module
