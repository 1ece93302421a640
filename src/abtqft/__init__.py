"""Abelian-group-valued TQFT computations.

Exact finitely generated abelian groups, the symmetric monoidal
categories of group morphisms with their homotopy fibers, discrete
differential geometry with lattice circle connections, and the mod-24
and mod-2 bordism invariant pipelines built on top of them.  Each
subpackage is imported on first access.
"""

import importlib

__version__ = "0.1.0"
SIGN_CONVENTION = "psi(S3-Lie,D4-flat)=+1"
_SUBPACKAGES = "analytic discrete fgab intmat invariants moncat".split()


def __getattr__(name):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
