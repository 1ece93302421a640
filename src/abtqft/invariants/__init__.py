"""The invariant pipelines.  The names from `psi` load with the package,
the others on first access, so `bnr table` never imports numpy."""

import importlib

from .. import SIGN_CONVENTION
from ..analytic import NonIntegralInvariant
from .psi import (psi, su_psi, InvariantResult, ParityCertificateError,
                  PSI_TOLERANCE, SU_TOLERANCE)

# the finest quadrature grid scenes and `bnr cs --refine` may ask for
# (its cost is stated in `chern_simons`); here, so that reading it loads
# no numpy
MAX_REFINEMENT = 8

_OWNER = {name: module for module, names in {
    "chern_simons": "cs_su2_quadrature sphere_volume_quadrature",
    "table": "Closed4Entry validate_table shipped_table spin_entries",
    "scenes": "BnrScene SuScene SuBounding eta_integral half_p1_integral "
              "tangent_bounding random_su_scene ProviderError IncompatibleScene",
}.items() for name in names.split()}


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
