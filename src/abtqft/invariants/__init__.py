from .chern_simons import cs_su2_quadrature, sphere_volume_quadrature
from .table import (Closed4Entry, validate_table, shipped_table,
                    spin_entries)
from .scenes import (BnrScene, SuScene, SuBounding, eta_integral,
                     half_p1_integral, tangent_bounding, random_su_scene,
                     build_mesh, ProviderError, IncompatibleScene,
                     SIGN_CONVENTION)
from .psi import (psi, su_psi, InvariantResult, NonIntegralInvariant,
                  ParityCertificateError, PSI_TOLERANCE, SU_TOLERANCE)
