from .complexes import CellComplex, ComplexError, triangulated_grid
from .cochains import (Cochain, DegreeError, coboundary, integrate,
                       check_stokes)
from .connections import (LatticeConnection, holonomy, total_curvature,
                          chern_number, holonomy_curvature_gap,
                          NonCycleError)
from .surfaces import (MetricSurface, TangentBundle, PuncturedSurface,
                       tangent_connection, DegenerateTriangle, NotClosed,
                       icosahedron,
                       flat_torus, equilateral_torus, flipped_torus,
                       hex_sphere, pent_sphere, genus2_surface)
