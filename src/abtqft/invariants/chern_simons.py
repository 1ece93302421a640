"""Quadrature of the SU(2) winding form over the unit 3-sphere.

The 3-sphere is identified with SU(2) through unit quaternions; the
integrand is the pulled-back Maurer-Cartan 3-form tr(g^-1 dg)^3 evaluated
pointwise on an orthonormal frame (no finite differences), normalized by
-1/(24 pi^2) so the exact value is the degree +-1 of the identity map.

The grid is a midpoint product rule in hyperspherical angles.  The chi
and phi sums are exact for the round volume element (trigonometric
polynomials over a full period), so the only quadrature error is the
theta direction, whose composite midpoint rule overestimates sin and
converges monotonically from above.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI_SQ = 2.0 * math.pi ** 2
# each of the 4r chi slices holds 3,200 r^2 points, so time grows as r^3
# and memory as r^2: on a 2-vCPU host refinement 4 takes about 2.5 s, and
# 8 about 20 s and +165 MB (extrapolated from r = 1..3); scenes and
# `bnr cs --refine` are held to this bound
MAX_REFINEMENT = 8


def _grid_sizes(refinement):
    if not 1 <= refinement <= MAX_REFINEMENT:
        raise ValueError(f"refinement {refinement!r} is not in "
                         f"1..{MAX_REFINEMENT}")
    n = int(refinement)
    return 4 * n, 800 * n, 4 * n


def _su2(q0, q1, q2, q3):
    """Unit quaternion (or tangent vector) as a 2x2 complex matrix."""
    m = np.empty(q0.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = q0 + 1j * q3
    m[..., 0, 1] = q2 + 1j * q1
    m[..., 1, 0] = -q2 + 1j * q1
    m[..., 1, 1] = q0 - 1j * q3
    return m


def _dagger(m):
    return np.conjugate(np.swapaxes(m, -1, -2))


def _frame_density(chi, theta, phi):
    """Winding-form density against the oriented orthonormal frame.

    Frame: normalized chi, theta, phi coordinate vectors.  Returns the
    value of tr(theta_MC ^ 3) on that frame (a real scalar per point).
    """
    schi, cchi = np.sin(chi), np.cos(chi)
    sth, cth = np.sin(theta), np.cos(theta)
    sph, cph = np.sin(phi), np.cos(phi)

    q = _su2(cchi, schi * cth, schi * sth * cph, schi * sth * sph)
    e_chi = _su2(-schi, cchi * cth, cchi * sth * cph, cchi * sth * sph)
    zeros = np.zeros_like(chi)
    e_theta = _su2(zeros, -sth, cth * cph, cth * sph)
    e_phi = _su2(zeros, zeros, -sph, cph)

    qi = _dagger(q)
    t1 = qi @ e_chi
    t2 = qi @ e_theta
    t3 = qi @ e_phi
    comm = t2 @ t3 - t3 @ t2
    dens = 3.0 * np.einsum("...ij,...ji->...", t1, comm)
    return np.real(dens)


def cs_su2_quadrature(refinement):
    """Numerical winding number of the identity map of SU(2).

    Midpoint product quadrature of -(1/24 pi^2) tr(theta^3) over the
    round 3-sphere at the given refinement level; converges monotonically
    to a signed unit.
    """
    n_chi, n_theta, n_phi = _grid_sizes(refinement)
    d_chi = math.pi / n_chi
    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    thetas = (np.arange(n_theta) + 0.5) * d_theta
    phis = (np.arange(n_phi) + 0.5) * d_phi
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")

    total = 0.0
    for i in range(n_chi):
        chi = (i + 0.5) * d_chi
        chi_grid = np.full_like(theta_grid, chi)
        dens = _frame_density(chi_grid, theta_grid, phi_grid)
        weights = (math.sin(chi) ** 2) * np.sin(theta_grid)
        total += float(np.sum(dens * weights)) * d_chi * d_theta * d_phi
    return -total / (24.0 * math.pi ** 2)


def sphere_volume_quadrature(refinement):
    """The same grid integrating the constant 1; converges to 2 pi^2."""
    n_chi, n_theta, n_phi = _grid_sizes(refinement)
    d_chi = math.pi / n_chi
    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    s_chi = sum(math.sin((i + 0.5) * d_chi) ** 2 for i in range(n_chi)) * d_chi
    s_theta = sum(math.sin((k + 0.5) * d_theta)
                  for k in range(n_theta)) * d_theta
    return s_chi * s_theta * (n_phi * d_phi)
