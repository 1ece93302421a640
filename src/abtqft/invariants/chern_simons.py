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
# each of the 4r chi slices holds 3,200 r^2 points, so time grows as r^3;
# slices are evaluated in blocks, so memory stays near flat.  On a 2-vCPU
# host `bnr cs --refine 4` takes 1.2 s and 38 MB peak RSS, and refine 8
# takes 7.3 s and 46 MB; scenes and `bnr cs --refine` are held to this bound
MAX_REFINEMENT = 8
# points per _frame_density call; a block is whole theta rows of a slice
BLOCK_POINTS = 2048
# |cs| against the theta midpoint rule's closed form; measured <= 4.5e-16
# at r = 1..8, so a density fault of 1e-9 fails here although psi's 1e-6
# integrality gate would let it through
CERTIFICATE_TOLERANCE = 1e-12


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
    to a signed unit.  Each chi slice is evaluated in blocks of whole
    theta rows, so memory is bounded by BLOCK_POINTS; every per-point
    value and every slice sum is the one the whole-slice evaluation gives.

    Raises ArithmeticError unless |value| matches the theta midpoint
    rule's closed form (h/2)/sin(h/2), h = pi/n_theta, within
    CERTIFICATE_TOLERANCE (the density is constant in exact arithmetic).
    """
    n_chi, n_theta, n_phi = _grid_sizes(refinement)
    d_chi = math.pi / n_chi
    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    thetas = (np.arange(n_theta) + 0.5) * d_theta
    phis = (np.arange(n_phi) + 0.5) * d_phi
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    sin_theta = np.sin(theta_grid)
    rows = max(1, BLOCK_POINTS // n_phi)
    dens = np.empty_like(theta_grid)

    total = 0.0
    for i in range(n_chi):
        chi = (i + 0.5) * d_chi
        chi_grid = np.full_like(theta_grid, chi)
        for k in range(0, n_theta, rows):
            block = slice(k, k + rows)
            dens[block] = _frame_density(chi_grid[block], theta_grid[block],
                                         phi_grid[block])
        weights = (math.sin(chi) ** 2) * sin_theta
        total += float(np.sum(dens * weights)) * d_chi * d_theta * d_phi
    value = -total / (24.0 * math.pi ** 2)
    half = d_theta / 2.0
    gap = abs(abs(value) / (half / math.sin(half)) - 1.0)
    if not gap <= CERTIFICATE_TOLERANCE:
        raise ArithmeticError(
            f"quadrature {value!r} at refinement {refinement} misses the "
            f"midpoint closed form by more than {CERTIFICATE_TOLERANCE}")
    return value


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
