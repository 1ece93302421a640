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

from ..analytic import as_int
from . import MAX_REFINEMENT

TWO_PI_SQ = 2.0 * math.pi ** 2
# points per _frame_density call; a block is whole theta rows of a slice
BLOCK_POINTS = 2048
# |cs| against the theta midpoint rule's closed form; measured <= 4.5e-16
# at r = 1..8, so a density fault of 1e-9 fails here although psi's 1e-6
# integrality gate would let it through
CERTIFICATE_TOLERANCE = 1e-12


# each of the 4r chi slices holds 3,200 r^2 points, so time grows as r^3;
# slices are evaluated in blocks, so memory stays near flat.  On a shared
# 2-vCPU host `abtqft bnr cs --refine 4` takes 1.6 s and 32 MB peak RSS,
# and refine 8 takes 12.0 s and 39 MB (median wall time of fresh
# processes, peak RSS from `os.wait4`); scenes and `bnr cs --refine` are
# held to MAX_REFINEMENT
def _grid_sizes(refinement):
    n = as_int(refinement, "refinement")
    if not 1 <= n <= MAX_REFINEMENT:
        raise ValueError(f"refinement {n!r} is not in 1..{MAX_REFINEMENT}")
    return 4 * n, 800 * n, 4 * n


class _Buffers:
    """Every temporary of a `_frame_density` call on up to `points`
    points, allocated once; a call on fewer points uses leading parts."""

    def __init__(self, points):
        self.real = np.empty((5, points))
        self.zeros = np.zeros(points)
        self.line = np.empty((2, points), dtype=complex)
        self.mats = np.empty((5, points, 2, 2), dtype=complex)
        self.trace = np.empty(points, dtype=complex)

    def views(self, shape):
        """The buffers as C-contiguous arrays of `shape` points."""
        n = math.prod(shape)
        return ([a[:n].reshape(shape) for a in self.real],
                self.zeros[:n].reshape(shape),
                [a[:n].reshape(shape) for a in self.line],
                [a[:n].reshape(shape + (2, 2)) for a in self.mats],
                self.trace[:n].reshape(shape))


def _su2(q0, q1, q2, q3, out, i_q1, i_q3, neg):
    """Unit quaternions (or tangent vectors) as 2x2 complex matrices,
    written into `out`; `i_q1`, `i_q3` (complex) and `neg` (real) are
    scratch of the operands' shape."""
    np.multiply(1j, q3, out=i_q3)
    np.add(q0, i_q3, out=out[..., 0, 0])
    np.multiply(1j, q1, out=i_q1)
    np.add(q2, i_q1, out=out[..., 0, 1])
    np.add(np.negative(q2, out=neg), i_q1, out=out[..., 1, 0])
    np.subtract(q0, i_q3, out=out[..., 1, 1])
    return out


def _frame_density(schi, cchi, sth, cth, sph, cph, buffers):
    """Winding-form density against the oriented orthonormal frame.

    Frame: normalized chi, theta, phi coordinate vectors, given by the
    sines and cosines of the three angles (same-shaped C-contiguous
    arrays).  Returns the value of tr(theta_MC ^ 3) on that frame (a real
    scalar per point), a view into `buffers`: a `_Buffers` of at least
    that many points.
    """
    (p0, p1, p2, p3, neg), zeros, (i_q1, i_q3), mats, trace = (
        buffers.views(schi.shape))
    q, e_chi, e_theta, e_phi, qi_t = mats
    scratch = (i_q1, i_q3, neg)

    np.multiply(schi, cth, out=p1)
    np.multiply(np.multiply(schi, sth, out=p3), cph, out=p2)
    _su2(cchi, p1, p2, np.multiply(p3, sph, out=p3), q, *scratch)
    np.negative(schi, out=p0)
    np.multiply(cchi, cth, out=p1)
    np.multiply(np.multiply(cchi, sth, out=p3), cph, out=p2)
    _su2(p0, p1, p2, np.multiply(p3, sph, out=p3), e_chi, *scratch)
    np.multiply(cth, cph, out=p2)
    np.multiply(cth, sph, out=p3)
    _su2(zeros, np.negative(sth, out=p1), p2, p3, e_theta, *scratch)
    _su2(zeros, zeros, np.negative(sph, out=p2), cph, e_phi, *scratch)

    # the conjugate transpose, laid out as np.conjugate lays out a
    # transposed view; each product goes to a buffer its operands no
    # longer need
    qi = np.conjugate(q, out=qi_t).swapaxes(-1, -2)
    t1 = np.matmul(qi, e_chi, out=q)
    t2 = np.matmul(qi, e_theta, out=e_chi)
    t3 = np.matmul(qi, e_phi, out=e_theta)
    comm = np.matmul(t2, t3, out=qi_t)
    np.subtract(comm, np.matmul(t3, t2, out=e_phi), out=comm)
    np.einsum("...ij,...ji->...", t1, comm, out=trace)
    return np.real(np.multiply(3.0, trace, out=trace))


def cs_su2_quadrature(refinement):
    """Numerical winding number of the identity map of SU(2).

    Midpoint product quadrature of -(1/24 pi^2) tr(theta^3) over the
    round 3-sphere at the given refinement level; converges monotonically
    to a signed unit.  Each chi slice is evaluated in blocks of whole
    theta rows, all through one set of buffers, so the memory beyond the
    grid is bounded by BLOCK_POINTS; the theta and phi grids' sines and
    cosines are taken once, chi's once per slice.  Every per-point value
    and every slice sum is the one the whole-slice evaluation gives.

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
    sth, cth = np.sin(theta_grid), np.cos(theta_grid)
    sph, cph = np.sin(phi_grid), np.cos(phi_grid)
    rows = max(1, BLOCK_POINTS // n_phi)
    buffers = _Buffers(rows * n_phi)
    chi_rows = np.empty((rows, n_phi))
    schi, cchi = np.empty_like(chi_rows), np.empty_like(chi_rows)
    dens, weighted = theta_grid, phi_grid   # their angles are spent

    total = 0.0
    for i in range(n_chi):
        chi = (i + 0.5) * d_chi
        chi_rows.fill(chi)
        np.sin(chi_rows, out=schi)
        np.cos(chi_rows, out=cchi)
        for k in range(0, n_theta, rows):
            block = slice(k, k + rows)
            n = min(rows, n_theta - k)
            dens[block] = _frame_density(schi[:n], cchi[:n], sth[block],
                                         cth[block], sph[block], cph[block],
                                         buffers)
        np.multiply(math.sin(chi) ** 2, sth, out=weighted)
        np.multiply(dens, weighted, out=weighted)
        total += float(np.sum(weighted)) * d_chi * d_theta * d_phi
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
