import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import abtqft.discrete as D
import abtqft.discrete.connections
from abtqft.discrete.complexes import require_integers
from abtqft.analytic import (NonIntegralInvariant, circle_distance, wrap_half,
                              wrap_unit)


def random_grid(rng):
    return D.triangulated_grid(rng.randint(1, 4), rng.randint(1, 4))


# -- complexes ---------------------------------------------------------------

def test_boundary_of_boundary_zero():
    rng = random.Random(1)
    for _ in range(10):
        W = random_grid(rng)
        B1, B2 = W.boundary_matrix(1), W.boundary_matrix(2)
        assert not (B1 @ B2).any()


def test_complex_validation():
    with pytest.raises(D.ComplexError):
        D.CellComplex({0: 2, 1: 1}, {1: [[(0, -1), (5, 1)]]})
    with pytest.raises(D.ComplexError):
        D.CellComplex({0: 2, 1: 1}, {1: [[(0, -2), (1, 1)]]})
    # a face whose boundary is not a cycle breaks del o del = 0
    with pytest.raises(D.ComplexError):
        D.CellComplex({0: 3, 1: 2, 2: 1},
                      {1: [[(0, -1), (1, 1)], [(1, -1), (2, 1)]],
                       2: [[(0, 1)]]})


def test_non_finite_edge_length_rejected():
    W = D.triangulated_grid(1, 1)
    for bad in (float("nan"), float("inf")):
        lengths = [1.0] * W.n_cells[1]
        lengths[2] = bad
        with pytest.raises(ValueError, match=re.escape(
                "edge_lengths[2]: expected a finite")):
            D.CellComplex({k: W.n_cells[k] for k in range(3)},
                          {k: W.boundary[k] for k in (1, 2)},
                          edge_lengths=lengths)


def test_mesh_json_roundtrip():
    W = D.triangulated_grid(2, 3)
    rec = W.to_json()
    W2 = D.CellComplex.from_json(json.loads(json.dumps(rec)))
    assert W2.n_cells == W.n_cells
    assert W2.boundary == W.boundary


# -- cochains ------------------------------------------------------------------

def test_coboundary_on_path():
    P = D.path_complex(2)
    f = D.Cochain(P, 0, [1.0, 4.0, 9.0])
    df = D.coboundary(f)
    assert df.values == (3.0, 5.0)


def test_constant_cochain_closed():
    W = D.triangulated_grid(3, 2)
    c = D.Cochain(W, 0, np.full(W.n_cells[0], 2.5))
    assert not any(D.coboundary(c).values)


def test_dd_zero_random():
    rng = random.Random(2)
    for _ in range(10):
        W = random_grid(rng)
        # the operator identity is exact over the integers
        composite = W.boundary_matrix(2).T @ W.boundary_matrix(1).T
        assert not composite.any()
        # applied to float values, only re-association noise survives
        f = D.Cochain(W, 0, [rng.uniform(-5, 5) for _ in range(W.n_cells[0])])
        dd = D.coboundary(D.coboundary(f))
        assert np.all(np.abs(dd.values) <= 1e-12)


def test_integrate_examples():
    C3 = D.circle_complex(3)
    unit = D.Cochain(C3, 1, [1.0, 1.0, 1.0])
    chain = C3.chain_vector(1, [(i, 1) for i in range(3)])
    assert D.integrate(unit, chain) == 3.0
    assert D.integrate(unit, C3.chain_vector(1, [])) == 0.0
    reverse = C3.chain_vector(1, [(i, -1) for i in range(3)])
    assert D.integrate(unit, reverse) == -3.0
    with pytest.raises(D.DegreeError):
        D.integrate(unit, [1, 1])


def test_stokes_closed_and_exact():
    rng = random.Random(3)
    W = D.triangulated_grid(3, 3)
    f = D.Cochain(W, 0, [rng.uniform(-2, 2) for _ in range(W.n_cells[0])])
    omega = D.coboundary(f)   # exact, hence closed
    lhs, rhs = D.check_stokes(W, omega)
    assert abs(rhs) <= 1e-12  # d(d f) integrates to zero
    assert abs(lhs - rhs) <= 1e-12


def test_stokes_random_scenes():
    rng = random.Random(4)
    for _ in range(40):
        W = random_grid(rng)
        omega = D.Cochain(W, 1,
                          [rng.uniform(-3, 3) for _ in range(W.n_cells[1])])
        lhs, rhs = D.check_stokes(W, omega)
        assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("call, error, message", [
    (lambda: D.circle_complex(0), D.ComplexError,
     r"a circle needs at least one edge"),
    (lambda: D.triangulated_grid(0, 1), D.ComplexError,
     r"grid needs at least one cell per direction"),
    (lambda: D.CellComplex({0: 2, 1: 1}, {1: [[(0, 1), (1, 1)]]})
     .edge_endpoints(0), D.ComplexError,
     r"edge 0 lacks a \(\+1, -1\) endpoint pair"),
    (lambda: D.coboundary(D.Cochain(D.circle_complex(3), 3, [])),
     D.DegreeError, r"coboundary of a top-degree cochain"),
], ids=["empty-circle", "empty-grid", "edge-without-tail", "top-degree"])
def test_impossible_cells_are_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_stokes_degree_errors():
    C3 = D.circle_complex(3)
    omega = D.Cochain(C3, 1, [1.0, 2.0, 3.0])
    with pytest.raises(D.DegreeError):
        D.check_stokes(C3, omega)   # no 2-cells
    with pytest.raises(D.DegreeError):
        D.Cochain(C3, 1, [1.0])


# -- connections -----------------------------------------------------------------

def test_holonomy_examples():
    C3 = D.circle_complex(3)
    trivial = D.LatticeConnection(C3, np.zeros(3))
    loop = C3.chain_vector(1, [(i, 1) for i in range(3)])
    assert D.holonomy(trivial, loop) == 0.0
    conn = D.LatticeConnection(C3, [0.1, 0.2, 0.3])
    assert abs(D.holonomy(conn, loop) - 0.6) < 1e-12
    # starting point does not matter
    rotated = C3.chain_vector(1, [(1, 1), (2, 1), (0, 1)])
    assert D.holonomy(conn, rotated) == pytest.approx(
        D.holonomy(conn, loop), abs=1e-15)
    back = C3.chain_vector(1, [(i, -1) for i in reversed(range(3))])
    assert circle_distance(D.holonomy(conn, back), -0.6) < 1e-12


def test_holonomy_rejects_open_chains():
    C3 = D.circle_complex(3)
    conn = D.LatticeConnection(C3, np.zeros(3))
    with pytest.raises(D.NonCycleError):
        D.holonomy(conn, C3.chain_vector(1, [(0, 1), (1, 1)]))


@pytest.mark.parametrize("chain", [[0.5] * 4, [1.9] * 4])
def test_float_chains_are_refused_not_truncated(chain):
    # both were once read as integer chains: 0.5 as 0 and 1.9 as 1
    C4 = D.circle_complex(4)
    conn = D.LatticeConnection(C4, [0.1, 0.2, 0.3, 0.15])
    message = "^chain coefficients must be integers$"
    with pytest.raises(D.ComplexError, match=message):
        D.holonomy(conn, chain)
    with pytest.raises(D.ComplexError, match=message):
        D.integrate(D.Cochain(C4, 1, [1.0] * 4), chain)


def test_bool_chains_are_refused():
    # each once read True as 1 and answered: 0.7500000000000001, 4.0 and
    # a boundary; `analytic.as_int` refuses a bool as well
    C4 = D.circle_complex(4)
    conn = D.LatticeConnection(C4, [0.1, 0.2, 0.3, 0.15])
    omega = D.Cochain(C4, 1, [1.0, 2, 3, 4])
    for call in (lambda: D.holonomy(conn, [True] * 4),
                 lambda: D.integrate(omega, [True, False, True, False]),
                 lambda: C4.boundary_of(1, [True] * 4)):
        with pytest.raises(D.ComplexError,
                           match="^chain coefficients must be integers$"):
            call()


@pytest.mark.parametrize("c, accepted", [
    (0, True), (-3, True), (2**70, True), (np.int64(2), True),
    (np.uint8(3), True),
    (1.0, False), (Fraction(1), False), ("1", False), (None, False),
    # a bool passed as 0 or 1 until the gate refused it; numpy.True_ is
    # no `Integral`, so it was refused before as well
    (True, False), (np.True_, False)], ids=repr)
def test_chain_gate_table(c, accepted):
    chain = [1, c, -1]
    if accepted:
        require_integers(chain)
    else:
        with pytest.raises(D.ComplexError,
                           match="^chain coefficients must be integers$"):
            require_integers(chain)


def test_integer_chains_keep_their_float_bits():
    C4 = D.circle_complex(4)
    conn = D.LatticeConnection(C4, [0.1, 0.2, 0.3, 0.15])
    unit = D.Cochain(C4, 1, [0.1, 0.2, 0.3, 0.15])
    for chain in ([1, 1, 1, 1], np.array([2, 2, 2, 2]), [-3, -3, -3, -3]):
        as_float = np.asarray(chain, dtype=np.int64).astype(float)
        dot = float(np.dot(as_float, conn.edge_turns))
        assert D.holonomy(conn, chain) == wrap_unit(dot)
        assert D.integrate(unit, chain) == float(np.dot(as_float,
                                                        unit.values))


def test_curvature_lift_examples():
    disk = D.polygon_disk(4)
    conn = D.LatticeConnection(disk, [0.05, 0.1, 0.03, 0.07])
    assert D.total_curvature(conn, [1]) == pytest.approx(0.25, abs=1e-12)
    lifted = D.LatticeConnection(disk, conn.edge_turns, [1])
    assert D.total_curvature(lifted, [1]) == pytest.approx(1.25, abs=1e-12)
    with pytest.raises(D.connections.ConnectionDataError):
        D.total_curvature(conn, [1, 0])
    # boundary holonomy does not see the lift
    assert circle_distance(D.boundary_holonomy(conn, [(0, 1)]),
                           D.boundary_holonomy(lifted, [(0, 1)])) == 0.0
    trivial = D.LatticeConnection(D.polygon_disk(5), np.zeros(5))
    assert D.total_curvature(trivial, [1]) == 0.0
    assert D.boundary_holonomy(trivial, [(0, 1)]) == 0.0


def test_holonomy_curvature_identity_all_lifts():
    rng = random.Random(5)
    for _ in range(30):
        W = random_grid(rng)
        conn = D.LatticeConnection(
            W, [rng.uniform(0, 1) for _ in range(W.n_cells[1])],
            [rng.randint(-3, 3) for _ in range(W.n_cells[2])])
        faces = [(f, 1) for f in range(W.n_cells[2]) if rng.random() < 0.6]
        if not faces:
            faces = [(0, 1)]
        assert D.holonomy_curvature_gap(conn, faces) <= 1e-12


def test_gauge_invariance():
    rng = random.Random(6)
    W = D.triangulated_grid(3, 3)
    conn = D.LatticeConnection(
        W, [rng.uniform(0, 1) for _ in range(W.n_cells[1])],
        [rng.randint(-2, 2) for _ in range(W.n_cells[2])])
    gauged = conn.gauge_transformed(
        [rng.uniform(0, 1) for _ in range(W.n_cells[0])])
    # loop holonomies unchanged
    B2 = W.boundary_matrix(2)
    for f in range(W.n_cells[2]):
        loop_vec = B2[:, f]
        h0 = D.holonomy(conn, loop_vec)
        h1 = D.holonomy(gauged, loop_vec)
        assert circle_distance(h0, h1) <= 1e-12
    # per-face curvature (hence any chern number) unchanged
    for f in range(W.n_cells[2]):
        assert conn.curvature(f) == pytest.approx(gauged.curvature(f),
                                                  abs=1e-12)


def test_non_finite_edge_turn_rejected():
    W = D.triangulated_grid(2, 2)
    turns = [0.25] * W.n_cells[1]
    turns[4] = float("nan")
    with pytest.raises(ValueError, match=re.escape(
            "edge_phases[4]: expected a finite")):
        D.LatticeConnection(W, turns)


def test_face_lifts_checked_by_the_constructor():
    # a lift beyond 2**53 is refused, never wrapped into int64 (2**63 read
    # as -2**63) nor stored where a float curvature loses its fraction
    disk = D.polygon_disk(3)
    assert D.LatticeConnection(disk, [0.1, 0.2, 0.3], [2**53]).face_lifts[
        0] == 2**53
    for lifts, fault in (
            ([2**63], "face_lifts[0]: expected an integer of at most 2**53 "
             "in size, got 9223372036854775808"),
            ([1.0], "face_lifts[0]: expected exact integer, got 1.0"),
            ([0, 0], "face_lifts: expected 1 entries, got 2")):
        with pytest.raises(ValueError, match=re.escape(fault)):
            D.LatticeConnection(disk, [0.1, 0.2, 0.3], lifts)


def test_chern_number_examples():
    tb = D.tangent_connection(D.icosahedron())
    dual = tb.dual
    # trivial connection with prescribed lifts sums the lifts
    rng = random.Random(7)
    lifts = [rng.randint(-2, 2) for _ in range(dual.n_cells[2])]
    trivial = D.LatticeConnection(dual, np.zeros(dual.n_cells[1]), lifts)
    chain = [(f, 1) for f in range(dual.n_cells[2])]
    assert D.chern_number(trivial, chain) == sum(lifts)


def test_chern_number_rejects_non_cycles():
    W = D.triangulated_grid(2, 2)
    conn = D.LatticeConnection(W, np.zeros(W.n_cells[1]))
    with pytest.raises(D.NonCycleError):
        D.chern_number(conn, [(0, 1)])
    # the empty chain, given or cancelled out, bounds no surface
    for chain in ([], [(0, 1), (0, -1)]):
        with pytest.raises(D.NonCycleError):
            D.chern_number(conn, chain)


def test_chern_number_robust_to_coherent_perturbation():
    # shifting every edge turn is a 1-cochain change; over a closed
    # surface the contributions cancel and integrality survives
    tb = D.tangent_connection(D.icosahedron())
    conn = tb.connection
    chain = [(f, 1) for f in range(tb.dual.n_cells[2])]
    shifted = D.LatticeConnection(tb.dual,
                                  [t + 0.001 for t in conn.edge_turns],
                                  conn.face_lifts)
    assert isinstance(D.chern_number(shifted, chain), int)


def test_chern_number_detects_corrupt_data():
    # non-integrality cannot arise through the honest constructors (the
    # lift is integer by type), so corrupt the lift list directly
    tb = D.tangent_connection(D.icosahedron())
    conn = tb.connection
    chain = [(f, 1) for f in range(tb.dual.n_cells[2])]
    lifts = [float(n) for n in conn.face_lifts]
    lifts[0] += 0.5
    conn.face_lifts = lifts
    total = D.total_curvature(conn, tb.dual.fundamental_chain(2))
    with pytest.raises(NonIntegralInvariant, match=re.escape(
            f"total curvature of the cycle = {total!r} is 5.000e-01 from "
            "the nearest integer (tolerance 1e-09)")):
        D.chern_number(conn, chain)


def test_tangent_lift_gate_names_its_value(monkeypatch):
    # an angle defect off by 0.1 radian leaves each ring holonomy
    # 0.1 / 2 pi from an integer lift
    defect = D.MetricSurface.angle_defect
    monkeypatch.setattr(D.MetricSurface, "angle_defect",
                        lambda self, v: defect(self, v) + 0.1)
    with pytest.raises(NonIntegralInvariant, match=(
            r"vertex 0: angle defect / 2 pi - ring holonomy = \S+ is "
            r"1\.592e-02 from the nearest integer \(tolerance 1e-09\)")):
        D.tangent_connection(D.icosahedron())


def test_face_fraction_traversal_stable():
    # re-deriving the principal fraction from a rotated traversal and
    # re-lifting by integers leaves every curvature identical
    rng = random.Random(8)
    W = D.triangulated_grid(3, 2)
    conn = D.LatticeConnection(
        W, [rng.uniform(0, 1) for _ in range(W.n_cells[1])],
        [rng.randint(-2, 2) for _ in range(W.n_cells[2])])
    for f in range(W.n_cells[2]):
        base = conn.curvature(f)
        sides = W.boundary[2][f]
        for start in range(len(sides)):
            rotated = sides[start:] + sides[:start]
            frac = wrap_half(sum(sign * conn.edge_turns[e]
                                 for e, sign in rotated))
            if start == 0:
                assert frac == conn.face_fraction(f)
            relift = round(base - frac)
            assert abs(base - (relift + frac)) <= 1e-9
