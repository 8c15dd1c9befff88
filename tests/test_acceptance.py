"""Acceptance gate: one test per shipped guarantee, one printed verdict line each.

Each criterion prints ``criterion <k> (<name>): PASS`` or ``FAIL`` so the
suite's output doubles as a checklist of the package's headline claims.
"""

import time
from contextlib import contextmanager

import numpy as np

from geomstates import (
    LindbladModel,
    affine_flow_map,
    asymptotic_limit,
    build_basis,
    complex_structure_at,
    contract_3level_decoherence,
    extract_contracted_products,
    flow_family,
    flow_tensor,
    format_product_table,
    gradient_vf,
    hamiltonian_vf,
    integrate,
    jordan_bracket,
    jordan_product,
    lie_product,
    limit_set_algebra,
    lindblad_parts,
    lindblad_vf,
    lie_derivative,
    matches_level_algebra,
    model_gisin,
    model_phase_damping,
    model_qubit_dissipation,
    model_three_level_decay,
    poisson_bracket,
    poisson_field,
    state_from_coords,
    stationary_points,
    symmetric_field,
    variance,
    verify_contracted_axioms,
    vf_from_linear_map,
)
from conftest import dense_superoperator, random_hermitian, random_state_coords

SQ3 = np.sqrt(3.0)


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({name}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {num} ({name}): PASS", flush=True)


def _unit_obs(basis, j):
    e = np.zeros(basis.m)
    e[j] = 1.0
    return basis.traceless_observable(e)


def _vf_diff(Z, W):
    return max((p - q).max_abs() for p, q in zip(Z.components, W.components))


def _tensor_values(T, y):
    m = T.m
    return np.array([[T.component(j, k)(y) for k in range(m)] for j in range(m)])


def _poly_diff(p, want_c0=0.0, want_c1=None, want_c2=None):
    m = p.m
    d = abs(p.c0 - want_c0)
    d = max(d, np.abs(p.c1 - (want_c1 if want_c1 is not None else np.zeros(m))).max())
    d = max(d, np.abs(p.c2 - (want_c2 if want_c2 is not None else np.zeros((m, m)))).max())
    return d


def lin(m, const=0.0, **coeffs):
    """Expected-value helper: lin(8, x3=0.5) is the polynomial 0.5*x3."""
    c1 = np.zeros(m)
    for name, val in coeffs.items():
        c1[int(name[1:]) - 1] = val
    return const, c1


def test_criterion_1_dephasing_generator(basis2, capsys):
    with criterion(capsys, 1, "dephasing generator exact"):
        t0 = time.perf_counter()
        model = model_phase_damping(1.0)
        want_A = np.diag([-2.0, -2.0, 0.0])
        for Z in (lindblad_vf(model), vf_from_linear_map(model.action, basis2)):
            A, b = Z.linear_parts()
            assert np.abs(A - want_A).max() <= 1e-12
            assert np.abs(b).max() <= 1e-12
            assert max(p.max_abs_quadratic() for p in Z.components) <= 1e-12

        Z = lindblad_vf(model)
        LT = lie_derivative(Z, poisson_field(basis2))
        # 4 gamma x3 d1^d2 and nothing else
        assert _poly_diff(LT.component(0, 1), 0.0, np.array([0, 0, 4.0])) <= 1e-10
        assert LT.component(1, 2).max_abs() <= 1e-10
        assert LT.component(2, 0).max_abs() <= 1e-10
        LR = lie_derivative(Z, symmetric_field(basis2))
        # 4 gamma (d1 x d1 + d2 x d2)
        assert _poly_diff(LR.component(0, 0), 4.0) <= 1e-10
        assert _poly_diff(LR.component(1, 1), 4.0) <= 1e-10
        for j, k in ((2, 2), (0, 1), (0, 2), (1, 2)):
            assert LR.component(j, k).max_abs() <= 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_tensor_families(basis2, capsys):
    with criterion(capsys, 2, "transported tensor closed forms"):
        t0 = time.perf_counter()
        times = (0.0, 0.25, 1.0, 4.0)

        for gamma in (1.0, 0.7):
            Z = lindblad_vf(model_phase_damping(gamma))
            for t in times:
                e4 = np.exp(-4.0 * gamma * t)
                Lt = flow_tensor(Z, poisson_field(basis2), t)
                assert _poly_diff(Lt.component(0, 1), *lin(3, x3=e4)) <= 1e-9
                assert _poly_diff(Lt.component(1, 2), *lin(3, x1=1.0)) <= 1e-9
                assert _poly_diff(Lt.component(2, 0), *lin(3, x2=1.0)) <= 1e-9
                Rt = flow_tensor(Z, symmetric_field(basis2), t)
                for j in range(3):
                    for k in range(3):
                        want_c0 = {(0, 0): e4, (1, 1): e4, (2, 2): 1.0}.get((j, k), 0.0)
                        want_c2 = np.zeros((3, 3))
                        want_c2[j, k] -= 0.5
                        want_c2[k, j] -= 0.5
                        assert _poly_diff(Rt.component(j, k), want_c0, None, want_c2) <= 1e-9

        Z = lindblad_vf(model_qubit_dissipation(1.0))
        for t in times:
            e2, e4 = np.exp(-2.0 * t), np.exp(-4.0 * t)
            Lt = flow_tensor(Z, poisson_field(basis2), t)
            assert _poly_diff(Lt.component(0, 1), *lin(3, x3=1.0)) <= 1e-9
            assert _poly_diff(Lt.component(1, 2), *lin(3, x1=e2)) <= 1e-9
            assert _poly_diff(Lt.component(2, 0), *lin(3, x2=e2)) <= 1e-9
            Rt = flow_tensor(Z, symmetric_field(basis2), t)
            for j in range(3):
                for k in range(3):
                    want_c0 = {(0, 0): e2, (1, 1): e2, (2, 2): e4}.get((j, k), 0.0)
                    want_c2 = np.zeros((3, 3))
                    want_c2[j, k] -= 0.5
                    want_c2[k, j] -= 0.5
                    assert _poly_diff(Rt.component(j, k), want_c0, None, want_c2) <= 1e-9

        # independent oracle: classical RK4 on the coefficient transport ODE
        for T in (poisson_field(basis2), symmetric_field(basis2)):
            fam = flow_family(Z, T)
            M = dense_superoperator(Z, T.symmetry)
            v = fam.flat0.copy()
            dt, steps = 1e-4, 10000
            for _ in range(steps):
                k1 = -M @ v
                k2 = -M @ (v + 0.5 * dt * k1)
                k3 = -M @ (v + 0.5 * dt * k2)
                k4 = -M @ (v + dt * k3)
                v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            assert np.abs(v - fam.flat_at(1.0)).max() <= 1e-6
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_two_level_contractions(basis2, capsys):
    with criterion(capsys, 3, "two-level contracted algebras"):
        # dephasing -> Euclidean-type tables
        Z = lindblad_vf(model_phase_damping(1.0))
        rp = asymptotic_limit(flow_family(Z, poisson_field(basis2)))
        rj = asymptotic_limit(flow_family(Z, symmetric_field(basis2)))
        assert rp.verdict == "limit" and rj.verdict == "limit"
        tab = extract_contracted_products(rp.limit, rj.limit)
        assert tab.linear
        want = {
            (0, 2): lin(3, x2=-1.0),
            (1, 2): lin(3, x1=1.0),
            (0, 1): lin(3),
        }
        for (j, k), (c0, c1) in want.items():
            assert _poly_diff(tab.poisson.component(j, k), c0, c1) <= 1e-9
        for j in range(3):
            for k in range(3):
                want_c0 = 1.0 if j == k == 2 else 0.0
                assert _poly_diff(tab.jordan.component(j, k), want_c0) <= 1e-9
        assert verify_contracted_axioms(tab).max_residual() <= 1e-9

        # amplitude damping -> Heisenberg tables, all Jordan products zero
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        rp = asymptotic_limit(flow_family(Z, poisson_field(basis2)))
        rj = asymptotic_limit(flow_family(Z, symmetric_field(basis2)))
        assert rp.verdict == "limit" and rj.verdict == "limit"
        tab = extract_contracted_products(rp.limit, rj.limit)
        assert tab.linear
        assert _poly_diff(tab.poisson.component(0, 1), *lin(3, x3=1.0)) <= 1e-9
        assert tab.poisson.component(1, 2).max_abs() <= 1e-9
        assert tab.poisson.component(2, 0).max_abs() <= 1e-9
        for j in range(3):
            for k in range(3):
                assert tab.jordan.component(j, k).max_abs() <= 1e-9
        assert verify_contracted_axioms(tab).max_residual() <= 1e-9


# Reference product tables for the three-level coordinate functions.  The
# symmetric products are stated in doubled normalization, as commonly
# tabulated; our convention is exactly half of each entry.
POISSON_3L = {
    (1, 2): {"x3": 1.0},
    (1, 3): {"x2": -1.0},
    (1, 4): {"x7": 0.5},
    (1, 5): {"x6": -0.5},
    (1, 6): {"x5": 0.5},
    (1, 7): {"x4": -0.5},
    (2, 3): {"x1": 1.0},
    (2, 4): {"x6": 0.5},
    (2, 5): {"x7": 0.5},
    (2, 6): {"x4": -0.5},
    (2, 7): {"x5": -0.5},
    (3, 4): {"x5": 0.5},
    (3, 5): {"x4": -0.5},
    (3, 6): {"x7": -0.5},
    (3, 7): {"x6": 0.5},
    (4, 5): {"x3": 0.5, "x8": SQ3 / 2},
    (4, 6): {"x2": 0.5},
    (4, 7): {"x1": 0.5},
    (4, 8): {"x5": -SQ3 / 2},
    (5, 6): {"x1": -0.5},
    (5, 7): {"x2": 0.5},
    (5, 8): {"x4": SQ3 / 2},
    (6, 7): {"x3": -0.5, "x8": SQ3 / 2},
    (6, 8): {"x7": -SQ3 / 2},
    (7, 8): {"x6": SQ3 / 2},
}

JORDAN_3L_DOUBLED = {
    (1, 1): {"const": 4.0 / 3.0, "x8": 2.0 / SQ3},
    (1, 4): {"x6": 1.0},
    (1, 5): {"x7": 1.0},
    (1, 6): {"x4": 1.0},
    (1, 7): {"x5": 1.0},
    (1, 8): {"x1": 2.0 / SQ3},
    (2, 2): {"const": 4.0 / 3.0, "x8": 2.0 / SQ3},
    (2, 4): {"x7": -1.0},
    (2, 5): {"x6": 1.0},
    (2, 6): {"x5": 1.0},
    (2, 7): {"x4": -1.0},
    (2, 8): {"x2": 2.0 / SQ3},
    (3, 3): {"const": 4.0 / 3.0, "x8": 2.0 / SQ3},
    (3, 4): {"x4": 1.0},
    (3, 5): {"x5": 1.0},
    (3, 6): {"x6": -1.0},
    (3, 7): {"x7": -1.0},
    (3, 8): {"x3": 2.0 / SQ3},
    (4, 4): {"const": 4.0 / 3.0, "x3": 1.0, "x8": -1.0 / SQ3},
    (4, 6): {"x1": 1.0},
    (4, 7): {"x2": -1.0},
    (4, 8): {"x4": -1.0 / SQ3},
    (5, 5): {"const": 4.0 / 3.0, "x3": 1.0, "x8": -1.0 / SQ3},
    (5, 6): {"x2": 1.0},
    (5, 7): {"x1": 1.0},
    (5, 8): {"x5": -1.0 / SQ3},
    (6, 6): {"const": 4.0 / 3.0, "x3": -1.0, "x8": -1.0 / SQ3},
    (6, 8): {"x6": -1.0 / SQ3},
    (7, 7): {"const": 4.0 / 3.0, "x3": -1.0, "x8": -1.0 / SQ3},
    (7, 8): {"x7": -1.0 / SQ3},
    (8, 8): {"const": 4.0 / 3.0, "x8": -2.0 / SQ3},
}


def _expected_poly(m, entry):
    c0 = entry.get("const", 0.0)
    c1 = np.zeros(m)
    for key, val in entry.items():
        if key != "const":
            c1[int(key[1:]) - 1] = val
    return c0, c1


def test_criterion_4_three_level_static_tables(basis3, capsys):
    with criterion(capsys, 4, "three-level static products"):
        obs = [_unit_obs(basis3, j) for j in range(8)]
        for j in range(8):
            for k in range(j, 8):
                p = poisson_bracket(basis3, obs[j], obs[k])
                c0, c1 = _expected_poly(8, POISSON_3L.get((j + 1, k + 1), {}))
                assert _poly_diff(p, c0, c1) <= 1e-10, (j, k)

                q = jordan_bracket(basis3, obs[j], obs[k])
                c0, c1 = _expected_poly(8, JORDAN_3L_DOUBLED.get((j + 1, k + 1), {}))
                # reference table uses twice our normalization
                assert _poly_diff(q.scale(2.0), c0, c1) <= 1e-10, (j, k)


THEOREM_POISSON_INF = {
    (1, 3): {"x2": -1.0},
    (2, 3): {"x1": 1.0},
    (3, 4): {"x5": 0.5},
    (3, 5): {"x4": -0.5},
    (3, 6): {"x7": -0.5},
    (3, 7): {"x6": 0.5},
    (4, 8): {"x5": -SQ3 / 2},
    (5, 8): {"x4": SQ3 / 2},
    (6, 8): {"x7": -SQ3 / 2},
    (7, 8): {"x6": SQ3 / 2},
}

THEOREM_JORDAN_INF = {
    (3, 3): {"const": 2.0 / 3.0, "x8": 1.0 / SQ3},
    (8, 8): {"const": 2.0 / 3.0, "x8": -1.0 / SQ3},
    (1, 8): {"x1": 1.0 / SQ3},
    (2, 8): {"x2": 1.0 / SQ3},
    (3, 8): {"x3": 1.0 / SQ3},
    (4, 8): {"x4": -0.5 / SQ3},
    (5, 8): {"x5": -0.5 / SQ3},
    (6, 8): {"x6": -0.5 / SQ3},
    (7, 8): {"x7": -0.5 / SQ3},
    (3, 4): {"x4": 0.5},
    (3, 5): {"x5": 0.5},
    (3, 6): {"x6": -0.5},
    (3, 7): {"x7": -0.5},
}


def test_criterion_5_three_level_decoherence_contractions(capsys):
    with criterion(capsys, 5, "three-level decoherence contractions"):
        rm, rp = contract_3level_decoherence()
        assert rm.verdict == "limit" and rp.verdict == "limit"
        for rep in (rm, rp):
            tab = rep.tables
            assert tab.linear
            for j in range(8):
                for k in range(j, 8):
                    c0, c1 = _expected_poly(8, THEOREM_POISSON_INF.get((j + 1, k + 1), {}))
                    assert _poly_diff(tab.poisson.component(j, k), c0, c1) <= 1e-8, ("P", j, k)
                    c0, c1 = _expected_poly(8, THEOREM_JORDAN_INF.get((j + 1, k + 1), {}))
                    assert _poly_diff(tab.jordan.component(j, k), c0, c1) <= 1e-8, ("J", j, k)
        # and the two models agree with each other line by line
        assert set(format_product_table(rm.tables)) == set(format_product_table(rp.tables))


def test_criterion_6_decay_divergence(basis3, capsys):
    with criterion(capsys, 6, "decay divergence and limit set"):
        Z = lindblad_vf(model_three_level_decay())
        an = asymptotic_limit(flow_family(Z, poisson_field(basis3)))
        assert an.verdict == "divergent"
        assert {round(m.growth_rate, 9) for m in an.modes} == {3.0}
        assert all(not m.polynomial_growth and not m.oscillatory for m in an.modes)
        assert any("T[1,2]" in m.component and "x8" in m.component for m in an.modes)

        # the divergent brackets grow along the (e^{3t}-1)(1 - sqrt(3) x8)
        # profile: {x1,x2}_t carries it with weight -1/9, {x2,x3}_t with -2/9
        for t in (0.3, 0.8, 1.4):
            amp = (np.exp(3.0 * t) - 1.0) / 9.0
            tol = 1e-9 * max(1.0, amp)
            Lt = flow_tensor(Z, poisson_field(basis3), t)
            c1 = np.zeros(8)
            c1[2], c1[7] = 1.0, SQ3 * amp
            assert _poly_diff(Lt.component(0, 1), -amp, c1) <= tol
            c1 = np.zeros(8)
            c1[0], c1[7] = 1.0, 2.0 * SQ3 * amp
            assert _poly_diff(Lt.component(1, 2), -2.0 * amp, c1) <= tol

        lsa = limit_set_algebra(Z, basis3, verdict=an.verdict)
        want = np.zeros(8)
        want[7] = 1.0 / SQ3
        assert np.abs(lsa.point - want).max() <= 1e-9
        assert lsa.free_indices == [0, 1, 2]
        assert lsa.closed
        ref = build_basis(2)
        assert np.abs(lsa.c_red - ref.lie_constants).max() <= 1e-9
        assert np.abs(lsa.d_red - ref.jordan_constants).max() <= 1e-9
        assert matches_level_algebra(lsa, 2)


def test_criterion_7_geometry_suite(capsys, rng):
    with criterion(capsys, 7, "geometric vector-field identities"):
        # commutator tables of Hamiltonian and gradient fields
        for n in (2, 3):
            basis = build_basis(n)
            m = basis.m
            c = basis.lie_constants
            X = [hamiltonian_vf(basis, _unit_obs(basis, j)) for j in range(m)]
            Y = [gradient_vf(basis, _unit_obs(basis, j)) for j in range(m)]
            for j in range(m):
                for k in range(m):
                    cs = c[j + 1, k + 1, 1:]
                    want_XX = sum((Xl.scale(w) for Xl, w in zip(X, cs)), start=X[0].scale(0.0))
                    want_XY = sum((Yl.scale(w) for Yl, w in zip(Y, cs)), start=Y[0].scale(0.0))
                    assert _vf_diff(X[j].commutator(X[k]), want_XX) <= 1e-10
                    assert _vf_diff(Y[j].commutator(Y[k]), want_XX.scale(-1.0)) <= 1e-10
                    assert _vf_diff(X[j].commutator(Y[k]), want_XY) <= 1e-10

        # almost-complex structure on the two strata of a two-level system
        basis = build_basis(2)
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=3)
            x *= rng.uniform(0.15, 0.85) / np.linalg.norm(x)  # interior
            J, _ = complex_structure_at(state_from_coords(basis, x))
            worst = max(worst, np.abs(J @ J @ J + J).max())
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)  # pure boundary
            J, _ = complex_structure_at(state_from_coords(basis, x))
            worst = max(worst, np.abs(J @ J @ J + J).max())
        assert worst <= 1e-8

        # variance is non-negative wherever sampled
        for n in (2, 3):
            basis = build_basis(n)
            for _ in range(50):
                state = random_state_coords(rng, basis)
                a = basis.from_matrix(random_hermitian(rng, n))
                assert variance(a, state) >= -1e-10

        # pure-stratum tangency of both field families (unit sphere, n=2)
        basis = build_basis(2)
        fields = [hamiltonian_vf(basis, _unit_obs(basis, j)) for j in range(3)]
        fields += [gradient_vf(basis, _unit_obs(basis, j)) for j in range(3)]
        for _ in range(10):
            a = basis.from_matrix(random_hermitian(rng, 2, traceless=True))
            fields.append(hamiltonian_vf(basis, a))
            fields.append(gradient_vf(basis, a))
        for _ in range(50):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            for V in fields:
                assert abs(x @ V(x)) <= 1e-10


def test_criterion_8_dynamics_models(basis2, capsys, rng):
    with criterion(capsys, 8, "Markovian model identities"):
        # purity is a constant of nonlinear unitary-like motion
        H = basis2.traceless_observable([0.0, 0.0, 1.0])
        Z = model_gisin(basis2, H)
        for x0 in ([0.6, 0.0, 0.0], [0.0, 0.8, 0.3], [0.3, -0.2, 0.4]):
            traj = integrate(Z, state_from_coords(basis2, np.array(x0)), 5.0, dt=0.1)
            pur = traj.purities()
            assert np.abs(pur - pur[0]).max() <= 1e-8

        # double-bracket identity on 100 random observable pairs
        for n in (2, 3):
            basis = build_basis(n)
            for _ in range(50):
                A = basis.from_matrix(random_hermitian(rng, n))
                G = basis.from_matrix(random_hermitian(rng, n))
                lhs = lie_product(A, lie_product(A, G))
                rhs = jordan_product(jordan_product(A, G), A) - jordan_product(
                    jordan_product(A, A), G
                )
                assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-10

        # generator decomposition into Hamiltonian - gradient + jump parts
        for n in (2, 3):
            basis = build_basis(n)
            for _ in range(20):
                Hm = random_hermitian(rng, n, traceless=True)
                Vs = []
                for _ in range(2):
                    V = 0.7 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                    Vs.append(V - (np.trace(V) / n) * np.eye(n))
                model = LindbladModel(basis, H=Hm, V=Vs)
                parts = lindblad_parts(model)
                recombined = parts["hamiltonian"] - parts["gradient"] + parts["kraus"]
                assert _vf_diff(lindblad_vf(model), recombined) <= 1e-10

        # magnetic-field flows: rotation axis and gradient poles
        B = np.array([0.3, -0.4, 1.2])
        u = B / np.linalg.norm(B)
        bobs = basis2.traceless_observable(B)
        st = stationary_points(hamiltonian_vf(basis2, bobs), basis2)
        assert st.kind == "affine-set"
        assert np.abs(st.points[0]).max() <= 1e-10
        D = st.directions
        assert D.shape == (3, 1)
        assert np.abs(np.abs(D[:, 0] @ u) - 1.0) <= 1e-10
        st = stationary_points(gradient_vf(basis2, bobs).scale(-1.0), basis2)
        assert st.kind == "points"
        pts = sorted(st.points, key=lambda p: p @ u)
        assert len(pts) == 2
        assert np.abs(pts[0] - (-u)).max() <= 1e-8
        assert np.abs(pts[1] - u).max() <= 1e-8


def test_criterion_9_finite_time_isomorphism(basis2, capsys, rng):
    with criterion(capsys, 9, "finite-time isomorphism"):
        for model in (model_phase_damping(1.0), model_qubit_dissipation(1.0)):
            Z = lindblad_vf(model)
            A, b = Z.linear_parts()
            E, f = affine_flow_map(A, b, 1.0)
            Ei = np.linalg.inv(E)
            for T in (poisson_field(basis2), symmetric_field(basis2)):
                Tt = flow_tensor(Z, T, 1.0)
                for _ in range(10):
                    x = rng.normal(size=3) * 0.4
                    lhs = Ei @ _tensor_values(Tt, E @ x + f) @ Ei.T
                    assert np.abs(lhs - _tensor_values(T, x)).max() <= 1e-8
