"""Markovian generators, model builders, flows, and stationary sets."""

import numpy as np
import pytest

from geomstates import (
    DimensionError,
    IntegrationDivergedError,
    InvariantViolationError,
    LindbladModel,
    NonHermitianError,
    PolyVectorField,
    affine_flow_map,
    build_basis,
    gradient_vf,
    hamiltonian_vf,
    integrate,
    kraus_vf,
    lindblad_parts,
    lindblad_vf,
    linear_map_matrix,
    model_bloch_field,
    model_double_bracket,
    model_gisin,
    model_kaufman_morrison,
    model_massive_decoherence,
    model_phase_damping,
    model_pure_decoherence,
    model_qubit_dissipation,
    model_three_level_decay,
    pure_decoherence_kraus,
    purity,
    jordan_product,
    lie_product,
    state_from_coords,
    stationary_points,
    vf_from_linear_map,
)
from conftest import per_point_density_matrix, random_hermitian

SQ3 = np.sqrt(3.0)


def _random_model(rng, n, n_jumps=2, hamiltonian=True):
    basis = build_basis(n)
    H = random_hermitian(rng, n, traceless=True) if hamiltonian else None
    Vs = []
    for _ in range(n_jumps):
        V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V = V - (np.trace(V) / n) * np.eye(n)
        Vs.append(0.5 * V)
    return LindbladModel(basis, H=H, V=Vs)


class TestLinearMapLift:
    def test_identity_map_gives_zero_field(self, basis3):
        Z = vf_from_linear_map(lambda rho: rho, basis3)
        assert all(p.is_zero(0.0) for p in Z.components)

    def test_matrix_and_callable_routes_agree(self, basis2):
        model = model_phase_damping(0.7)
        s = linear_map_matrix(model.action, basis2)
        Z1 = vf_from_linear_map(model.action, basis2)
        Z2 = vf_from_linear_map(s, basis2)
        assert Z1.allclose(Z2, 1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_field_matches_matrix_derivative(self, n, rng):
        """Z(x) equals the coordinates of L(rho) for trace-preserving L."""
        basis = build_basis(n)
        model = _random_model(rng, n)
        Z = lindblad_vf(model)
        from conftest import random_state_coords

        for _ in range(5):
            state = random_state_coords(rng, basis)
            drho = model.action(state.matrix())
            want = np.array(
                [
                    np.einsum("ab,ba->", drho, basis.elements[j]).real
                    for j in range(1, basis.dim)
                ]
            )
            assert np.abs(Z(state.x) - want).max() < 1e-11

    def test_non_trace_preserving_map_becomes_projective(self, basis2):
        P = np.diag([1.0, 0.0]).astype(complex)
        Z = vf_from_linear_map(lambda rho: P @ rho @ P, basis2)
        assert not Z.is_affine  # projective correction is quadratic


class TestModelFields:
    def test_phase_damping_exact(self, basis2):
        gamma = 1.0
        Z = lindblad_vf(model_phase_damping(gamma))
        A, b = Z.linear_parts()
        assert np.array_equal(A, np.diag([-2.0, -2.0, 0.0]))
        assert np.array_equal(b, np.zeros(3))

    def test_qubit_dissipation_exact(self):
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        A, b = Z.linear_parts()
        assert np.array_equal(A, np.diag([-1.0, -1.0, -2.0]))
        assert np.array_equal(b, np.zeros(3))
        A2, b2 = lindblad_vf(model_qubit_dissipation(0.5)).linear_parts()
        assert np.abs(A2 - np.diag([-0.5, -0.5, -1.0])).max() < 1e-14
        assert np.array_equal(b2, np.zeros(3))

    def test_three_level_decay_exact(self):
        Z = lindblad_vf(model_three_level_decay())
        A, b = Z.linear_parts()
        want_A = np.zeros((8, 8))
        want_A[0, 7] = -2.0 / SQ3
        want_A[2, 7] = -1.0 / SQ3
        want_A[3:7, 3:7] = -1.5 * np.eye(4)
        want_A[7, 7] = -3.0
        want_b = np.array([2.0 / 3.0, 0.0, 1.0 / 3.0, 0, 0, 0, 0, SQ3])
        assert np.abs(A - want_A).max() < 1e-14
        assert np.abs(b - want_b).max() < 1e-14

    def test_massive_decoherence_exact(self):
        Z = model_massive_decoherence(3, 1.0)
        A, b = Z.linear_parts()
        assert np.abs(A - np.diag([-3.0, -3.0, 0.0, -3, -3, -3, -3, 0.0])).max() < 1e-14
        assert np.array_equal(b, np.zeros(8))

    def test_pure_decoherence_exactly_diagonal(self):
        Z = model_pure_decoherence(3, (1.0, 1.0))
        A, b = Z.linear_parts()
        assert np.abs(A - np.diag([-1.0, -1.0, 0.0, -1, -1, -1, -1, 0.0])).max() < 1e-14
        assert np.array_equal(b, np.zeros(8))

    def test_pure_decoherence_jump_route_identical(self):
        Z1 = model_pure_decoherence(3, (0.4, 1.3))
        Z2 = lindblad_vf(pure_decoherence_kraus(3, (0.4, 1.3)))
        assert Z1.allclose(Z2, 1e-13)

    def test_massive_is_scaled_pure_for_d3(self):
        """Uniform damping with rate 1 equals the two-rate random-phase
        model sped up by 3 when d = 3 (all off-diagonal weights agree)."""
        Zm = model_massive_decoherence(3, 1.0)
        Zp = model_pure_decoherence(3, (1.0, 1.0))
        assert Zm.allclose(Zp.scale(3.0), 1e-13)

    def test_bloch_field(self):
        Z = model_bloch_field(omega=2.0)
        A, b = Z.linear_parts()
        want = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.abs(A - want).max() < 1e-14
        assert np.array_equal(b, np.zeros(3))

    def test_double_bracket_equals_jump_model(self, rng):
        for n in (2, 3):
            basis = build_basis(n)
            H = random_hermitian(rng, n, traceless=True)
            Z1 = model_double_bracket(basis, basis.from_matrix(H))
            Z2 = lindblad_vf(LindbladModel(basis, H=None, V=[H / np.sqrt(2.0)]))
            assert Z1.allclose(Z2, 1e-11)

    def test_double_bracket_identity(self, rng):
        """[[H, [[H, G]]]] = (H . G) . H - H^2 . G for observables."""
        for n in (2, 3):
            basis = build_basis(n)
            for _ in range(5):
                H = basis.from_matrix(random_hermitian(rng, n))
                G = basis.from_matrix(random_hermitian(rng, n))
                lhs = lie_product(H, lie_product(H, G))
                rhs = jordan_product(jordan_product(H, G), H) - jordan_product(
                    jordan_product(H, H), G
                )
                assert lhs.allclose(rhs, 1e-10)

    def test_gisin_preserves_purity(self, basis2, rng):
        Z = model_gisin(basis2, basis2.traceless_observable([0.0, 0.0, 1.0]))
        for _ in range(20):
            x = rng.normal(size=3) * 0.5
            assert abs(x @ Z(x)) < 1e-12

    def test_gisin_qubit_closed_form(self, basis2):
        """For H = sigma_3 the field is (x1 x3, x2 x3, -(x1^2+x2^2))/2."""
        Z = model_gisin(basis2, basis2.traceless_observable([0.0, 0.0, 1.0]))
        x = np.array([0.3, -0.2, 0.4])
        want = 0.5 * np.array(
            [x[0] * x[2], x[1] * x[2], -(x[0] ** 2 + x[1] ** 2)]
        )
        assert np.abs(Z(x) - want).max() < 1e-14

    def test_kaufman_morrison_composition(self, basis2):
        H = basis2.traceless_observable([0.0, 0.0, 1.0])
        S = basis2.traceless_observable([0.0, 0.0, -1.0])
        Z = model_kaufman_morrison(basis2, H, S)
        want = hamiltonian_vf(basis2, H) + gradient_vf(basis2, S)
        assert Z.allclose(want, 0.0)


class TestDecomposition:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_three_way_split(self, n, rng):
        for _ in range(5):
            model = _random_model(rng, n)
            Z = lindblad_vf(model)
            parts = lindblad_parts(model)
            recombined = (
                parts["hamiltonian"] - parts["gradient"] + parts["kraus"]
            )
            assert Z.allclose(recombined, 1e-10)

    def test_kraus_field_alone_is_quadratic(self, basis2):
        V = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        K = kraus_vf([V], basis2)
        assert not K.is_affine

    def test_jumpless_model_is_hamiltonian(self, basis2, rng):
        H = random_hermitian(rng, 2, traceless=True)
        model = LindbladModel(basis2, H=H, V=[])
        Z = lindblad_vf(model)
        want = hamiltonian_vf(basis2, basis2.from_matrix(H))
        assert Z.allclose(want, 1e-12)


class TestModelValidation:
    def test_rejects_non_hermitian_h(self, basis2):
        with pytest.raises(NonHermitianError):
            LindbladModel(basis2, H=np.array([[0.0, 1.0], [0.0, 0.0]]), V=[])

    def test_rejects_traceful_h(self, basis2):
        with pytest.raises(InvariantViolationError):
            LindbladModel(basis2, H=np.eye(2), V=[])

    def test_rejects_traceful_jump(self, basis2):
        with pytest.raises(InvariantViolationError):
            LindbladModel(basis2, H=None, V=[np.eye(2)])

    def test_rejects_empty_model(self, basis2):
        with pytest.raises(DimensionError):
            LindbladModel(basis2, H=None, V=[])

    @pytest.mark.parametrize(
        "build",
        [
            lambda b: lindblad_vf(model_phase_damping(float("nan"))),
            lambda b: model_massive_decoherence(3, float("nan")),
            lambda b: model_gisin(b, b.observable([0.0, float("nan"), 0.0, 1.0])),
            lambda b: hamiltonian_vf(b, [0.0, np.inf, 0.0, 0.0]),
        ],
        ids=["phase-damping", "massive-decoherence", "gisin", "hamiltonian"],
    )
    def test_rejects_non_finite_coefficients(self, build, basis2):
        # a NaN compares false against the snap cut and would become zero
        with pytest.raises(InvariantViolationError):
            build(basis2)


class TestFlows:
    def test_affine_flow_map_matches_series(self, rng):
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        t = 0.37
        E, f = affine_flow_map(A, b, t)
        import scipy.linalg

        assert np.abs(E - scipy.linalg.expm(A * t)).max() < 1e-12
        # f = int_0^t e^{A s} b ds, checked via quadrature
        ss = np.linspace(0.0, t, 4001)
        vals = np.stack([scipy.linalg.expm(A * s) @ b for s in ss])
        quad = np.trapezoid(vals, ss, axis=0)
        assert np.abs(f - quad).max() < 1e-8

    def test_flow_semigroup(self, rng):
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        E1, f1 = affine_flow_map(A, b, 0.4)
        E2, f2 = affine_flow_map(A, b, 0.9)
        E3, f3 = affine_flow_map(A, b, 1.3)
        assert np.abs(E2 @ E1 - E3).max() < 1e-12
        assert np.abs(E2 @ f1 + f2 - f3).max() < 1e-12

    def test_phase_damping_closed_form(self, basis2):
        Z = lindblad_vf(model_phase_damping(1.0))
        x0 = np.array([0.4, -0.3, 0.5])
        traj = integrate(Z, state_from_coords(basis2, x0), 2.0, dt=0.25)
        assert traj.method == "exact-affine"
        for t, x in zip(traj.times, traj.xs):
            want = np.array(
                [np.exp(-2 * t) * x0[0], np.exp(-2 * t) * x0[1], x0[2]]
            )
            assert np.abs(x - want).max() < 1e-12

    def test_exact_and_rk45_agree(self, basis2):
        Z = lindblad_vf(model_qubit_dissipation(0.8))
        x0 = np.array([0.4, -0.3, 0.5])
        state0 = state_from_coords(basis2, x0)
        t_exact = integrate(Z, state0, 3.0, dt=0.5)
        t_rk = integrate(Z, state0, 3.0, dt=0.5, method="rk45")
        assert t_rk.method == "rk45"
        assert np.abs(t_exact.xs - t_rk.xs).max() < 1e-8

    def test_quadratic_field_integrates(self, basis2):
        Z = model_gisin(basis2, basis2.traceless_observable([0.0, 0.0, 1.0]))
        state0 = state_from_coords(basis2, np.array([0.6, 0.0, 0.0]))
        traj = integrate(Z, state0, 4.0, dt=0.1)
        assert traj.method == "rk45"
        pur = traj.purities()
        assert np.abs(pur - pur[0]).max() < 1e-8  # purity preserved
        assert traj.xs[-1][2] < -0.3  # relaxes toward the lower pole

    def test_purities_match_definition(self, basis2):
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        state0 = state_from_coords(basis2, np.array([0.2, 0.1, 0.6]))
        traj = integrate(Z, state0, 1.0)
        for i in (0, len(traj.times) - 1):
            assert traj.purities()[i] == pytest.approx(
                purity(traj.state(i)), rel=1e-13
            )

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    def test_nonpositive_sample_step_raises(self, basis2, dt):
        Z = lindblad_vf(model_phase_damping(1.0))
        state0 = state_from_coords(basis2, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(DimensionError):
            integrate(Z, state0, 1.0, dt=dt)

    def test_escape_detected(self, basis2):
        Z = PolyVectorField.from_affine(np.eye(3), np.zeros(3))
        state0 = state_from_coords(basis2, np.array([0.0, 0.0, 0.999]))
        with pytest.raises(IntegrationDivergedError) as exc:
            integrate(Z, state0, 2.0, dt=0.05)
        assert exc.value.time is not None and exc.value.time > 0

    @pytest.mark.parametrize("dt, low", [(0.1, "-7.087e+00"), (20.0, "nan")])
    def test_overflowing_samples_are_an_escape(self, basis3, dt, low):
        """Samples that overflow to inf are not states: the escape is the
        typed error, not numpy's LinAlgError from eigvalsh."""
        Z = PolyVectorField.from_affine(50.0 * np.eye(8), np.zeros(8))
        x0 = np.zeros(8)
        x0[0] = 0.1
        state0 = state_from_coords(basis3, x0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationDivergedError) as exc:
                integrate(Z, state0, 20.0, dt=dt)
        assert exc.value.time == dt
        assert str(exc.value).endswith(f"(eigenvalue {low})")

    @pytest.mark.parametrize("method", ["exact", "rk45"])
    def test_escape_time_matches_per_sample_scan(self, basis3, rng, method):
        # a slow rotation plus uniform growth: states leave the body mid-run
        K = rng.normal(size=(8, 8))
        A = 0.3 * (K - K.T) + 0.4 * np.eye(8)
        Z = PolyVectorField.from_affine(A, np.zeros(8))
        x0 = np.zeros(8)
        x0[[0, 7]] = [0.2, 0.3]
        state0 = state_from_coords(basis3, x0)
        with pytest.raises(IntegrationDivergedError) as exc:
            integrate(Z, state0, 6.0, dt=0.05, method=method)
        # reference: the exact samples, scanned one at a time
        times = np.linspace(0.0, 6.0, 121)
        E, f = affine_flow_map(A, np.zeros(8), 0.05)
        x = x0
        for t in times[1:]:
            x = E @ x + f
            low = np.linalg.eigvalsh(per_point_density_matrix(basis3, x)).min()
            if low < -1e-6:
                break
        assert 0.5 < t < 5.5
        assert exc.value.time == t
        msg = f"trajectory left the state body at t={t:.6g} (eigenvalue "
        if method == "exact":
            msg += f"{low:.3e})"
        assert str(exc.value).startswith(msg)


class TestStationary:
    def test_phase_damping_axis(self, basis2):
        Z = lindblad_vf(model_phase_damping(1.0))
        st = stationary_points(Z, basis2)
        assert st.kind == "affine-set"
        assert np.abs(st.points[0]).max() < 1e-12
        assert st.directions.shape == (3, 1)
        assert np.abs(np.abs(st.directions[:, 0]) - [0, 0, 1]).max() < 1e-12

    def test_dissipation_unique_point(self, basis2):
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        st = stationary_points(Z, basis2)
        assert st.kind == "affine-set"
        assert np.abs(st.points[0]).max() < 1e-12
        assert st.directions.shape == (3, 0)
        assert st.in_body == [True]

    def test_three_level_decay_plane(self, basis3):
        Z = lindblad_vf(model_three_level_decay())
        st = stationary_points(Z, basis3)
        assert st.kind == "affine-set"
        want = np.zeros(8)
        want[7] = 1.0 / SQ3
        assert np.abs(st.points[0] - want).max() < 1e-12
        # directions span exactly the first three coordinates
        D = st.directions
        assert D.shape == (8, 3)
        assert np.abs(D[3:]).max() < 1e-12

    def test_gradient_field_poles(self, basis2):
        Y = gradient_vf(basis2, basis2.traceless_observable([0.0, 0.0, 1.0]))
        st = stationary_points(-Y, basis2)
        assert st.kind == "points"
        pts = np.array(st.points)
        assert len(pts) == 2
        assert np.abs(pts[0] - [0, 0, -1]).max() < 1e-9
        assert np.abs(pts[1] - [0, 0, 1]).max() < 1e-9

    def test_gisin_axis_points(self, basis2):
        Z = model_gisin(basis2, basis2.traceless_observable([0.0, 0.0, 1.0]))
        st = stationary_points(Z, basis2)
        assert st.kind == "points"
        for p in st.points:
            assert abs(p[0]) < 1e-8 and abs(p[1]) < 1e-8  # on the x3-axis

    def test_magnetic_axis_is_stationary_set(self, basis2):
        Z = model_bloch_field(1.0)
        st = stationary_points(Z, basis2)
        assert st.kind == "affine-set"
        assert st.directions.shape == (3, 1)
        assert np.abs(np.abs(st.directions[:, 0]) - [0, 0, 1]).max() < 1e-12
