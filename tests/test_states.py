"""State coordinates, expectations, purity, strata, and moments."""

import numpy as np
import pytest

from geomstates import (
    NotAStateError,
    StateCoordinates,
    build_basis,
    covariance,
    expectation,
    max_bloch_radius,
    purity,
    state_from_json,
    state_from_matrix,
    state_to_json,
    state_to_matrix,
    stratum,
    variance,
)
from conftest import (
    per_point_density_matrix,
    random_hermitian,
    random_state_coords,
)


class TestCoordinates:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matrix_round_trip(self, n, rng):
        basis = build_basis(n)
        state = random_state_coords(rng, basis)
        rho = state_to_matrix(state)
        assert abs(np.trace(rho) - 1.0) < 1e-13
        back = state_from_matrix(rho, basis)
        assert np.abs(back.x - state.x).max() < 1e-12

    def test_maximally_mixed_is_origin(self, basis3):
        state = state_from_matrix(np.eye(3) / 3, basis3)
        assert np.abs(state.x).max() < 1e-14
        assert purity(state) == pytest.approx(1.0 / 3.0)

    def test_pure_state_norm(self, basis2, basis3):
        for basis in (basis2, basis3):
            n = basis.n
            rho = np.zeros((n, n), dtype=complex)
            rho[0, 0] = 1.0
            state = state_from_matrix(rho, basis)
            assert np.linalg.norm(state.x) == pytest.approx(
                max_bloch_radius(n), rel=1e-12
            )
            assert purity(state) == pytest.approx(1.0, rel=1e-12)

    def test_qubit_bloch_vector(self, basis2):
        # |0><0| has Bloch vector (0, 0, 1)
        rho = np.diag([1.0, 0.0]).astype(complex)
        state = state_from_matrix(rho, basis2)
        assert np.allclose(state.x, [0.0, 0.0, 1.0], atol=1e-14)


class TestValidation:
    def test_rejects_non_unit_trace(self, basis2):
        with pytest.raises(NotAStateError):
            state_from_matrix(np.eye(2), basis2)

    def test_rejects_negative_matrix(self, basis2):
        with pytest.raises(NotAStateError):
            state_from_matrix(np.diag([1.5, -0.5]), basis2)

    def test_rejects_non_hermitian(self, basis2):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(NotAStateError):
            state_from_matrix(rho, basis2)


class TestExpectations:
    @pytest.mark.parametrize("n", [2, 3])
    def test_expectation_matches_trace(self, n, rng):
        basis = build_basis(n)
        state = random_state_coords(rng, basis)
        for _ in range(5):
            a = basis.from_matrix(random_hermitian(rng, n))
            want = np.trace(state.matrix() @ a.matrix()).real
            assert expectation(a, state) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_variance_matches_trace_and_is_nonnegative(self, n, rng):
        basis = build_basis(n)
        for _ in range(10):
            state = random_state_coords(rng, basis, scale=float(rng.uniform(0, 1)))
            a = basis.from_matrix(random_hermitian(rng, n))
            rho, A = state.matrix(), a.matrix()
            want = np.trace(rho @ A @ A).real - np.trace(rho @ A).real ** 2
            v = variance(a, state)
            assert v == pytest.approx(want, abs=1e-10)
            assert v >= -1e-10

    def test_covariance_symmetric(self, basis2, rng):
        state = random_state_coords(rng, basis2)
        a = basis2.from_matrix(random_hermitian(rng, 2))
        b = basis2.from_matrix(random_hermitian(rng, 2))
        assert covariance(a, b, state) == pytest.approx(
            covariance(b, a, state), rel=1e-12
        )
        assert covariance(a, a, state) == pytest.approx(
            variance(a, state), rel=1e-12
        )


class TestStrata:
    def test_interior_and_pure(self, basis2, rng):
        mixed = random_state_coords(rng, basis2, scale=0.5)
        assert stratum(mixed).rank == 2
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert stratum(state_from_matrix(rho, basis2)).rank == 1

    def test_three_level_rank2(self, basis3):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        assert stratum(state_from_matrix(rho, basis3)).rank == 2


class TestJson:
    def test_round_trip(self, basis3, rng):
        state = random_state_coords(rng, basis3)
        text = state_to_json(state)
        back = state_from_json(text)
        assert back.basis.n == 3
        assert np.abs(back.x - state.x).max() < 1e-15

    def test_bad_coordinates_rejected(self):
        import json

        text = json.dumps({"n": 2, "x": [2.0, 0.0, 0.0]})
        with pytest.raises(NotAStateError):
            state_from_json(text)


class TestBatchedPositivity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_min_eigenvalues_match_per_point(self, n, rng):
        from geomstates.states import _density_matrices, _min_eigenvalues

        basis = build_basis(n)
        rows = [np.zeros(basis.m)]
        for _ in range(6):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            pure = state_from_matrix(np.outer(v, v.conj()), basis).x
            # a pure state, one just outside the body and an interior one
            rows += [pure, pure * (1 + 1e-9), pure * 1.05, 0.5 * pure]
        rows += [random_state_coords(rng, basis).x for _ in range(5)]
        X = np.array(rows)
        mats = _density_matrices(basis, X)
        low = _min_eigenvalues(basis, X)
        for i, x in enumerate(X):
            ref = per_point_density_matrix(basis, x)
            assert mats[i].tobytes() == ref.tobytes()
            state = StateCoordinates(basis, x)
            assert state_to_matrix(state).tobytes() == ref.tobytes()
            want = np.linalg.eigvalsh(state_to_matrix(state)).min()
            assert low[i].tobytes() == want.tobytes()
        # the rows just outside the body do fail a zero-slack test
        assert (low[2::4][:6] < 0).all() and (low[4::4][:6] > 0).all()
