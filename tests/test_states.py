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
from geomstates.states import _ScrambledHalton
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


class TestSlicePositivity:
    """Stacks whose rows use one or two coordinates, as the slice sampler
    draws them: the matrices skip the all-zero columns and stay bitwise
    those of the full sum."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_few_live_columns_match_per_point(self, n, rng):
        from geomstates.states import _density_matrices, _min_eigenvalues

        basis = build_basis(n)
        R = max_bloch_radius(n)
        stacks = [np.full((3, basis.m), -0.0)]  # no live column at all
        for live in ([0], [basis.m - 1], [0, 1],
                     sorted(rng.choice(basis.m, 2, replace=False))):
            X = np.zeros((40, basis.m))
            X[:, live] = rng.uniform(-R, R, size=(40, len(live)))
            X[::5] = 0.0  # all-zero rows
            X[1::7, live[0]] = -0.0
            # negative zeros in the columns that are skipped
            X[2::3] = np.where(X[2::3] == 0.0, -0.0, X[2::3])
            stacks += [X, -np.abs(X)]  # live columns with negative entries only
        for X in stacks:
            mats = _density_matrices(basis, X)
            low = _min_eigenvalues(basis, X)
            assert mats.shape == (len(X), n, n)
            for i, x in enumerate(X):
                ref = per_point_density_matrix(basis, x)
                assert mats[i].tobytes() == ref.tobytes()
                assert low[i].tobytes() == np.linalg.eigvalsh(ref).min().tobytes()


class TestBoundedPositivity:
    """``_in_body`` decides most rows from Gershgorin and 2x2 interlacing
    bounds; its decisions are those of ``eigvalsh`` at the cut."""

    @staticmethod
    def _cols(kind, basis, rng):
        m = basis.m
        if kind == "default":
            return list(range(m)) if basis.n == 2 else [0, 1]
        if kind == "full":
            return list(range(m))
        if kind == "single":
            return [int(rng.integers(m))]
        return sorted(int(c) for c in rng.choice(m, 3, replace=False))

    @staticmethod
    def _rows_at_cut(basis, cols, slack, rng, directions=10):
        """Rows on ``cols`` whose smallest eigenvalue is ``-slack + delta``
        for 64 ``delta`` in +-3e-13, along random directions of the slice."""
        n = basis.n
        rows = []
        for _ in range(directions):
            u = np.zeros(basis.m)
            u[cols] = rng.normal(size=len(cols))
            # lambda_min(rho(t u)) = 1/n + t mu for t > 0; mu < 0 as the
            # matrix is traceless
            mu = np.linalg.eigvalsh(per_point_density_matrix(basis, u) - np.eye(n) / n).min()
            for delta in np.linspace(-3e-13, 3e-13, 64):
                rows.append(u * ((delta - slack - 1.0 / n) / mu))
        return np.array(rows)

    @pytest.mark.parametrize("slack", [1e-12, 1e-8, 1e-6])
    @pytest.mark.parametrize("kind", ["default", "full", "single", "random"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_decisions_at_cut(self, n, kind, slack, rng):
        from geomstates.states import _in_body, _min_eigenvalues

        basis = build_basis(n)
        cols = self._cols(kind, basis, rng)
        X = self._rows_at_cut(basis, cols, slack, rng)
        want = _min_eigenvalues(basis, X) >= -slack
        assert 0 < want.sum() < len(X)  # the sweep straddles the cut
        assert (_in_body(basis, X, slack, cols) == want).all()
        assert (_in_body(basis, X, slack) == want).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_decisions_on_halton_slices(self, n):
        from geomstates.states import _in_body, _min_eigenvalues

        basis = build_basis(n)
        for cols in ([0, 1], [basis.m - 1], list(range(basis.m))):
            u = _ScrambledHalton(len(cols), n).random(2000)
            X = np.zeros((len(u), basis.m))
            X[:, cols] = (2.0 * u - 1.0) * max_bloch_radius(n)
            for slack in (1e-12, 1e-6):
                want = _min_eigenvalues(basis, X) >= -slack
                assert (_in_body(basis, X, slack, cols) == want).all()

    def test_near_band_is_thin(self, monkeypatch):
        """At n = 4 on the default slice, under 12 % of the drawn points
        reach eigvalsh (8.3 % of these)."""
        import geomstates.states as states

        basis = build_basis(4)
        u = _ScrambledHalton(2, 1).random(3846)
        X = np.zeros((len(u), basis.m))
        X[:, :2] = (2.0 * u - 1.0) * max_bloch_radius(4)
        sent = []
        exact = states._min_eigenvalues
        monkeypatch.setattr(
            states, "_min_eigenvalues", lambda b, Y: sent.append(len(Y)) or exact(b, Y)
        )
        inside = states._in_body(basis, X, 1e-12, [0, 1])
        assert sum(sent) < 0.12 * len(X)
        assert (inside == (exact(basis, X) >= -1e-12)).all()


    def test_rows_that_are_not_finite_are_outside(self, basis3):
        """eigvalsh returns NaN or fails to converge on them."""
        from geomstates.states import _in_body

        X = np.zeros((4, basis3.m))
        X[1, 4] = np.nan
        X[2, 0] = np.inf
        X[3, 7] = -np.inf
        with np.errstate(invalid="ignore"):
            assert _in_body(basis3, X, 1e-6).tolist() == [True, False, False, False]


class TestScrambledHalton:
    """The sampler of ``cli.sample_states`` and ``stationary_points``:
    bit-equal to ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)``."""

    def test_pinned_values(self):
        sampler = _ScrambledHalton(3, 7)
        first = sampler.random(2)
        assert first.shape == (2, 3) and first.flags.c_contiguous
        assert first.tolist() == [
            [0.10224233015287731, 0.9346983862017634, 0.8943413349392959],
            [0.6022423301528773, 0.2680317195350967, 0.09434133493929588],
        ]
        # a second call continues the sequence
        assert sampler.random(1).tolist() == [
            [0.3522423301528773, 0.6013650528684301, 0.294341334939296]
        ]
        assert _ScrambledHalton(15, 2**31 - 1).random(1)[0, -1] == 0.6816922461150502
        assert _ScrambledHalton(4, 0).random(0).shape == (0, 4)

    @pytest.mark.parametrize("d", range(1, 16))
    def test_bit_equal_to_scipy(self, d):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for seed in (0, 7, 2**31 - 1):
            ours = _ScrambledHalton(d, seed)
            # an integer ``seed`` seeds default_rng; scipy's newer ``rng``
            # keyword spawns a child generator from it instead
            ref = qmc.Halton(d=d, scramble=True, seed=seed)
            for n in (0, 1, 128, 513):
                assert np.array_equal(ours.random(n), ref.random(n)), (seed, n)
