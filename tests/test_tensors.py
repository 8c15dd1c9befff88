"""Poisson/symmetric tensor fields, algebraic vector fields, brackets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomstates import (
    DegeneratePointError,
    InvariantViolationError,
    Poly,
    StateCoordinates,
    build_basis,
    complex_structure_at,
    expectation,
    expectation_poly,
    field_csv_rows,
    flow_tensor,
    gradient_vf,
    hamiltonian_vf,
    jordan_bracket,
    jordan_product,
    lie_product,
    lindblad_vf,
    model_qubit_dissipation,
    poisson_bracket,
    poisson_field,
    state_from_matrix,
    symmetric_field,
)
from geomstates.tensors import _csv_lines
from conftest import random_hermitian, random_state_coords


def _coords_poly(m):
    return [Poly.coordinate(m, k) for k in range(m)]


class TestFields:
    def test_qubit_components(self, basis2):
        lam = poisson_field(basis2)
        x = np.array([0.2, -0.3, 0.5])
        M = lam(x)
        # L^{jk} = eps_{jkl} x_l
        want = np.array(
            [[0.0, x[2], -x[1]], [-x[2], 0.0, x[0]], [x[1], -x[0], 0.0]]
        )
        assert np.abs(M - want).max() < 1e-14

        R = symmetric_field(basis2)
        MR = R(x)
        want = np.eye(3) - np.outer(x, x)
        assert np.abs(MR - want).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetries(self, n):
        basis = build_basis(n)
        x = np.linspace(-0.2, 0.2, basis.m)
        L = poisson_field(basis)(x)
        R = symmetric_field(basis)(x)
        assert np.abs(L + L.T).max() < 1e-14
        assert np.abs(R - R.T).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_field_is_covariance(self, n, rng):
        """R(de_a, de_b) at a state equals the symmetrized covariance."""
        basis = build_basis(n)
        R = symmetric_field(basis)
        for _ in range(5):
            state = random_state_coords(rng, basis)
            a = basis.from_matrix(random_hermitian(rng, n))
            b = basis.from_matrix(random_hermitian(rng, n))
            lhs = R.contract(a.coeffs[1:], b.coeffs[1:])(state.x)
            want = expectation(jordan_product(a, b), state) - expectation(
                a, state
            ) * expectation(b, state)
            assert lhs == pytest.approx(want, abs=1e-11)


class TestBrackets:
    @pytest.mark.parametrize("n", [2, 3])
    def test_poisson_bracket_is_lie_expectation(self, n, rng):
        basis = build_basis(n)
        for _ in range(5):
            a = basis.from_matrix(random_hermitian(rng, n))
            b = basis.from_matrix(random_hermitian(rng, n))
            br = poisson_bracket(basis, a, b)
            want = expectation_poly(basis, lie_product(a, b))
            assert br.allclose(want, 1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_jordan_bracket_is_jordan_expectation(self, n, rng):
        basis = build_basis(n)
        for _ in range(5):
            a = basis.from_matrix(random_hermitian(rng, n))
            b = basis.from_matrix(random_hermitian(rng, n))
            br = jordan_bracket(basis, a, b)
            want = expectation_poly(basis, jordan_product(a, b))
            assert br.allclose(want, 1e-11)

    def test_qubit_hand_values(self, basis2):
        m = basis2.m
        e = np.eye(m)
        # {x1, x2} = x3 and cyclic
        assert poisson_bracket(basis2, e[0], e[1]).allclose(
            Poly.coordinate(m, 2), 1e-14
        )
        assert poisson_bracket(basis2, e[1], e[2]).allclose(
            Poly.coordinate(m, 0), 1e-14
        )
        # (x1, x1) = 1; (x1, x2) = 0  (coordinates multiply like Paulis)
        assert jordan_bracket(basis2, e[0], e[0]).allclose(Poly(m, 1.0), 1e-14)
        assert jordan_bracket(basis2, e[0], e[1]).allclose(Poly(m), 1e-14)

    def test_brackets_of_transported_fields(self, basis2):
        """Brackets against the tensors transported along qubit dissipation
        (rate 1, coordinates damped by ``diag(-1, -1, -2)``) for t = 0.7."""
        m, t = basis2.m, 0.7
        e = np.eye(m)
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        L = flow_tensor(Z, poisson_field(basis2), t)
        R = flow_tensor(Z, symmetric_field(basis2), t)
        x1, x3 = Poly.coordinate(m, 0), Poly.coordinate(m, 2)
        assert poisson_bracket(basis2, e[0], e[1], field=L).allclose(x3, 1e-14)
        assert poisson_bracket(basis2, e[1], e[2], field=L).allclose(
            np.exp(-2 * t) * x1, 1e-14
        )
        assert jordan_bracket(basis2, e[0], e[0], field=R).allclose(
            Poly(m, np.exp(-2 * t)), 1e-14
        )
        assert jordan_bracket(basis2, e[2], e[2], field=R).allclose(
            Poly(m, np.exp(-4 * t)), 1e-14
        )
        assert jordan_bracket(basis2, e[0], e[1], field=R).allclose(Poly(m), 1e-14)

    def test_three_level_hand_values(self, basis3):
        m = basis3.m
        e = np.eye(m)
        sq3 = np.sqrt(3.0)
        # {x4, x5} = (1/2) x3 + (sqrt 3 / 2) x8
        want = Poly(m, c1=0.5 * e[2] + (sq3 / 2) * e[7])
        assert poisson_bracket(basis3, e[3], e[4]).allclose(want, 1e-14)
        # (x3, x3) = 2/3 + (1/sqrt 3) x8
        want = Poly(m, c0=2.0 / 3.0, c1=(1.0 / sq3) * e[7])
        assert jordan_bracket(basis3, e[2], e[2]).allclose(want, 1e-13)
        # (x3, x4) = (1/2) x4
        want = Poly(m, c1=0.5 * e[3])
        assert jordan_bracket(basis3, e[2], e[3]).allclose(want, 1e-14)


class TestVectorFields:
    @pytest.mark.parametrize("n", [2, 3])
    def test_hamiltonian_field_derives_expectations(self, n, rng):
        basis = build_basis(n)
        for _ in range(4):
            a = basis.from_matrix(random_hermitian(rng, n))
            X = hamiltonian_vf(basis, a)
            for _ in range(3):
                b = basis.from_matrix(random_hermitian(rng, n))
                lhs = X.directional_derivative(expectation_poly(basis, b))
                want = expectation_poly(basis, lie_product(a, b))
                assert lhs.allclose(want, 1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradient_field_derives_expectations(self, n, rng):
        basis = build_basis(n)
        for _ in range(4):
            a = basis.from_matrix(random_hermitian(rng, n))
            Y = gradient_vf(basis, a)
            for _ in range(3):
                b = basis.from_matrix(random_hermitian(rng, n))
                lhs = Y.directional_derivative(expectation_poly(basis, b))
                ea = expectation_poly(basis, a)
                eb = expectation_poly(basis, b)
                want = expectation_poly(
                    basis, jordan_product(a, b)
                ) - ea.multiply(eb)
                assert lhs.allclose(want, 1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_hamiltonian_flow_preserves_purity_everywhere(self, n, rng):
        basis = build_basis(n)
        m = basis.m
        coords = _coords_poly(m)
        for _ in range(4):
            a = basis.from_matrix(random_hermitian(rng, n))
            X = hamiltonian_vf(basis, a)
            total = Poly(m)
            for k in range(m):
                total = total + coords[k].multiply(X.components[k])
            assert total.is_zero(1e-12), "x . X_a(x) must vanish identically"

    def test_unit_sphere_tangency_qubit(self, basis2, rng):
        """On the pure-state sphere both field families are tangent."""
        m = basis2.m
        for _ in range(5):
            a = basis2.from_matrix(random_hermitian(rng, 2))
            X = hamiltonian_vf(basis2, a)
            Y = gradient_vf(basis2, a)
            for _ in range(10):
                u = rng.normal(size=m)
                u /= np.linalg.norm(u)
                assert abs(u @ X(u)) < 1e-12
                assert abs(u @ Y(u)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutator_tables(self, n):
        """[X_j, X_k] = c X, [Y_j, Y_k] = -c X, [X_j, Y_k] = c Y."""
        basis = build_basis(n)
        m = basis.m
        c = basis.lie_constants[1:, 1:, 1:]
        e = np.eye(m)
        X = [hamiltonian_vf(basis, e[j]) for j in range(m)]
        Y = [gradient_vf(basis, e[j]) for j in range(m)]

        def combo(fields, w):
            out = fields[0].scale(w[0])
            for l in range(1, m):
                out = out + fields[l].scale(w[l])
            return out

        for j in range(m):
            for k in range(m):
                w = c[j, k]
                assert X[j].commutator(X[k]).allclose(combo(X, w), 1e-10)
                assert Y[j].commutator(Y[k]).allclose(combo(X, -w), 1e-10)
                assert X[j].commutator(Y[k]).allclose(combo(Y, w), 1e-10)


class TestComplexStructure:
    def test_cubes_to_minus_itself_interior(self, basis2, rng):
        for _ in range(10):
            state = random_state_coords(rng, basis2, scale=0.7)
            J, residual = complex_structure_at(state)
            assert residual < 1e-8
            assert np.abs(J @ J @ J + J).max() < 1e-8

    def test_pure_states(self, basis2, rng):
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            state = state_from_matrix(np.outer(v, v.conj()), basis2)
            J, residual = complex_structure_at(state)
            assert residual < 1e-8

    def test_three_level_interior(self, basis3, rng):
        state = random_state_coords(rng, basis3, scale=0.6)
        J, residual = complex_structure_at(state)
        assert residual < 1e-8

    def test_degenerate_at_mixed_state(self, basis2):
        state = StateCoordinates(basis2, np.zeros(3))
        with pytest.raises(DegeneratePointError):
            complex_structure_at(state)


class TestCsv:
    def test_rows_shape_and_precision(self, basis2):
        X = hamiltonian_vf(basis2, np.array([0.0, 0.0, 1.0]))
        pts = [np.array([0.25, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])]
        rows = field_csv_rows(X, pts)
        assert rows[0].split(",") == ["x_1", "x_2", "x_3", "v_1", "v_2", "v_3"]
        assert len(rows) == 3
        # field of sigma_3: (x2, -x1, 0)
        assert rows[1].split(",")[3:] == ["0", "-0.25", "0"]
        assert float(rows[2].split(",")[3]) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just(0), st.integers(0, 6)),
            st.tuples(st.just(1), st.integers(0, 6)),
            st.tuples(st.integers(0, 12), st.just(1)),
            st.tuples(st.integers(0, 12), st.integers(1, 4).map(lambda m: 2 * m)),
        ),
        st.data(),
    )
    def test_lines_match_per_value_format(self, shape, data):
        pool = st.sampled_from(
            [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             1e16, 0.1, 1.0, -3.0, 2.0 ** 53]
        ) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(
            -(10 ** 17), 10 ** 17
        ).map(float)
        vals = data.draw(st.lists(pool, min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1]))
        values = np.array(vals, dtype=float).reshape(shape)
        names = [f"c_{j}" for j in range(shape[1])]
        want = [",".join(names)] + [
            ",".join("{:.17g}".format(v) for v in row) for row in values.tolist()
        ]
        assert _csv_lines(names, values) == want

    @pytest.mark.parametrize("count", [0, 1, 7, 200])
    def test_field_rows_match_per_value_rows(self, basis3, rng, count):
        Y = gradient_vf(basis3, rng.normal(size=8))
        pts = rng.uniform(-0.5, 0.5, size=(count, 8))
        pts[::3, 2] = -0.0
        pts[1::4] = 0.0
        # reference: one `{:.17g}` field per value, rows joined with commas
        names = [f"x_{j + 1}" for j in range(8)] + [f"v_{j + 1}" for j in range(8)]
        old = [names] + [
            list(map("{:.17g}".format, row))
            for row in np.concatenate((pts, Y(pts)), axis=1).tolist()
        ]
        assert field_csv_rows(Y, pts) == [",".join(row) for row in old]

    def test_oversize_text_raises_before_formatting(self):
        # a zero-stride view: 10^10 rows that take no memory themselves
        values = np.broadcast_to(0.0, (10**10, 2))
        with pytest.raises(InvariantViolationError, match="CSV text of 10000000000 rows"):
            _csv_lines(["a", "b"], values)
