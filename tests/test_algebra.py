"""Observable bases, structure constants, and the two products."""

import numpy as np
import pytest

from geomstates import (
    BasisMismatchError,
    DimensionError,
    NonHermitianError,
    associative_product,
    build_basis,
    jordan_product,
    jordan_product_coeffs,
    lie_product,
    lie_product_coeffs,
    verify_lie_jordan_axioms,
)
from geomstates.algebra import axiom_residuals
from conftest import random_hermitian

SQ3 = np.sqrt(3.0)


class TestBasisConstruction:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthogonality_and_tracelessness(self, n):
        basis = build_basis(n)
        els = basis.elements
        assert len(els) == n * n
        assert np.allclose(els[0], np.eye(n))
        for j, e in enumerate(els[1:], start=1):
            assert abs(np.trace(e)) < 1e-14, f"element {j} not traceless"
            assert np.abs(e - e.conj().T).max() < 1e-14, f"element {j} not Hermitian"
        for j in range(1, n * n):
            for k in range(j, n * n):
                val = np.trace(els[j] @ els[k]).real
                want = 2.0 if j == k else 0.0
                assert val == pytest.approx(want, abs=1e-13)

    def test_build_basis_cached(self):
        assert build_basis(3) is build_basis(3)

    def test_pauli_values(self, basis2):
        s1, s2, s3 = basis2.elements[1:]
        assert np.allclose(s1, [[0, 1], [1, 0]])
        assert np.allclose(s2, [[0, -1j], [1j, 0]])
        assert np.allclose(s3, [[1, 0], [0, -1]])

    def test_gell_mann_values(self, basis3):
        els = basis3.elements
        assert np.allclose(els[1], [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.allclose(els[2], [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
        assert np.allclose(els[3], np.diag([1.0, -1.0, 0.0]))
        assert np.allclose(els[4], [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert np.allclose(els[5], [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
        assert np.allclose(els[6], [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert np.allclose(els[7], [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
        assert np.allclose(els[8], np.diag([1.0, 1.0, -2.0]) / SQ3)


class TestStructureConstants:
    def test_n2_lie_is_levi_civita(self, basis2):
        c = basis2.lie_constants
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
        assert np.allclose(c[1:, 1:, 1:], eps, atol=1e-14)
        assert np.allclose(c[:, :, 0], 0.0, atol=1e-14)
        assert np.allclose(c[0], 0.0, atol=1e-14)

    def test_n2_jordan(self, basis2):
        d = basis2.jordan_constants
        # sigma_j (.) sigma_k = delta_jk I
        for j in range(1, 4):
            for k in range(1, 4):
                want = np.zeros(4)
                if j == k:
                    want[0] = 1.0
                assert np.allclose(d[j, k], want, atol=1e-14)
        # unit: 1 (.) a = a
        assert np.allclose(d[0], np.eye(4), atol=1e-14)

    def test_n3_hand_values(self, basis3):
        c, d = basis3.lie_constants, basis3.jordan_constants
        assert c[1, 2, 3] == pytest.approx(1.0, abs=1e-14)
        assert c[4, 5, 8] == pytest.approx(SQ3 / 2, abs=1e-14)
        assert c[1, 4, 7] == pytest.approx(0.5, abs=1e-14)
        assert c[2, 4, 6] == pytest.approx(0.5, abs=1e-14)
        # lambda_1^2 = diag(1,1,0) = (2/3) I + (1/sqrt 3) lambda_8
        assert d[1, 1, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert d[1, 1, 8] == pytest.approx(1.0 / SQ3, abs=1e-14)
        assert d[8, 8, 8] == pytest.approx(-1.0 / SQ3, abs=1e-13)
        assert d[1, 4, 6] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_slot_of_jordan(self, n):
        basis = build_basis(n)
        d = basis.jordan_constants
        for j in range(1, basis.dim):
            for k in range(1, basis.dim):
                want = 2.0 / n if j == k else 0.0
                assert d[j, k, 0] == pytest.approx(want, abs=1e-13)

    def test_lie_antisymmetric_jordan_symmetric(self, basis3):
        c, d = basis3.lie_constants, basis3.jordan_constants
        assert np.abs(c + c.transpose(1, 0, 2)).max() < 1e-13
        assert np.abs(d - d.transpose(1, 0, 2)).max() < 1e-13


class TestAxioms:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_axioms_hold(self, n):
        rep = verify_lie_jordan_axioms(build_basis(n))
        assert rep.passed(1e-9), f"axiom residuals too large: {rep}"
        assert rep.max_residual() < 1e-11

    @pytest.mark.parametrize(
        "array, broken, intact",
        [
            ("c", ("jacobi", "leibniz", "associator", "star_associativity"),
             ("jordan_identity",)),
            ("d", ("jordan_identity", "leibniz", "associator", "star_associativity"),
             ("jacobi",)),
        ],
    )
    def test_corrupted_constant_is_caught(self, basis3, array, broken, intact):
        c = basis3.lie_constants.copy()
        d = basis3.jordan_constants.copy()
        (c if array == "c" else d)[1, 2, 3] += 1e-6
        rep = axiom_residuals(c, d)
        for name in broken:
            assert getattr(rep, name) > 1e-7, (name, rep)
        for name in intact:
            assert getattr(rep, name) < 1e-11, (name, rep)
        assert not rep.passed(1e-9)


class TestProducts:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_and_coefficient_routes_agree(self, n, rng):
        basis = build_basis(n)
        for _ in range(10):
            a = basis.from_matrix(random_hermitian(rng, n))
            b = basis.from_matrix(random_hermitian(rng, n))
            lie_m = lie_product(a, b).coeffs
            lie_c = lie_product_coeffs(basis, a.coeffs, b.coeffs)
            assert np.abs(lie_m - lie_c).max() < 1e-12
            jor_m = jordan_product(a, b).coeffs
            jor_c = jordan_product_coeffs(basis, a.coeffs, b.coeffs)
            assert np.abs(jor_m - jor_c).max() < 1e-12

    def test_products_against_matrix_algebra(self, basis2, rng):
        a = basis2.from_matrix(random_hermitian(rng, 2))
        b = basis2.from_matrix(random_hermitian(rng, 2))
        A, B = a.matrix(), b.matrix()
        assert np.abs(
            lie_product(a, b).matrix() - (-0.5j) * (A @ B - B @ A)
        ).max() < 1e-12
        assert np.abs(
            jordan_product(a, b).matrix() - 0.5 * (A @ B + B @ A)
        ).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_associative_product_recomposes(self, n, rng):
        basis = build_basis(n)
        a = basis.from_matrix(random_hermitian(rng, n))
        b = basis.from_matrix(random_hermitian(rng, n))
        re, im = associative_product(a, b)
        assert np.abs(
            re.matrix() + 1j * im.matrix() - a.matrix() @ b.matrix()
        ).max() < 1e-12

    def test_observable_round_trip(self, basis3, rng):
        M = random_hermitian(rng, 3)
        obs = basis3.from_matrix(M)
        assert np.abs(obs.matrix() - M).max() < 1e-12
        again = basis3.coeffs_of(obs.matrix())
        assert np.abs(again - obs.coeffs).max() < 1e-12

    def test_observable_arithmetic(self, basis2, rng):
        a = basis2.from_matrix(random_hermitian(rng, 2))
        b = basis2.from_matrix(random_hermitian(rng, 2))
        assert np.allclose((a + b).coeffs, a.coeffs + b.coeffs)
        assert np.allclose((a - b).coeffs, a.coeffs - b.coeffs)
        assert np.allclose((-a).coeffs, -a.coeffs)
        assert np.allclose((2.0 * a).coeffs, 2.0 * a.coeffs)

    def test_traceless_observable(self, basis2):
        obs = basis2.traceless_observable([1.0, 0.0, 2.0])
        assert obs.is_traceless()
        assert obs.scalar_part == 0.0
        assert np.allclose(obs.traceless_coeffs, [1.0, 0.0, 2.0])


class TestErrors:
    def test_non_hermitian_rejected(self, basis2):
        with pytest.raises(NonHermitianError):
            basis2.coeffs_of(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_wrong_size_rejected(self, basis2):
        with pytest.raises(DimensionError):
            basis2.coeffs_of(np.eye(3))
        with pytest.raises(DimensionError):
            basis2.matrix_of(np.zeros(3))

    def test_mixed_basis_rejected(self, basis2, basis3):
        a = basis2.observable(np.zeros(4))
        b = basis3.observable(np.zeros(9))
        with pytest.raises(BasisMismatchError):
            lie_product(a, b)
