"""Degree-two polynomial arithmetic: the coefficient backbone."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomstates import (
    DegreeOverflowError,
    DimensionError,
    InvariantViolationError,
    Poly,
    PolyTensorField,
    PolyVectorField,
    build_basis,
    gradient_vf,
    hamiltonian_vf,
)
from geomstates.poly import _compose_affine
from conftest import tracked_product


def _rand_poly(rng, m, quad=True):
    return Poly(
        m,
        rng.normal(),
        rng.normal(size=m),
        rng.normal(size=(m, m)) if quad else None,
    )


class TestPoly:
    def test_evaluation_matches_coefficients(self, rng):
        m = 4
        p = _rand_poly(rng, m)
        x = rng.normal(size=m)
        expected = p.c0 + p.c1 @ x + x @ p.c2 @ x
        assert p(x) == pytest.approx(expected, rel=1e-14)

    def test_c2_symmetrized_on_input(self):
        p = Poly(2, c2=[[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(p.c2, [[0.0, 0.5], [0.5, 0.0]])
        # the quadratic form value is unchanged by symmetrization
        assert p([2.0, 3.0]) == pytest.approx(6.0)

    def test_degree(self):
        assert Poly(3, 1.0).degree() == 0
        assert Poly(3, 0.0, [1.0, 0.0, 0.0]).degree() == 1
        assert Poly(3, c2=np.eye(3)).degree() == 2
        assert Poly(3).is_zero()

    def test_coordinate(self):
        p = Poly.coordinate(3, 1)
        assert p([5.0, 7.0, 9.0]) == 7.0

    def test_linear_ops(self, rng):
        m = 3
        p, q = _rand_poly(rng, m), _rand_poly(rng, m)
        x = rng.normal(size=m)
        assert (p + q)(x) == pytest.approx(p(x) + q(x), rel=1e-13)
        assert (p - q)(x) == pytest.approx(p(x) - q(x), rel=1e-13)
        assert (-p)(x) == pytest.approx(-p(x), rel=1e-13)
        assert p.scale(2.5)(x) == pytest.approx(2.5 * p(x), rel=1e-13)

    def test_partial_derivative(self, rng):
        m = 3
        p = _rand_poly(rng, m)
        x = rng.normal(size=m)
        h = 1e-6
        for k in range(m):
            e = np.zeros(m)
            e[k] = 1.0
            fd = (p(x + h * e) - p(x - h * e)) / (2 * h)
            assert p.partial(k)(x) == pytest.approx(fd, abs=1e-7)

    def test_multiply_linear_times_linear(self, rng):
        m = 3
        p = _rand_poly(rng, m, quad=False)
        q = _rand_poly(rng, m, quad=False)
        prod = p.multiply(q)
        x = rng.normal(size=m)
        assert prod(x) == pytest.approx(p(x) * q(x), rel=1e-12)

    def test_multiply_overflow_raises(self, rng):
        m = 2
        p = Poly(m, c2=np.eye(m))
        q = Poly(m, 0.0, np.ones(m))
        with pytest.raises(DegreeOverflowError):
            p.multiply(q)

    def test_multiply_quadratic_times_quadratic_raises(self):
        # x1^2 * x2^2 has no cubic part; its quartic part alone must raise
        p = Poly(2, c2=[[1.0, 0.0], [0.0, 0.0]])
        q = Poly(2, c2=[[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegreeOverflowError):
            p.multiply(q)

    def test_snap(self):
        p = Poly(2, 1e-15, [1.0, 1e-16], [[1e-15, 0.0], [0.0, 2.0]])
        s = p.snap(1e-12)
        assert s.c0 == 0.0
        assert s.c1[1] == 0.0
        assert s.c2[0, 0] == 0.0
        assert s.c2[1, 1] == 2.0

    def test_dict_round_trip(self, rng):
        p = _rand_poly(rng, 3)
        q = Poly.from_dict(p.to_dict())
        assert q.allclose(p, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Poly(2)(np.zeros(3))


class TestPolyVectorField:
    def test_from_affine_and_linear_parts(self, rng):
        m = 3
        A = rng.normal(size=(m, m))
        b = rng.normal(size=m)
        Z = PolyVectorField.from_affine(A, b)
        assert Z.is_affine
        A2, b2 = Z.linear_parts()
        assert np.allclose(A2, A) and np.allclose(b2, b)
        x = rng.normal(size=m)
        assert np.allclose(Z(x), A @ x + b)

    def test_jacobian(self, rng):
        m = 3
        comps = [_rand_poly(rng, m) for _ in range(m)]
        Z = PolyVectorField(comps)
        x = rng.normal(size=m)
        J = Z.jacobian(x)
        h = 1e-6
        for k in range(m):
            e = np.zeros(m)
            e[k] = 1.0
            fd = (Z(x + h * e) - Z(x - h * e)) / (2 * h)
            assert np.allclose(J[:, k], fd, atol=1e-6)

    def test_directional_derivative(self, rng):
        m = 3
        Z = PolyVectorField.from_affine(rng.normal(size=(m, m)), rng.normal(size=m))
        f = _rand_poly(rng, m)
        g = Z.directional_derivative(f)
        x = rng.normal(size=m)
        h = 1e-7
        v = Z(x)
        fd = (f(x + h * v) - f(x - h * v)) / (2 * h)
        assert g(x) == pytest.approx(fd, abs=1e-6)

    def test_commutator_of_linear_fields_is_matrix_commutator(self, rng):
        m = 3
        A = rng.normal(size=(m, m))
        B = rng.normal(size=(m, m))
        ZA = PolyVectorField.from_affine(A, np.zeros(m))
        ZB = PolyVectorField.from_affine(B, np.zeros(m))
        C = ZA.commutator(ZB)
        M, c = C.linear_parts()
        # [Z_A, Z_B]^k = Z_A(Z_B^k) - Z_B(Z_A^k) corresponds to BA - AB
        assert np.allclose(M, B @ A - A @ B, atol=1e-12)
        assert np.allclose(c, 0.0)

    def test_vector_ops(self, rng):
        m = 3
        Z = PolyVectorField([_rand_poly(rng, m) for _ in range(m)])
        W = PolyVectorField([_rand_poly(rng, m) for _ in range(m)])
        x = rng.normal(size=m)
        assert np.allclose((Z + W)(x), Z(x) + W(x))
        assert np.allclose((Z - W)(x), Z(x) - W(x))
        assert np.allclose((-Z)(x), -Z(x))
        assert np.allclose(Z.scale(3.0)(x), 3.0 * Z(x))


class TestPolyTensorField:
    def test_symmetry_validation(self, rng):
        m = 2
        p = _rand_poly(rng, m, quad=False)
        zero = Poly(m)
        good = [[zero, p], [-p, zero]]
        T = PolyTensorField(good, symmetry="antisymmetric")
        x = rng.normal(size=m)
        M = T(x)
        assert M[0, 1] == pytest.approx(p(x))
        assert M[1, 0] == pytest.approx(-p(x))
        bad = [[zero, p], [p.scale(0.5), zero]]
        with pytest.raises(Exception):
            PolyTensorField(bad, symmetry="antisymmetric")

    def test_contract(self, rng):
        m = 3
        comps = [[_rand_poly(rng, m, quad=False) for _ in range(m)] for _ in range(m)]
        T = PolyTensorField(comps, symmetry="none")
        u = rng.normal(size=m)
        v = rng.normal(size=m)
        x = rng.normal(size=m)
        assert T.contract(u, v)(x) == pytest.approx(u @ T(x) @ v, rel=1e-12)

    def test_dict_round_trip(self, rng):
        m = 2
        p = _rand_poly(rng, m, quad=False)
        zero = Poly(m)
        T = PolyTensorField([[zero, p], [-p, zero]], symmetry="antisymmetric")
        S = PolyTensorField.from_dict(T.to_dict())
        x = rng.normal(size=m)
        assert np.allclose(S(x), T(x))


# ----------------------------------------------------- array-backed fields


def _random_stack(rng, lead, m, quadratic):
    """Coefficient arrays with about a third of the entries exactly zero."""
    def draw(shape):
        return rng.normal(size=shape) * (rng.random(shape) > 0.3)

    c2 = draw(lead + (m, m)) if quadratic else None
    return draw(lead), draw(lead + (m,)), c2


def _abs_values(polys, x):
    """Sum of the absolute values of each polynomial's terms at ``x``."""
    ax = np.abs(x)
    return np.array([abs(p.c0) + np.abs(p.c1) @ ax + ax @ np.abs(p.c2) @ ax for p in polys])


_FIELD_CASES = dict(
    m=st.sampled_from([3, 8, 15]),
    seed=st.integers(0, 2**32 - 1),
    quadratic=st.booleans(),
    npts=st.integers(1, 12),
)


class TestArrayBackedEvaluation:
    """Batched and pointwise evaluation of the coefficient arrays against a
    loop of independently built ``Poly`` objects."""

    @settings(max_examples=40, deadline=None)
    @given(**_FIELD_CASES)
    def test_vector_field_matches_per_poly_loop(self, m, seed, quadratic, npts):
        rng = np.random.default_rng(seed)
        c0, c1, c2 = _random_stack(rng, (m,), m, quadratic)
        Z = PolyVectorField.from_arrays(c0, c1, c2)
        polys = [
            Poly(m, c0[k], c1[k], None if c2 is None else c2[k]) for k in range(m)
        ]
        X = rng.normal(size=(npts, m))
        want = np.array([[p(x) for p in polys] for x in X])
        bound = 1e-13 * np.array([_abs_values(polys, x) for x in X]) + 1e-300
        assert np.all(np.abs(Z(X) - want) <= bound)
        for x, w, b in zip(X, want, bound):
            assert np.all(np.abs(Z(x) - w) <= b)
        for view, p in zip(Z.components, polys):
            assert view.allclose(p, 0.0)
        assert Z.is_affine == (c2 is None or not c2.any())

    @settings(max_examples=25, deadline=None)
    @given(**_FIELD_CASES)
    def test_tensor_field_matches_per_poly_loop(self, m, seed, quadratic, npts):
        rng = np.random.default_rng(seed)
        c0, c1, c2 = _random_stack(rng, (m, m), m, quadratic)
        T = PolyTensorField.from_arrays(c0, c1, c2)
        polys = [
            Poly(m, c0[j, k], c1[j, k], None if c2 is None else c2[j, k])
            for j in range(m)
            for k in range(m)
        ]
        X = rng.normal(size=(npts, m))
        want = np.array([[p(x) for p in polys] for x in X]).reshape(npts, m, m)
        bound = 1e-13 * np.array([_abs_values(polys, x) for x in X]).reshape(
            npts, m, m
        ) + 1e-300
        assert np.all(np.abs(T(X) - want) <= bound)
        for x, w, b in zip(X, want, bound):
            assert np.all(np.abs(T(x) - w) <= b)
        j, k = rng.integers(m, size=2)
        assert T.component(j, k).allclose(polys[j * m + k], 0.0)

    def test_views_share_the_field_arrays(self, rng):
        Z = PolyVectorField.from_arrays(*_random_stack(rng, (3,), 3, True))
        assert np.shares_memory(Z.components[1].c1, Z.c1)
        T = PolyTensorField.from_arrays(*_random_stack(rng, (3, 3), 3, True))
        assert np.shares_memory(T.component(0, 2).c2, T.c2)

    def test_from_arrays_symmetrizes_like_poly(self, rng):
        c2 = rng.normal(size=(2, 2, 2))
        Z = PolyVectorField.from_arrays(np.zeros(2), np.zeros((2, 2)), c2)
        for k in range(2):
            assert np.array_equal(Z.c2[k], Poly(2, c2=c2[k]).c2)

    def test_bad_point_shapes_raise(self, rng):
        Z = PolyVectorField.from_arrays(*_random_stack(rng, (3,), 3, True))
        T = PolyTensorField.from_arrays(*_random_stack(rng, (3, 3), 3, False))
        for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((2, 2, 3))):
            with pytest.raises(DimensionError):
                Z(bad)
            with pytest.raises(DimensionError):
                T(bad)

    def test_symmetry_validated_on_arrays(self, rng):
        c0, c1, _ = _random_stack(rng, (3, 3), 3, False)
        with pytest.raises(ValueError):
            PolyTensorField.from_arrays(c0, c1, symmetry="antisymmetric")
        anti = PolyTensorField.from_arrays(
            c0 - c0.T, c1 - c1.transpose(1, 0, 2), symmetry="antisymmetric"
        )
        assert anti.component(1, 0).allclose(anti.component(0, 1).scale(-1.0), 0.0)


# ------------------------------------------- operations of the shared base

_PICK = {"poly": (0, 0), "vector": (0,), "tensor": ()}


def _stack_of(kind, c0, c1, c2):
    """A Poly, vector field or tensor field built from the leading slices of
    ``(m, m)``-led coefficient arrays, and the arrays it should hold."""
    i = _PICK[kind]
    want = (c0[i], c1[i], 0.5 * (c2[i] + np.swapaxes(c2[i], -1, -2)))
    if kind == "poly":
        return Poly(c1.shape[-1], c0[i], c1[i], c2[i]), want
    if kind == "vector":
        return PolyVectorField.from_arrays(c0[i], c1[i], c2[i]), want
    return PolyTensorField.from_arrays(c0[i], c1[i], c2[i]), want


class TestSharedStackOperations:
    """The arithmetic, norms and comparisons that ``Poly``,
    ``PolyVectorField`` and ``PolyTensorField`` share, against array
    arithmetic on the coefficients."""

    @pytest.mark.parametrize("kind", list(_PICK))
    def test_matches_array_arithmetic(self, kind, rng):
        a, A = _stack_of(kind, *_random_stack(rng, (4, 4), 4, True))
        b, B = _stack_of(kind, *_random_stack(rng, (4, 4), 4, True))
        # the magnitude of an entry, so that an entry sits on the cut
        cut = float(np.sort(np.abs(A[1]), axis=None)[-2])
        cases = [
            (a + b, [x + y for x, y in zip(A, B)]),
            (a - b, [x - y for x, y in zip(A, B)]),
            (-a, [-x for x in A]),
            (a.scale(-1.75), [-1.75 * x for x in A]),
            (a.snap(cut), [np.where(np.abs(x) > cut, x, 0.0) for x in A]),
        ]
        for got, want in cases:
            assert type(got) is type(a) and got.m == a.m
            for g, w in zip((got.c0, got.c1, got.c2), want):
                assert np.array_equal(g, w)
        assert a.max_abs() == max(np.abs(x).max() for x in A)
        assert a.max_abs_quadratic() == np.abs(A[2]).max()
        diff = max(np.abs(x - y).max() for x, y in zip(A, B))
        assert a.allclose(b, diff) and not a.allclose(b, 0.999 * diff)
        assert a.allclose(a, 0.0)
        assert not a.is_zero() and a.is_zero(a.max_abs())
        assert a.scale(0.0).is_zero() and (a - a).is_zero()

    @pytest.mark.parametrize("kind", list(_PICK))
    def test_other_kind_or_space_raises(self, kind, rng):
        a, _ = _stack_of(kind, *_random_stack(rng, (3, 3), 3, True))
        small, _ = _stack_of(kind, *_random_stack(rng, (2, 2), 2, True))
        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p.allclose(q)):
            with pytest.raises(DimensionError):
                op(a, small)
            for other in _PICK.keys() - {kind}:
                o, _ = _stack_of(other, *_random_stack(rng, (3, 3), 3, True))
                with pytest.raises(TypeError):
                    op(a, o)

    def test_poly_scalar_arithmetic(self, rng):
        p = _rand_poly(rng, 3)
        x = rng.normal(size=3)
        assert (p + 1.0)(x) == pytest.approx(p(x) + 1.0, rel=1e-14)
        assert (1.0 + p)(x) == pytest.approx(p(x) + 1.0, rel=1e-14)
        assert (p - 2)(x) == pytest.approx(p(x) - 2.0, rel=1e-14)
        assert (1.0 - p)(x) == pytest.approx(1.0 - p(x), rel=1e-14)
        assert (2.0 * p)(x) == pytest.approx(2.0 * p(x), rel=1e-14)

    def test_tensor_symmetry_of_results(self, rng):
        c0, c1, _ = _random_stack(rng, (3, 3), 3, False)
        anti = PolyTensorField.from_arrays(
            c0 - c0.T, c1 - c1.transpose(1, 0, 2), symmetry="antisymmetric"
        )
        sym = PolyTensorField.from_arrays(
            c0 + c0.T, c1 + c1.transpose(1, 0, 2), symmetry="symmetric"
        )
        for T in (anti, sym):
            for out in (-T, T.scale(2.0), T.snap(0.5), T + T, T - T.scale(0.5)):
                assert out.symmetry == T.symmetry
        assert (anti + sym).symmetry == "none"
        assert (sym - anti).symmetry == "none"

    def test_non_finite_coefficients_raise(self):
        with pytest.raises(InvariantViolationError):
            Poly(2, float("nan"))
        with pytest.raises(InvariantViolationError):
            Poly(2, c2=[[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(InvariantViolationError):
            PolyVectorField.from_arrays(np.zeros(2), [[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(InvariantViolationError):
            PolyTensorField.from_arrays(np.full((2, 2), -np.inf), np.zeros((2, 2, 2)))

    def test_list_constructors_match_from_arrays(self, rng):
        c0, c1, c2 = _random_stack(rng, (3, 3), 3, True)
        T = PolyTensorField.from_arrays(c0, c1, c2)
        Z = PolyVectorField.from_arrays(c0[0], c1[0], c2[0])
        assert PolyTensorField(T.components).allclose(T, 0.0)
        assert PolyVectorField(Z.components).allclose(Z, 0.0)
        with pytest.raises(DimensionError):
            PolyVectorField(Z.components[:2])
        with pytest.raises(DimensionError):
            PolyTensorField([row[:2] for row in T.components])


class TestComposeAffine:
    """``_compose_affine`` against evaluating each polynomial at ``G y + g``."""

    def test_matches_pointwise_evaluation(self, rng):
        m = 5
        c0, c1, c2 = _random_stack(rng, (3, 2), m, True)
        c2 = 0.5 * (c2 + np.swapaxes(c2, -1, -2))
        free = [0, 2, 4]
        pinned = rng.normal(size=m)
        pinned[free] = 0.0
        for G, g in (
            (rng.normal(size=(m, m)), rng.normal(size=m)),
            (rng.normal(size=(m, 2)), rng.normal(size=m)),
            (np.eye(m)[:, free], pinned),
        ):
            k = G.shape[1]
            d0, d1, d2 = _compose_affine(c0, c1, c2, G, g)
            assert d0.shape == (3, 2) and d1.shape == (3, 2, k)
            for y in rng.normal(size=(4, k)):
                x = G @ y + g
                for i in np.ndindex(3, 2):
                    p = Poly(m, c0[i], c1[i], c2[i])
                    got = Poly(k, d0[i], d1[i], d2[i])(y)
                    assert abs(got - p(x)) <= 1e-12 * _abs_values([p], x)[0]


def _reference_commutator(Z, W, tol=1e-12):
    """Per-component ``[Z, W]^k = Z(W^k) - W(Z^k)`` from tracked ``Poly``
    products."""
    m = Z.m
    scale = max(1.0, Z.max_abs() * W.max_abs())
    zc, wc = Z.components, W.components
    comps = []
    for k in range(m):
        acc = Poly(m)
        c3 = np.zeros((m, m, m))
        for j in range(m):
            for a, b, sgn in ((zc[j], wc[k].partial(j), 1.0), (wc[j], zc[k].partial(j), -1.0)):
                prod, over3 = tracked_product(a, b)
                acc = acc + prod.scale(sgn)
                c3 += sgn * over3
        if np.abs(c3).max() > tol * scale:
            raise DegreeOverflowError(f"cubic residue in component {k}")
        comps.append(acc)
    return PolyVectorField(comps)


class TestArrayCommutator:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_per_poly_reference(self, n, rng):
        basis = build_basis(n)
        m = basis.m
        a, b = (basis.observable(rng.normal(size=basis.dim)) for _ in range(2))
        affine = [
            PolyVectorField.from_affine(rng.normal(size=(m, m)), rng.normal(size=m)),
            hamiltonian_vf(basis, a),
        ]
        quadratic = [
            gradient_vf(basis, a),
            PolyVectorField.from_arrays(*_random_stack(rng, (m,), m, True)),
        ]
        pairs = [(Z, W) for Z in affine for W in affine + quadratic]
        pairs += [(Z, W) for Z in quadratic for W in affine]
        # quadratic pairs whose cubic terms cancel
        pairs += [(gradient_vf(basis, a), gradient_vf(basis, b))]
        pairs += [(Y, Y.scale(-2.0)) for Y in quadratic]
        for Z, W in pairs:
            got = Z.commutator(W)
            want = _reference_commutator(Z, W)
            assert got.allclose(want, 1e-12 * max(1.0, want.max_abs()))

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_cancelling_quadratic_pair_raises(self, n, rng):
        m = build_basis(n).m
        Z, W = (
            PolyVectorField.from_arrays(*_random_stack(rng, (m,), m, True))
            for _ in range(2)
        )
        with pytest.raises(DegreeOverflowError):
            _reference_commutator(Z, W)
        with pytest.raises(DegreeOverflowError):
            Z.commutator(W)
