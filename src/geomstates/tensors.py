"""Contravariant tensor fields and algebraic vector fields on the state body.

With expectation functions ``e_a(x) = a^0 + a^j x_j`` as coordinates, the
Lie and Jordan products of observables induce two contravariant tensor
fields on the traceless coordinate space:

* the Poisson (antisymmetric) field ``L^{jk}(x) = sum_l c_jk^l x_l``  with
  ``{e_a, e_b} = L(de_a, de_b) = e_[[a,b]]``,
* the symmetric field
  ``R^{jk}(x) = d_jk^0 + sum_{l>=1} d_jk^l x_l - x_j x_k``  with
  ``R(de_a, de_b) = e_{a(.)b} - e_a e_b`` (a covariance).

Contracting with a fixed observable gives vector fields: the Hamiltonian
field ``X_a^k = a^j L^{jk}`` (affine, purity-preserving) and the gradient
field ``Y_a^k = a^j R^{jk}`` (quadratic).  On the interior of the state
body the two are intertwined by a complex structure J recovered here
point-wise by least squares.
"""

from __future__ import annotations

import numpy as np

from .algebra import Observable
from .errors import (
    BasisMismatchError,
    DegeneratePointError,
    DimensionError,
    _check_memory,
)
from .poly import Poly, PolyTensorField, PolyVectorField

__all__ = [
    "poisson_field",
    "symmetric_field",
    "expectation_poly",
    "poisson_bracket",
    "jordan_bracket",
    "hamiltonian_vf",
    "gradient_vf",
    "complex_structure_at",
    "field_csv_rows",
]


def _traceless_of(basis, a):
    """Traceless coefficient vector of an observable (or raw vector)."""
    if isinstance(a, Observable):
        if a.basis != basis:
            raise BasisMismatchError("observable built over a different basis")
        return a.coeffs.copy()
    v = np.asarray(a, dtype=float)
    if v.shape == (basis.dim,):
        return v.copy()
    if v.shape == (basis.m,):
        return np.concatenate(([0.0], v))
    raise DimensionError(
        f"expected an Observable or a vector of length {basis.dim} or {basis.m}"
    )


def poisson_field(basis):
    """Antisymmetric field ``L^{jk}(x) = sum_l c_jk^l x_l`` (j, k >= 1).

    Components are linear; the constant part vanishes because the Lie
    product of traceless observables is traceless.
    """
    c = basis.lie_constants
    return PolyTensorField.from_arrays(
        c[1:, 1:, 0], c[1:, 1:, 1:], symmetry="antisymmetric"
    )


def symmetric_field(basis):
    """Symmetric field ``R^{jk}(x) = d_jk^0 + sum_l d_jk^l x_l - x_j x_k``."""
    m = basis.m
    d = basis.jordan_constants
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    c2 = np.zeros((m, m, m, m))
    c2[j, k, j, k] -= 0.5
    c2[j, k, k, j] -= 0.5
    return PolyTensorField.from_arrays(
        d[1:, 1:, 0], d[1:, 1:, 1:], c2, symmetry="symmetric"
    )


def expectation_poly(basis, a):
    """The expectation of ``a`` as an affine polynomial ``a^0 + a^j x_j``."""
    v = _traceless_of(basis, a)
    return Poly(basis.m, c0=v[0], c1=v[1:])


def poisson_bracket(basis, a, b, field=None):
    """``{e_a, e_b}(x) = sum c_jk^l a^j b^k x_l``, a linear polynomial.

    Equals the expectation of ``[[a, b]]``: the correspondence
    ``a -> e_a`` is a Lie algebra morphism onto (affine) functions.
    """
    T = field if field is not None else poisson_field(basis)
    u = _traceless_of(basis, a)
    v = _traceless_of(basis, b)
    return T.contract(u[1:], v[1:])


def jordan_bracket(basis, a, b, field=None):
    """``(e_a, e_b)(x) = R(de_a, de_b) + e_a e_b``, of degree <= 2.

    Equals the expectation of ``a (.) b``; without the ``e_a e_b`` term it
    is the symmetrized covariance of ``a`` and ``b`` in the state ``x``.
    """
    R = field if field is not None else symmetric_field(basis)
    u = _traceless_of(basis, a)
    v = _traceless_of(basis, b)
    ea = Poly(basis.m, c0=u[0], c1=u[1:])
    eb = Poly(basis.m, c0=v[0], c1=v[1:])
    return R.contract(u[1:], v[1:]) + ea.multiply(eb)


def hamiltonian_vf(basis, a):
    """Linear field ``X_a^k = sum_j a^j L^{jk}``.

    Acting on expectation functions: ``X_a(e_b) = {e_a, e_b} = e_[[a,b]]``.
    The flow preserves purity (x . X_a(x) = 0 identically, by antisymmetry)
    and every rank stratum.
    """
    v = _traceless_of(basis, a)
    c = basis.lie_constants
    # A[k, l] = sum_j a^j c[j, k, l]  so that X^k = A[k, :] . x
    A = np.einsum("j,jkl->kl", v[1:], c[1:, 1:, 1:])
    return PolyVectorField.from_arrays(np.zeros(basis.m), A)


def gradient_vf(basis, a):
    """Quadratic field ``Y_a^k = sum_j a^j R^{jk}``.

    Acting on expectation functions: ``Y_a(e_b) = e_{a (.) b} - e_a e_b``,
    independent of the scalar part of ``a`` on the traceless slots (the
    scalar contributions cancel between the d-term and the rank-one term).
    """
    v = _traceless_of(basis, a)
    d = basis.jordan_constants
    const = np.einsum("j,jk->k", v[1:], d[1:, 1:, 0])
    lin = np.einsum("j,jkl->kl", v[1:], d[1:, 1:, 1:])
    return PolyVectorField.from_arrays(const, lin, _rank_one_c2(0.5 * v[1:]))


def _rank_one_c2(w):
    """Quadratic parts ``c2[k]`` of the components ``-2 x_k (w . x)``,
    built as ``c2[k, k, :] -= w`` then ``c2[k, :, k] -= w``."""
    m = w.shape[0]
    idx = np.arange(m)
    c2 = np.zeros((m, m, m))
    c2[idx, idx, :] -= w
    c2[idx, :, idx] -= w
    return c2


def complex_structure_at(state):
    """Point-wise complex structure J intertwining gradient and Hamiltonian
    directions, with its defect.

    At a point x let ``A = L(x)^T`` (columns: Hamiltonian fields of the
    basis observables) and ``B = R(x)``.  The raw least-squares solution
    ``J0 = B A^+`` satisfies ``J0 = J B'`` only approximately off the
    interior; returned is the orthogonal (partial-isometry) factor of the
    polar decomposition of ``J0`` restricted to its numerical image, which
    is skew and squares to minus the identity there.  The second return
    value is the residual ``|J^3 + J|_F`` measuring how far the point is
    from admitting an exact complex structure on that image.

    Raises :class:`DegeneratePointError` at the maximally mixed point,
    where no Hamiltonian directions exist.
    """
    basis = state.basis
    x = state.x
    L = poisson_field(basis)(x)
    R = symmetric_field(basis)(x)
    normA = float(np.abs(L).max())
    if normA <= 1e-14:
        raise DegeneratePointError(
            "no Hamiltonian directions at the maximally mixed state"
        )
    A = L.T
    J0 = R @ np.linalg.pinv(A, rcond=1e-12)
    U, s, Vt = np.linalg.svd(J0)
    r = int(np.count_nonzero(s > 1e-10 * max(s[0], 1e-300)))
    J = U[:, :r] @ Vt[:r, :]
    residual = float(np.linalg.norm(J @ J @ J + J))
    return J, residual


def field_csv_rows(vf, points, names=None):
    """CSV lines of a vector field sampled at points: the header
    ``x_1..x_m, v_1..v_m``, then one line per point with every number
    written ``%.17g`` (see :func:`_csv_lines`)."""
    m = vf.m
    if names is None:
        names = [f"x_{j + 1}" for j in range(m)] + [f"v_{j + 1}" for j in range(m)]
    X = np.asarray(points, dtype=float).reshape(-1, m)
    return _csv_lines(names, np.concatenate((X, vf(X)), axis=1))


def _csv_lines(names, values):
    """CSV lines: ``names``, then one line per row of the 2-D float array
    ``values``.  Numbers are written ``%.17g`` (17 significant digits, an
    exact round trip), the text of ``"{:.17g}".format``; one template
    covers the whole array.  Raises :class:`InvariantViolationError` before
    formatting when the text would not fit in memory."""
    rows, k = values.shape
    # ~64 bytes per number and per line, measured over the Python floats,
    # the template, the text, its lines and the writer's join and encoding
    _check_memory(64 * rows * (k + 1), f"the CSV text of {rows} rows")
    if not rows:
        return [",".join(names)]
    template = "\n".join([",".join(["%.17g"] * k)] * rows)
    return [",".join(names)] + (template % tuple(values.ravel().tolist())).split("\n")
