"""Density states of an n-level system in Bloch-type coordinates.

A density matrix is parametrized as

    ``rho = I/n + (1/2) sum_j x_j sigma_j``,      ``x_j = tr(rho sigma_j)``,

so the state body is a compact convex subset of R^{n^2 - 1}.  Expectation
values are affine in ``x``:  ``<a> = a^0 + sum_j a^j x_j``.  The purity is
``tr(rho^2) = 1/n + |x|^2 / 2``, and states are stratified by matrix rank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import Observable, ObservableBasis, build_basis, jordan_product
from .errors import BasisMismatchError, DimensionError, NotAStateError

__all__ = [
    "StateCoordinates",
    "StratumTag",
    "state_from_matrix",
    "state_to_matrix",
    "expectation",
    "purity",
    "stratum",
    "variance",
    "covariance",
    "max_bloch_radius",
    "state_to_json",
    "state_from_json",
]


@dataclass
class StateCoordinates:
    """Coordinate vector of a density state over an observable basis."""

    basis: ObservableBasis
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.shape != (self.basis.m,):
            raise DimensionError(
                f"coordinates must have length {self.basis.m}, got {self.x.shape}"
            )

    @property
    def n(self):
        return self.basis.n

    def matrix(self):
        return state_to_matrix(self)

    def __repr__(self):
        return f"StateCoordinates(n={self.n}, x={np.round(self.x, 6)})"


@dataclass(frozen=True)
class StratumTag:
    """Rank stratum of a state (rank n = interior, rank 1 = pure)."""

    rank: int

    def __str__(self):
        return f"rank-{self.rank}"


def _check_state_basis(state, other_basis):
    if state.basis != other_basis:
        raise BasisMismatchError(
            f"state over n={state.basis.n} used with basis n={other_basis.n}"
        )


def state_from_matrix(rho, basis=None, trace_tol=1e-10, psd_tol=1e-8):
    """Coordinates of a density matrix; validates the state conditions.

    Raises :class:`NotAStateError` if ``rho`` is not Hermitian, has trace
    different from one beyond ``trace_tol``, or has an eigenvalue below
    ``-psd_tol``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError("a density matrix must be square")
    n = rho.shape[0]
    if basis is None:
        basis = build_basis(n)
    elif basis.n != n:
        raise BasisMismatchError(f"matrix is {n}x{n} but basis has n={basis.n}")
    if float(np.abs(rho - rho.conj().T).max()) > 1e-10 * max(
        1.0, float(np.abs(rho).max())
    ):
        raise NotAStateError("density matrix must be Hermitian")
    if abs(rho.trace().real - 1.0) > trace_tol or abs(rho.trace().imag) > trace_tol:
        raise NotAStateError(f"density matrix must have unit trace, got {rho.trace()}")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -psd_tol:
        raise NotAStateError(
            f"density matrix must be positive semidefinite; "
            f"smallest eigenvalue {evals.min():.3e}"
        )
    x = np.empty(basis.m)
    for j in range(1, basis.dim):
        x[j - 1] = np.einsum("ab,ba->", rho, basis.elements[j]).real
    return StateCoordinates(basis, x)


def _density_matrices(basis, X):
    """Stack of the density matrices ``I/n + (1/2) sum_j x_j sigma_j`` of
    the rows ``x`` of an ``(N, m)`` array, summed term by term in ``j``
    order."""
    X = np.asarray(X, dtype=float)
    rho = np.broadcast_to(np.eye(basis.n, dtype=complex) / basis.n,
                          (X.shape[0], basis.n, basis.n))
    for j in range(1, basis.dim):
        rho = rho + 0.5 * X[:, j - 1, None, None] * basis.elements[j]
    return rho


def _min_eigenvalues(basis, X):
    """Smallest eigenvalue of the density matrix of each row of ``X``.

    Positivity is tested in batches: one ``eigvalsh`` call covers the whole
    stack, with the same matrices and eigenvalues as one call per row.
    """
    return np.linalg.eigvalsh(_density_matrices(basis, X)).min(axis=1)


def state_to_matrix(state):
    """Density matrix ``I/n + (1/2) sum_j x_j sigma_j``."""
    return _density_matrices(state.basis, state.x[None])[0]


def expectation(a, state):
    """Expectation value ``<a> = a^0 + sum_j a^j x_j`` (affine in x)."""
    if not isinstance(a, Observable):
        raise TypeError("expectation takes an Observable")
    _check_state_basis(state, a.basis)
    return float(a.coeffs[0] + a.coeffs[1:] @ state.x)


def purity(state):
    """``tr(rho^2) = 1/n + |x|^2 / 2``."""
    return 1.0 / state.basis.n + 0.5 * float(state.x @ state.x)


def max_bloch_radius(n):
    """Largest coordinate norm on the state body: ``sqrt(2 (n-1)/n)``,
    attained exactly on pure states."""
    return float(np.sqrt(2.0 * (n - 1) / n))


def stratum(state, tol=1e-8):
    """Rank stratum of the state (eigenvalues above ``tol`` count)."""
    evals = np.linalg.eigvalsh(state.matrix())
    return StratumTag(rank=int(np.count_nonzero(evals > tol)))


def variance(a, state):
    """``<a (.) a> - <a>^2`` (always >= 0 on states)."""
    e2 = expectation(jordan_product(a, a), state)
    e1 = expectation(a, state)
    return e2 - e1 * e1


def covariance(a, b, state):
    """Symmetrized covariance ``<a (.) b> - <a><b>``."""
    _same = (a.basis, b.basis)
    if _same[0] != _same[1]:
        raise BasisMismatchError("observables use different bases")
    return expectation(jordan_product(a, b), state) - expectation(
        a, state
    ) * expectation(b, state)


# ------------------------------------------------------------------ JSON i/o


def state_to_json(state):
    return json.dumps({"n": state.basis.n, "x": state.x.tolist()})


def state_from_json(text):
    data = json.loads(text)
    if "n" not in data or "x" not in data:
        raise NotAStateError("state JSON must contain fields 'n' and 'x'")
    basis = build_basis(int(data["n"]))
    x = np.asarray(data["x"], dtype=float)
    state = StateCoordinates(basis, x)
    # validate through the matrix route so bad coordinates are rejected
    state_from_matrix(state.matrix(), basis)
    return state
