"""Density states of an n-level system in Bloch-type coordinates.

A density matrix is parametrized as

    ``rho = I/n + (1/2) sum_j x_j sigma_j``,      ``x_j = tr(rho sigma_j)``,

so the state body is a compact convex subset of R^{n^2 - 1}.  Expectation
values are affine in ``x``:  ``<a> = a^0 + sum_j a^j x_j``.  The purity is
``tr(rho^2) = 1/n + |x|^2 / 2``, and states are stratified by matrix rank.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

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

TRACE_TOL = 1e-10
PSD_TOL = 1e-8
RANK_TOL = 1e-8
# half-width of the band around a positivity cut left to eigvalsh, relative
# to the matrix scale (see _in_body)
CUT_MARGIN = 1e-13


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


def state_from_matrix(rho, basis=None):
    """Coordinates of a density matrix; validates the state conditions.

    Raises :class:`NotAStateError` if ``rho`` is not Hermitian, has trace
    different from one beyond ``TRACE_TOL``, or has an eigenvalue below
    ``-PSD_TOL``.
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
    if abs(rho.trace().real - 1.0) > TRACE_TOL or abs(rho.trace().imag) > TRACE_TOL:
        raise NotAStateError(f"density matrix must have unit trace, got {rho.trace()}")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -PSD_TOL:
        raise NotAStateError(
            f"density matrix must be positive semidefinite; "
            f"smallest eigenvalue {evals.min():.3e}"
        )
    return StateCoordinates(basis, 2.0 * basis.expand(rho)[1:].real)


def _density_matrices(basis, X):
    """Stack of the density matrices ``I/n + (1/2) sum_j x_j sigma_j`` of
    the rows ``x`` of an ``(N, m)`` array, summed term by term in ``j``
    order over the columns that are nonzero in some row.

    The matrices are bitwise those of the full sum: ``I/n`` holds +0 in
    every zero entry, a skipped term adds only ±0, and ``+0 + (-0) = +0``.
    """
    X = np.asarray(X, dtype=float)
    rho = np.repeat(np.eye(basis.n, dtype=complex)[None] / basis.n, X.shape[0], axis=0)
    for j in np.flatnonzero(X.any(axis=0)):
        rho += 0.5 * X[:, j, None, None] * basis.elements[j + 1]
    return rho


def _min_eigenvalues(basis, X):
    """Smallest eigenvalue of the density matrix of each row of ``X``.

    Positivity is tested in batches: one ``eigvalsh`` call covers the whole
    stack, with the same matrices and eigenvalues as one call per row.
    """
    return np.linalg.eigvalsh(_density_matrices(basis, X)).min(axis=1)


@lru_cache(maxsize=16)
def _bound_rows(basis, cols):
    """Rows that give, from the ``cols`` coordinates of a state, the diagonal
    of ``(1/2) sum_j x_j sigma_j`` and the real and imaginary parts of its
    entries above the diagonal, pair by pair in ``triu_indices`` order;
    then the 0/1 matrix that sums the pairs into each level."""
    n = basis.n
    i, j = np.triu_indices(n, 1)
    k = np.arange(n)
    E = 0.5 * basis._stack[np.asarray(cols) + 1]
    upper = E[:, i, j].T
    touches = (k[:, None] == i) | (k[:, None] == j)
    return E[:, k, k].real.T.copy(), upper.real.copy(), upper.imag.copy(), 1.0 * touches


def _in_body(basis, X, slack, cols=None):
    """Whether the density matrix of each row of an ``(N, m)`` array is a
    state up to ``slack``: ``_min_eigenvalues(basis, X) >= -slack``, row by
    row, with the same decision; a row that is not finite is not in the
    body (``eigvalsh`` returns NaN or fails to converge on it).

    Columns outside ``cols`` (default: all) must be zero.  Two bounds on the
    smallest eigenvalue decide most rows: Gershgorin's discs bound it from
    below by ``min_i (rho_ii - sum_{j != i} |rho_ij|)``, and by Cauchy
    interlacing it is at most the smallest eigenvalue of each 2x2
    principal block, in closed form (at n = 2 that block is the matrix, so
    it bounds from both sides).  A row goes to ``eigvalsh`` only when its
    bounds leave the cut within ``CUT_MARGIN`` times the matrix scale; the
    rounding of the bounds and of ``eigvalsh`` is of order ``(m + n) eps``
    of that scale, 6e-15 at n = 5.
    """
    X = np.asarray(X, dtype=float)
    n = basis.n
    cols = tuple(range(basis.m)) if cols is None else tuple(int(c) for c in cols)
    diag, re, im, touches = _bound_rows(basis, cols)
    Xc = X[:, cols].T  # one column per row of X, so each step is a whole vector
    d = 1.0 / n + diag @ Xc
    a2 = re @ Xc
    a2 *= a2
    a2 += (im @ Xc) ** 2
    a = np.sqrt(a2)
    radii = touches @ a
    i, j = np.triu_indices(n, 1)
    # 2 lambda_min of [[d_i, z], [conj z, d_j]] is d_i + d_j - sqrt((d_i - d_j)^2 + 4 |z|^2)
    upper = d[i] + d[j] - np.sqrt((d[i] - d[j]) ** 2 + 4.0 * a2)
    upper = 0.5 * upper.min(axis=0)
    lower = upper if n == 2 else (d - radii).min(axis=0)
    # Gershgorin bounds the spectral radius too; it is finite on the rows
    # that are
    margin = CUT_MARGIN * np.maximum(1.0, (np.abs(d) + radii).max(axis=0))
    inside = lower >= margin - slack
    near = np.flatnonzero(~inside & ~(upper < -slack - margin) & np.isfinite(margin))
    if near.size:
        inside[near] = _min_eigenvalues(basis, X[near]) >= -slack
    return inside


class _ScrambledHalton:
    """Owen-scrambled Halton points in ``[0, 1)^d`` (A. B. Owen, "A
    randomized Halton algorithm in R", arXiv:1706.02808), bit-equal to
    ``scipy.stats.qmc.Halton(d=d, scramble=True, seed=seed)``.

    Coordinate ``i`` is a van der Corput sequence in the ``i``-th prime
    ``b`` whose digit ``j`` goes through its own permutation of
    ``range(b)``: ``ceil(54 / log2 b) - 1`` of them, drawn from
    ``default_rng(seed)`` base by base as scipy draws them
    (``rng.permuted`` makes the draws of one ``rng.shuffle`` per row).
    Row ``j`` of the table holds each base's permutation times its weight
    ``b^-(j+1)``, built by repeated division as in scipy, and zeros past
    that base's last permutation.  A point adds one row after the other in
    digit order, so it is rounded as in scipy's loop; a zero adds nothing
    to a sum that is never negative.  Consecutive calls continue the
    sequence.
    """

    def __init__(self, d, seed):
        rng = np.random.default_rng(seed)
        primes = []
        k = 2
        while len(primes) < d:
            if all(k % p for p in primes):
                primes.append(k)
            k += 1
        self._bases = np.array(primes, dtype=np.int64)
        self._offsets = np.cumsum([0] + primes[:-1], dtype=np.int64)
        self._table = np.zeros((53, sum(primes)))  # 53 permutations for b = 2
        for b, o in zip(primes, self._offsets):
            count = math.ceil(54 / math.log2(b)) - 1
            perms = rng.permuted(np.repeat(np.arange(b)[None], count, axis=0), axis=1)
            weights = np.empty(count)
            w = 1.0 / b
            for j in range(count):
                weights[j] = w
                w /= b
            self._table[:count, o : o + b] = perms * weights[:, None]
        self._start = 0

    def random(self, n):
        quot = np.arange(self._start, self._start + n)
        self._start += n
        # every index is below 2^J, so every digit from row J on is 0
        J = (self._start - 1).bit_length() if n else 0
        bases, offsets = self._bases[:, None], self._offsets[:, None]
        acc = np.zeros((bases.size, n))  # one row per coordinate
        for row in self._table[:J]:
            quot, digit = np.divmod(quot, bases)
            acc += row.take(offsets + digit)
        for row in self._table[J:, self._offsets, None]:
            acc += row
        return np.ascontiguousarray(acc.T)


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


def stratum(state):
    """Rank stratum of the state (eigenvalues above ``RANK_TOL`` count)."""
    evals = np.linalg.eigvalsh(state.matrix())
    return StratumTag(rank=int(np.count_nonzero(evals > RANK_TOL)))


def variance(a, state):
    """``<a (.) a> - <a>^2`` (always >= 0 on states)."""
    e2 = expectation(jordan_product(a, a), state)
    e1 = expectation(a, state)
    return e2 - e1 * e1


def covariance(a, b, state):
    """Symmetrized covariance ``<a (.) b> - <a><b>``."""
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
