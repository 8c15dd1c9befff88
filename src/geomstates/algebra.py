"""Lie-Jordan algebra of Hermitian observables of an n-level system.

The real vector space of Hermitian ``n x n`` matrices carries two bilinear
products:

* the Lie product  ``[[a, b]] = -(i/2) (ab - ba)``        (antisymmetric)
* the Jordan product  ``a (.) b = (ab + ba) / 2``          (symmetric)

Together they satisfy the Jacobi identity, the Jordan identity, the Leibniz
compatibility rule, and the associator identity

    ``a (.) (b (.) c) - (a (.) b) (.) c = [[a, [[b, c]] ]] - [[ [[a, b]], c]]``

which encodes that both products come from one associative matrix product,
``ab = a (.) b + i [[a, b]]``.

Observables are expanded over a fixed orthogonal Hermitian basis
``sigma_0 = I, sigma_1, ..., sigma_{n^2-1}`` with traceless ``sigma_j`` and
``tr(sigma_j sigma_k) = 2 delta_jk``; for n = 2 these are the Pauli matrices
and for n = 3 the standard Gell-Mann matrices.  The products are then
encoded by real structure-constant arrays ``c`` and ``d`` over the full
basis (index 0 included).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    BasisMismatchError,
    DimensionError,
    NonHermitianError,
)

__all__ = [
    "ObservableBasis",
    "Observable",
    "AxiomReport",
    "build_basis",
    "lie_product",
    "jordan_product",
    "associative_product",
    "lie_product_coeffs",
    "jordan_product_coeffs",
    "axiom_residuals",
    "verify_lie_jordan_axioms",
]


# --------------------------------------------------------------------- basis


def _traceless_basis(n):
    """Orthogonal Hermitian traceless matrices with tr(s_j s_k) = 2 delta_jk.

    Ordering for n = 2 and n = 3 follows the conventional Pauli and
    Gell-Mann sequences (symmetric / antisymmetric / diagonal interleaved by
    growing subspace).  For n >= 4 the same three families are used, ordered
    as: all symmetric pair matrices, then all antisymmetric pair matrices
    (each in lexicographic (row, col) order), then the n - 1 diagonal
    matrices.
    """
    sym = {}
    antisym = {}
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = 1.0
            s[k, j] = 1.0
            sym[(j, k)] = s
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = -1.0j
            a[k, j] = 1.0j
            antisym[(j, k)] = a
    diags = []
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for i in range(l):
            d[i, i] = 1.0
        d[l, l] = -l
        diags.append(np.sqrt(2.0 / (l * (l + 1))) * d)

    if n == 2:
        return [sym[(0, 1)], antisym[(0, 1)], diags[0]]
    if n == 3:
        return [
            sym[(0, 1)],
            antisym[(0, 1)],
            diags[0],
            sym[(0, 2)],
            antisym[(0, 2)],
            sym[(1, 2)],
            antisym[(1, 2)],
            diags[1],
        ]
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    return [sym[p] for p in pairs] + [antisym[p] for p in pairs] + diags


class ObservableBasis:
    """Fixed Hermitian basis of the observables of an n-level system.

    Attributes
    ----------
    n : matrix dimension (number of levels)
    dim : real dimension of the observable space, ``n**2``
    m : dimension of the traceless part, ``n**2 - 1``
    elements : list of (n, n) complex arrays, ``elements[0]`` the identity
    lie_constants : real array ``c[mu, nu, lam]`` with
        ``[[s_mu, s_nu]] = sum_lam c[mu, nu, lam] s_lam``
    jordan_constants : real array ``d[mu, nu, lam]`` likewise for ``(.)``
    """

    def __init__(self, n):
        if n < 2:
            raise DimensionError("the number of levels must be at least 2")
        self.n = int(n)
        self.dim = n * n
        self.m = n * n - 1
        self.elements = [np.eye(n, dtype=complex)] + _traceless_basis(n)
        self._stack = E = np.stack(self.elements)

        lie = np.einsum("iab,jbc->ijac", E, E)
        lie = -0.5j * (lie - lie.transpose(1, 0, 2, 3))
        jor = np.einsum("iab,jbc->ijac", E, E)
        jor = 0.5 * (jor + jor.transpose(1, 0, 2, 3))
        self.lie_constants = self._coeff_table(lie)
        self.jordan_constants = self._coeff_table(jor)

    def expand(self, matrices):
        """Complex expansion coefficients ``(..., dim)`` of a stack
        ``(..., n, n)`` of matrices: ``tr(M)/n``, then ``tr(M s_k)/2``.
        Hermitian matrices have real coefficients."""
        M = np.asarray(matrices, dtype=complex)
        out = 0.5 * np.einsum("...ab,kba->...k", M, self._stack)
        out[..., 0] = np.einsum("...aa->...", M) / self.n
        return out

    def _coeff_table(self, prods):
        """Expand a (dim, dim, n, n) array of products over the basis."""
        tab = self.expand(prods)
        imag = float(np.abs(tab.imag).max())
        if imag > 1e-12:
            raise NonHermitianError(
                f"structure constants acquired imaginary part {imag:.3e}"
            )
        return np.ascontiguousarray(tab.real)

    # ------------------------------------------------------------ conversion
    def coeffs_of(self, matrix, tol=1e-10):
        """Real expansion coefficients of a Hermitian matrix."""
        A = np.asarray(matrix, dtype=complex)
        if A.shape != (self.n, self.n):
            raise DimensionError(
                f"matrix must be ({self.n},{self.n}), got {A.shape}"
            )
        scale = max(1.0, float(np.abs(A).max()))
        if float(np.abs(A - A.conj().T).max()) > tol * scale:
            raise NonHermitianError("matrix is not Hermitian within tolerance")
        return np.ascontiguousarray(self.expand(A).real)

    def matrix_of(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise DimensionError(
                f"coefficients must have length {self.dim}, got {coeffs.shape}"
            )
        return np.einsum("i,iab->ab", coeffs, self._stack)

    def observable(self, coeffs):
        return Observable(self, np.asarray(coeffs, dtype=float))

    def from_matrix(self, matrix, tol=1e-10):
        return Observable(self, self.coeffs_of(matrix, tol))

    def traceless_observable(self, traceless_coeffs):
        """Observable with vanishing identity component."""
        v = np.asarray(traceless_coeffs, dtype=float)
        if v.shape != (self.m,):
            raise DimensionError(
                f"traceless coefficients must have length {self.m}"
            )
        return Observable(self, np.concatenate(([0.0], v)))

    def __repr__(self):
        return f"ObservableBasis(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, ObservableBasis) and other.n == self.n

    def __hash__(self):
        return hash(("ObservableBasis", self.n))


@lru_cache(maxsize=None)
def build_basis(n):
    """Canonical observable basis for an ``n``-level system (cached)."""
    return ObservableBasis(n)


def _same_basis(a, b):
    if a.basis != b.basis:
        raise BasisMismatchError(
            f"operands use bases for n={a.basis.n} and n={b.basis.n}"
        )


@dataclass
class Observable:
    """Hermitian observable expanded over an :class:`ObservableBasis`."""

    basis: ObservableBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.dim,):
            raise DimensionError(
                f"coefficients must have length {self.basis.dim}, "
                f"got {self.coeffs.shape}"
            )

    def matrix(self):
        return self.basis.matrix_of(self.coeffs)

    @property
    def scalar_part(self):
        return float(self.coeffs[0])

    @property
    def traceless_coeffs(self):
        return self.coeffs[1:]

    def is_traceless(self):
        return abs(self.coeffs[0]) <= 1e-12

    def __add__(self, other):
        _same_basis(self, other)
        return Observable(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_basis(self, other)
        return Observable(self.basis, self.coeffs - other.coeffs)

    def __neg__(self):
        return Observable(self.basis, -self.coeffs)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return Observable(self.basis, float(s) * self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def allclose(self, other, tol=1e-10):
        _same_basis(self, other)
        return bool(np.abs(self.coeffs - other.coeffs).max() <= tol)

    def __repr__(self):
        return f"Observable(n={self.basis.n}, coeffs={np.round(self.coeffs, 6)})"


# ------------------------------------------------------------------ products


def lie_product(a, b):
    """``[[a, b]] = -(i/2)(ab - ba)`` computed at matrix level."""
    _same_basis(a, b)
    A, B = a.matrix(), b.matrix()
    return a.basis.from_matrix(-0.5j * (A @ B - B @ A), tol=1e-9)


def jordan_product(a, b):
    """``a (.) b = (ab + ba)/2`` computed at matrix level."""
    _same_basis(a, b)
    A, B = a.matrix(), b.matrix()
    return a.basis.from_matrix(0.5 * (A @ B + B @ A), tol=1e-9)


def associative_product(a, b):
    """Matrix product split into Hermitian data: ``ab = re + i * im``.

    Returns the pair ``(re, im) = (a (.) b, [[a, b]])`` of observables.
    """
    return jordan_product(a, b), lie_product(a, b)


def lie_product_coeffs(basis, avec, bvec):
    """Lie product through the structure constants (coefficient route)."""
    return np.einsum("i,j,ijk->k", avec, bvec, basis.lie_constants)


def jordan_product_coeffs(basis, avec, bvec):
    """Jordan product through the structure constants (coefficient route)."""
    return np.einsum("i,j,ijk->k", avec, bvec, basis.jordan_constants)


# -------------------------------------------------------------------- axioms


@dataclass
class AxiomReport:
    """Maximal residuals of the defining identities on the basis.

    All residuals are sup-norms of coefficient arrays over basis triples
    (quadruples for the linearized Jordan identity).  ``star_associativity``
    is the associativity residual of the recombined product
    ``a * b = a (.) b + i [[a, b]]``, which for the static algebra is the
    matrix product.
    """

    jacobi: float
    jordan_identity: float
    leibniz: float
    associator: float
    star_associativity: float

    def max_residual(self):
        return max(astuple(self))

    def passed(self, tol=1e-9):
        return self.max_residual() <= tol


def axiom_residuals(c, d):
    """Exact residuals of the Lie-Jordan axioms of the products whose Lie
    and Jordan structure constants over one basis are ``c`` and ``d``.

    Checks the Jacobi, Leibniz and associator identities of the module
    docstring, associativity of ``a * b = a (.) b + i [[a, b]]``, and the
    Jordan identity ``(a (.) b) (.) (a (.) a) = a (.) (b (.) (a (.) a))``
    through its full linearization in ``a``, equivalent to it over the
    reals.  Each checked form is multilinear, so contracting the arrays
    evaluates it on every tuple of basis elements: a zero residual is exact,
    not a sample.  Time grows as ``dim**5``, memory as ``dim**4``.
    """
    e = partial(np.einsum, optimize=True)
    jacobi = (
        e("jkp,ipq->ijkq", c, c) + e("kip,jpq->ijkq", c, c) + e("ijp,kpq->ijkq", c, c)
    )
    leibniz = (
        e("bcp,apq->abcq", d, c) - e("abp,pcq->abcq", c, d) - e("acp,bpq->abcq", c, d)
    )
    associator = (
        e("bcp,apq->abcq", d, d)
        - e("abp,pcq->abcq", d, d)
        - e("bcp,apq->abcq", c, c)
        + e("abp,pcq->abcq", c, c)
    )
    s = d + 1j * c
    star = e("ijp,pkq->ijkq", s, s) - e("jkp,ipq->ijkq", s, s)
    # (x(.)b)(.)(y(.)z) - x(.)(b(.)(y(.)z)), summed over which of x, y, z
    # stands outside the symmetric pair; one b at a time, since no term
    # moves it, so no array exceeds dim**4 entries
    jordan = 0.0
    for b in range(d.shape[0]):
        lin = e("xp,yzr,prq->xyzq", d[:, b], d, d) - e("yzr,rs,xsq->xyzq", d, d[b], d)
        lin = lin + lin.transpose(1, 0, 2, 3) + lin.transpose(2, 1, 0, 3)
        jordan = max(jordan, float(np.abs(lin).max()))
    return AxiomReport(
        jacobi=float(np.abs(jacobi).max()),
        jordan_identity=jordan,
        leibniz=float(np.abs(leibniz).max()),
        associator=float(np.abs(associator).max()),
        star_associativity=float(np.abs(star).max()),
    )


def verify_lie_jordan_axioms(basis):
    """Exact Lie-Jordan axiom residuals of a basis' structure constants."""
    return axiom_residuals(basis.lie_constants, basis.jordan_constants)
