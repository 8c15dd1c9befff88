import itertools

import numpy as np
import pytest

from geomstates import Poly, build_basis


@pytest.fixture(scope="session")
def basis2():
    return build_basis(2)


@pytest.fixture(scope="session")
def basis3():
    return build_basis(3)


@pytest.fixture(scope="session")
def basis4():
    return build_basis(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n, traceless=False):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M = 0.5 * (M + M.conj().T)
    if traceless:
        M = M - (np.trace(M) / n) * np.eye(n)
    return M


def random_state_coords(rng, basis, scale=0.6):
    """Random interior state coordinates: mix a random pure state with I/n."""
    n = basis.n
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = v / np.linalg.norm(v)
    rho = scale * np.outer(v, v.conj()) + (1.0 - scale) * np.eye(n) / n
    from geomstates import state_from_matrix

    return state_from_matrix(rho, basis)


def per_point_density_matrix(basis, x):
    """Reference: ``I/n + (1/2) sum_j x_j sigma_j`` built one term at a time."""
    rho = np.eye(basis.n, dtype=complex) / basis.n
    for j in range(1, basis.dim):
        rho = rho + 0.5 * x[j - 1] * basis.elements[j]
    return rho


def tracked_product(a, b):
    """Reference product of two ``Poly``, at least one of them affine:
    the degree-<=2 part and the fully symmetrized cubic coefficients."""
    assert not (a.c2.any() and b.c2.any()), "quartic terms are not tracked"
    c2 = a.c0 * b.c2 + b.c0 * a.c2 + 0.5 * (np.outer(a.c1, b.c1) + np.outer(b.c1, a.c1))
    c3 = np.einsum("i,jk->ijk", a.c1, b.c2) + np.einsum("i,jk->ijk", b.c1, a.c2)
    c3 = sum(c3.transpose(p) for p in itertools.permutations(range(3))) / 6.0
    return Poly(a.m, a.c0 * b.c0, a.c0 * b.c1 + b.c0 * a.c1, c2), c3


def dense_superoperator(Z, symmetry):
    """Dense matrix ``M`` of the Lie derivative along an affine ``Z`` on the
    flattened coefficients of one symmetry sector, so that
    ``flat(T_t) = expm(-t M) flat(T_0)``; the oracle of the transport and
    spectral tests (``N x N``, with ``N`` = 1,260 and 1,620 at n = 3).

    Column ``b`` is the flattened Lie derivative of the tensor whose flat
    coefficient vector is ``e_b``; all columns come from one
    ``lie_derivative`` call on the stack of those tensors, written directly:
    one scatter per coefficient kind, then the mirror."""
    from geomstates import PolyTensorField, flatten_field, lie_derivative
    from geomstates.contraction import _pair_index, coeff_size

    m = Z.m
    pj, pk = _pair_index(m, symmetry)
    q = coeff_size(m)
    B = pj.size * q
    base = np.arange(pj.size) * q  # flat index of each pair's c0
    j, k = pj[:, None], pk[:, None]
    ls = np.arange(m)
    iu = np.triu_indices(m)
    tri = base[:, None] + 1 + m + np.arange(iu[0].size)
    c0 = np.zeros((B, m, m))
    c1 = np.zeros((B, m, m, m))
    c2 = np.zeros((B, m, m, m, m))
    c0[base, pj, pk] = 1.0
    c1[base[:, None] + 1 + ls, j, k, ls] = 1.0
    c2[tri, j, k, iu[0], iu[1]] = 1.0
    c2[tri, j, k, iu[1], iu[0]] = 1.0
    stack = PolyTensorField._mirrored(c0, c1, c2, symmetry)
    return np.ascontiguousarray(flatten_field(lie_derivative(Z, stack)).T)
