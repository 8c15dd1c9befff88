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
