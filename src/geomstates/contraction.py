"""Propagation of tensor fields along state-space flows and extraction of
the contracted algebra structure they converge to.

A vector field ``Z`` acts on rank-2 contravariant tensor fields through the
Lie derivative

    ``(L_Z T)^{jk} = Z^m d_m T^{jk} - T^{mk} d_m Z^j - T^{jm} d_m Z^k``,

and the flow ``Phi_t`` of ``Z`` pushes tensors forward.  For affine
``Z(x) = A x + b`` the flow map is affine, ``Phi_t(x) = E x + f`` with
``(E, f)`` from one augmented matrix exponential, so the push-forward is a
change of coordinates:

    ``T_t(y) = E T(Phi_{-t}(y)) E^T``.

On the coefficient arrays of a degree-<=2 tensor field this is an affine
substitution of the variables followed by a congruence of the component
indices (:class:`TensorFlowFamily`), which is how finite-time transport is
computed.

The same push-forward is the one-parameter group ``T_t = exp(-t L_Z) T``
on the flattened coefficient space.  The ``t -> infinity`` analysis is
spectral, and ``L_Z`` is never formed: it is the Kronecker sum of the
flow's ``m x m`` matrices, so its spectrum is the set of sums
``mu_p + mu_q - lam_a - lam_b`` (``lam`` the eigenvalues of ``A``, ``mu``
those of the flow ``[[0, 0], [b, A]]`` on ``(1, x)``), and every spectral
projection is formed in ``m``-sized coordinates built from eigenvalue
clusters (:func:`asymptotic_limit`):

* sums with positive real part are decaying directions of the tensor flow,
* the (clustered) zero sums carry the limit tensor, provided the initial
  tensor does not excite a defective (non-semisimple) zero mode,
* sums with negative real part are exponentially divergent tensor modes,
  and purely imaginary ones oscillate.

When both the Poisson and the symmetric tensor fields converge, their
limits define a *contracted* Lie-Jordan product pair on the same function
space, generally non-isomorphic to the original one; when the flow instead
has divergent tensor modes, the algebra can still be read off on the
stationary limit set by restricting the static products to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .algebra import axiom_residuals, build_basis
from .errors import (
    ContractionMismatchError,
    DimensionError,
    InvariantViolationError,
    LimitExistsError,
    _check_memory,
)
from .poly import PolyTensorField, _check_cubic, _compose_affine, _sym2
from .tensors import poisson_field, symmetric_field
from .dynamics import affine_flow_map, stationary_points

__all__ = [
    "lie_derivative",
    "tensor_pairs",
    "flatten_field",
    "unflatten_field",
    "slot_label",
    "TensorFlowFamily",
    "flow_family",
    "flow_tensor",
    "pushforward_affine",
    "DivergentMode",
    "LimitAnalysis",
    "asymptotic_limit",
    "ContractedTables",
    "extract_contracted_products",
    "verify_contracted_axioms",
    "lie_algebra_dimensions",
    "LimitSetAlgebra",
    "limit_set_algebra",
    "matches_level_algebra",
    "ContractionReport",
    "analyze_contraction",
    "format_product_table",
]

# the zero and excitation cuts of asymptotic_limit, and how closely the
# two models of contract_3level_decoherence must agree
ZERO_TOL = 1e-8
PROJ_TOL = 1e-9
MATCH_TOL = 1e-8


# -------------------------------------------------------------- Lie derivative


def lie_derivative(Z, T):
    """Lie derivative of a tensor field, or of a stack of them, along a
    vector field.

    Exact on polynomial coefficients.  For affine ``Z`` the result is again
    of degree <= 2; quadratic ``Z`` is accepted only when all cubic terms
    cancel within :data:`~geomstates.poly.CUBIC_TOL` (relative to the
    coefficient scale), otherwise :class:`DegreeOverflowError` is raised.
    """
    if Z.m != T.m:
        raise DimensionError("field and tensor live on different spaces")
    z0, z1, z2 = Z.c0, Z.c1, Z.c2
    t0, t1, t2 = T.c0, T.c1, T.c2
    # Z^u d_u T^{jk}, with d_u T^{jk} = t1[j,k,u] + 2 t2[j,k,u,l] x_l, less
    # T^{uk} d_u Z^j + T^{ju} d_u Z^k, with d_u Z^j = z1[j,u] + 2 z2[j,u,l] x_l;
    # each quadratic term is symmetrized over (l, p) on its own
    c0 = np.einsum("u,...jku->...jk", z0, t1)
    c0 -= np.einsum("ju,...uk->...jk", z1, t0)
    c0 -= np.einsum("...ju,ku->...jk", t0, z1)
    c1 = np.einsum("ul,...jku->...jkl", z1, t1)
    c1 += 2.0 * np.einsum("u,...jkul->...jkl", z0, t2)
    c1 -= np.einsum("ju,...ukl->...jkl", z1, t1)
    c1 -= np.einsum("...jul,ku->...jkl", t1, z1)
    c2 = np.einsum("ul,...jkup->...jklp", z1, t2)
    c2 = c2 + np.swapaxes(c2, -1, -2)
    c2 -= np.einsum("ju,...uklp->...jklp", z1, t2)
    c2 -= np.einsum("...julp,ku->...jklp", t2, z1)
    if z2.any():
        c1 -= 2.0 * np.einsum("jul,...uk->...jkl", z2, t0)
        c1 -= 2.0 * np.einsum("...ju,kul->...jkl", t0, z2)
        c2 += np.einsum("ulp,...jku->...jklp", z2, t1)
        cross = np.einsum("jul,...ukp->...jklp", z2, t1)
        cross += np.einsum("...jul,kup->...jklp", t1, z2)
        c2 -= cross + np.swapaxes(cross, -1, -2)
        if t2.any():
            _check_cubic(
                2.0 * (
                    np.einsum("ulp,...jkuq->...jklpq", z2, t2)
                    - np.einsum("jul,...ukpq->...jklpq", z2, t2)
                    - np.einsum("...julp,kuq->...jklpq", t2, z2)
                ),
                Z.max_abs() * T.max_abs(),
                "Lie derivative",
            )
    return PolyTensorField._of(c0, c1, c2, T.symmetry)


# ------------------------------------------------------------------ flattening


def tensor_pairs(m, symmetry):
    """Canonical independent component list for a given symmetry type."""
    if symmetry == "antisymmetric":
        return [(j, k) for j in range(m) for k in range(j + 1, m)]
    if symmetry == "symmetric":
        return [(j, k) for j in range(m) for k in range(j, m)]
    if symmetry == "none":
        return [(j, k) for j in range(m) for k in range(m)]
    raise ValueError(f"unknown symmetry {symmetry!r}")


def coeff_size(m):
    """Length of one component's coefficient vector: 1 + m + m(m+1)/2."""
    return 1 + m + m * (m + 1) // 2


@lru_cache(maxsize=None)
def _pair_index(m, symmetry):
    """Row and column indices of :func:`tensor_pairs`, built once per size
    and symmetry as read-only arrays; the symmetric ones are
    ``np.triu_indices(m)``."""
    jk = np.array(tensor_pairs(m, symmetry), dtype=int).reshape(-1, 2).T.copy()
    jk.setflags(write=False)
    return jk[0], jk[1]


def flatten_field(T):
    """Stack the canonical components' coefficient vectors (pair-major):
    ``c0``, then ``c1``, then the upper triangle of ``c2``, row by row.  A
    stack of fields gives one row per field."""
    pj, pk = _pair_index(T.m, T.symmetry)
    iu = _pair_index(T.m, "symmetric")
    flat = np.concatenate(
        [
            T.c0[..., pj, pk, None],
            T.c1[..., pj, pk, :],
            T.c2[..., pj, pk, :, :][..., iu[0], iu[1]],
        ],
        axis=-1,
    )
    return flat.reshape(flat.shape[:-2] + (-1,))


def unflatten_field(vec, m, symmetry):
    """Inverse of :func:`flatten_field`; the components below the diagonal
    are the mirrored canonical ones (negated when antisymmetric).  Rows of
    a 2-D ``vec`` give a stack of fields."""
    pj, pk = _pair_index(m, symmetry)
    q = coeff_size(m)
    vec = np.asarray(vec, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != pj.size * q:
        raise DimensionError(
            f"flat vector must have length {pj.size * q}, got {vec.shape}"
        )
    lead = vec.shape[:-1]
    V = vec.reshape(lead + (pj.size, q))
    c0 = np.zeros(lead + (m, m))
    c1 = np.zeros(lead + (m, m, m))
    c2 = np.zeros(lead + (m, m, m, m))
    c0[..., pj, pk] = V[..., 0]
    c1[..., pj, pk, :] = V[..., 1 : 1 + m]
    # "+ 0.0": a quadratic part rebuilt from its triangle has no negative zeros
    tri = V[..., 1 + m :] + 0.0
    iu = _pair_index(m, "symmetric")
    c2[..., pj[:, None], pk[:, None], iu[0], iu[1]] = tri
    c2[..., pj[:, None], pk[:, None], iu[1], iu[0]] = tri
    return PolyTensorField._mirrored(c0, c1, c2, symmetry)


def slot_label(m, flat_index, symmetry, names=None):
    """Readable name of one flattened coefficient slot,
    e.g. ``"T[1,2]:x8"`` for the x8-coefficient of the (1,2) component."""
    pj, pk = _pair_index(m, symmetry)
    pidx, sidx = divmod(int(flat_index), coeff_size(m))
    j, k = pj[pidx], pk[pidx]
    if names is None:
        names = [f"x{i + 1}" for i in range(m)]
    if sidx == 0:
        coeff = "1"
    elif sidx <= m:
        coeff = names[sidx - 1]
    else:
        iu = _pair_index(m, "symmetric")
        l, p = iu[0][sidx - m - 1], iu[1][sidx - m - 1]
        coeff = f"{names[l]}^2" if l == p else f"{names[l]}*{names[p]}"
    return f"T[{j + 1},{k + 1}]:{coeff}"


# ------------------------------------------------------------ tensor flows


def _affine_parts(Z):
    if not Z.is_affine:
        raise InvariantViolationError(
            "tensor-flow superoperators require an affine vector field"
        )
    return Z.linear_parts()


def _congruence(E, C):
    """``E[j, a] E[k, b] C[a, b, ...]``: the component indices of a stacked
    tensor coefficient array ``C`` mapped by ``E``."""
    return np.tensordot(E, np.tensordot(E, C, axes=(1, 1)), axes=(1, 1))


class TensorFlowFamily:
    """One-parameter family ``T_t = Phi_{t*} T_0`` of tensor fields
    transported along the flow of an affine field.

    :meth:`tensor_at` takes the geometric route: with
    ``Phi_t(x) = E x + f`` from :func:`~geomstates.dynamics.affine_flow_map`,
    ``T_t(y) = E T_0(Phi_{-t}(y)) E^T``, which on coefficient arrays is the
    affine substitution ``x = Phi_{-t}(y)`` in every component followed by
    the congruence by ``E`` of the component indices.
    """

    def __init__(self, field, initial):
        self.field = field
        self.initial = initial
        self.flat0 = flatten_field(initial)
        self._affine = _affine_parts(field)

    def tensor_at(self, t):
        A, b = self._affine
        E, _ = affine_flow_map(A, b, t)
        G, g = affine_flow_map(A, b, -t)
        T = self.initial
        # T o Phi_{-t}: substitute x = G y + g in every component
        c0, c1, c2 = _compose_affine(T.c0, T.c1, T.c2, G, g)
        return PolyTensorField._mirrored(
            _congruence(E, c0),
            _congruence(E, c1),
            _sym2(_congruence(E, c2)),
            T.symmetry,
        )

    def flat_at(self, t):
        return flatten_field(self.tensor_at(t))


def flow_family(Z, T):
    """The flow family of a tensor field along an affine field."""
    return TensorFlowFamily(Z, T)


def flow_tensor(Z, T, t):
    """The push-forward ``Phi_{t*} T`` of a tensor field along the flow of
    an affine field, by the geometric route of :class:`TensorFlowFamily`."""
    return flow_family(Z, T).tensor_at(t)


def pushforward_affine(Z, T, t, y):
    """Point value of the push-forward by the *geometric* route.

    Evaluates ``(Phi_{t*}T)(y) = E T(Phi_{-t}(y)) E^T`` with ``E = exp(tA)``
    the (constant) Jacobian of the affine flow map, one point at a time,
    for any ``Z`` with ``linear_parts()`` and any callable ``T``.  Used to
    cross-check :func:`flow_tensor`.
    """
    A, b = Z.linear_parts()
    E, _ = affine_flow_map(A, b, t)
    Eneg, fneg = affine_flow_map(A, b, -t)
    xprev = Eneg @ np.asarray(y, dtype=float) + fneg
    return E @ T(xprev) @ E.T


# ------------------------------------------------------------------ asymptotics


@dataclass
class DivergentMode:
    """One non-decaying excited tensor-flow mode.

    ``eigenvalue`` is the eigenvalue ``lam`` of ``L_Z``; the mode's
    amplitude in the flow behaves like ``exp(growth_rate * t)`` with
    ``growth_rate = -Re(lam)`` (0 for oscillatory modes and the defective
    zero cluster), times a polynomial in ``t`` when ``polynomial_growth``.
    ``direction`` is a unit vector in the flattened coefficient space and
    ``component`` names its dominant slots.
    """

    eigenvalue: complex
    growth_rate: float
    amplitude: float
    direction: np.ndarray
    component: str
    polynomial_growth: bool = False
    oscillatory: bool = False


@dataclass
class LimitAnalysis:
    """Outcome of the t -> infinity analysis of one tensor-flow family."""

    verdict: str  # "limit" | "divergent" | "oscillatory"
    limit: PolyTensorField | None
    limit_flat: np.ndarray | None
    modes: list
    eigenvalues: np.ndarray
    amplitudes: dict
    defect: float
    etol: float
    symmetry: str


def _clusters(mu, etol):
    """Eigenvalue clusters of ``mu``: the connected components of the graph
    that links two values at most ``etol`` apart.  Returns, per value, the
    label of its cluster (the cluster's first index) and the cluster's
    centre (the mean of its values)."""
    reach = np.abs(mu[:, None] - mu) <= etol
    while True:
        wider = reach @ reach
        if (wider == reach).all():
            return reach.argmax(axis=1), (reach @ mu) / reach.sum(axis=1)
        reach = wider


def _cluster_bases(A, b, schur, etol):
    """Bases of ``A`` and of the homogeneous flow matrix
    ``At = [[0, 0], [b, A]]`` (the flow on ``(1, x)``) made of the invariant
    subspaces of their eigenvalue clusters.

    ``mu = (0, spec A)`` is clustered as one set (:func:`_clusters`), so the
    extra zero of ``At`` joins the zero cluster of ``A``, label 0.  Each
    cluster of ``A`` contributes the leading vectors of a complex Schur form
    of ``A`` sorted to put that cluster first (``scipy.linalg.schur``; the
    unsorted form ``schur`` serves the cluster it already puts first), so
    ``S = V^-1 A V`` is block diagonal.  ``At`` needs no factorisation of
    its own: ``W = [[1, 0], [w, V]]`` with ``w = -V y``, where ``y`` solves
    ``S y = V^-1 b`` off the zero cluster, so that ``b + A w`` lies in the
    zero cluster of ``A``; ``M = W^-1 At W`` is then block diagonal too.
    Returns ``V``, its inverse, ``W``, its inverse, ``S``, ``M`` and the
    cluster centre of every column of ``V`` and of ``W``.
    """
    T, Q = schur
    lam = np.diag(T)
    m = lam.size
    label, centre = _clusters(np.concatenate([[0.0], lam]), etol)
    own = label[1:]
    groups, sizes = np.unique(own, return_counts=True)
    forms = [
        (T, Q, k) if (own[:k] == c).all() else scipy.linalg.schur(
            A, output="complex",
            sort=lambda z, c=c: own[np.argmin(np.abs(lam - z))] == c,
        )
        for c, k in zip(groups, sizes)
    ]
    if [k for _, _, k in forms] != sizes.tolist():
        raise InvariantViolationError(
            "the eigenvalue clusters of the flow could not be separated"
        )
    V = np.hstack([Q[:, :k] for _, Q, k in forms])
    vl = np.repeat(groups, sizes)
    Vi = np.linalg.inv(V)
    S = (vl[:, None] == vl) * (Vi @ A @ V)
    beta = Vi @ b
    rest = vl != 0
    y = np.zeros(m, dtype=complex)
    y[rest] = np.linalg.solve(S[np.ix_(rest, rest)], beta[rest])
    W, Wi, M = (np.zeros((m + 1, m + 1), dtype=complex) for _ in range(3))
    W[0, 0] = Wi[0, 0] = 1.0
    W[1:, 0], W[1:, 1:] = -V @ y, V
    Wi[1:, 0], Wi[1:, 1:] = y, Vi
    M[1:, 0], M[1:, 1:] = np.where(rest, 0.0, beta), S
    return V, Vi, W, Wi, S, M, centre[vl], centre[np.concatenate([[0], vl])]


def _kron_sum(X, idx):
    """Rows and columns ``idx`` of ``X (x) I + I (x) X``: the action of
    ``X`` on both indices of a flattened pair."""
    i, j = np.divmod(idx, X.shape[0])
    return X[i[:, None], i] * (j[:, None] == j) + (i[:, None] == i) * X[j[:, None], j]


def _describe(direction, m, symmetry):
    order = np.argsort(-np.abs(direction))
    parts = []
    for i in order[:3]:
        if abs(direction[i]) < 1e-6:
            break
        parts.append(f"{direction[i]:+.4g} {slot_label(m, i, symmetry)}")
    return "  ".join(parts) if parts else "0"


def _working_bytes(m):
    """Bytes of the working arrays of a contraction analysis at ``m``: a
    dozen ``(m, m, m, m)`` float arrays (the tensor fields and the Lie
    derivative of a limit) and ten complex ``(m, m, m + 1, m + 1)`` arrays
    of :func:`asymptotic_limit`."""
    return 8 * 12 * m**4 + 16 * 10 * (m * (m + 1)) ** 2


def asymptotic_limit(fam):
    """Classify the ``t -> infinity`` behaviour of a tensor-flow family.

    Verdicts:

    * ``"limit"`` — every mode of ``L_Z`` excited by the initial tensor
      either decays or lies in a semisimple zero cluster; the limit tensor
      (the zero-cluster spectral projection of the initial tensor) is
      returned.  Modes with amplitude below ``PROJ_TOL`` relative to the
      initial tensor norm count as unexcited.
    * ``"divergent"`` — some excited mode grows exponentially (or a
      defective zero cluster, which grows polynomially and is flagged so,
      is excited); the excited growing modes are reported with rate,
      amplitude and direction.
    * ``"oscillatory"`` — no growth, but an excited purely imaginary mode
      prevents convergence; reported distinctly, not as a limit.

    The analysis never forms ``L_Z``.  With ``Z(x) = A x + b``, each
    component of the initial tensor is a quadratic form ``K[j, k]`` in
    ``(1, x)``, which the flow of ``At = [[0, 0], [b, A]]`` moves.  In
    cluster bases ``V`` of ``A`` and ``W`` of ``At``
    (:func:`_cluster_bases`), the coefficients
    ``C = (V^-1 (x) V^-1) K (W (x) W)`` split ``K`` into the spectral parts
    of ``L_Z``: the entry ``C[a, b, p, q]`` evolves like
    ``exp(-nu t)`` (times a polynomial within a defective cluster), with
    ``nu = mu_p + mu_q - lam_a - lam_b`` from the cluster centres.  The
    decaying, zero, growing and oscillatory parts are the entries whose
    ``nu`` has real part above ``etol``, modulus at most ``etol``, real
    part below ``-etol``, or none of these; each part, and each group of
    entries with one ``nu`` (rounded to 9 digits, conjugates together),
    maps back to flattened coefficients.  ``etol`` is ``ZERO_TOL`` times
    ``max(1, max |nu|)``, the spectral radius of ``L_Z`` on the sector.
    ``defect`` is ``|L_Z v_zero|`` (:func:`lie_derivative`); a mode whose
    part ``v`` has ``|(L_Z - nu) v| > 1e-6 |v|`` is flagged as growing
    polynomially.  ``eigenvalues`` are the sums of the eigenvalues of ``A``
    over the sector's pairs, in the order of the flattened slots.

    Raises :class:`InvariantViolationError` once the excited modes are
    counted, before any is built, when the working arrays and the modes'
    flat directions would not fit in memory.
    """
    A, b = fam._affine
    T0, f0 = fam.initial, fam.flat0
    m, symmetry = T0.m, T0.symmetry
    schur = scipy.linalg.schur(A, output="complex")
    lam = np.diag(schur[0])
    mu = np.concatenate([[0.0], lam])
    pj, pk = _pair_index(m, symmetry)
    p, q = _pair_index(m + 1, "symmetric")
    eigenvalues = ((mu[p] + mu[q]) - (lam[pj] + lam[pk])[:, None]).ravel()
    etol = ZERO_TOL * max(1.0, float(np.abs(eigenvalues).max()))
    V, Vi, W, Wi, S, Mw, cv, cw = _cluster_bases(A, b, schur, etol)

    K = np.empty((m, m, m + 1, m + 1))
    K[..., 0, 0] = T0.c0
    K[..., 0, 1:] = K[..., 1:, 0] = 0.5 * T0.c1
    K[..., 1:, 1:] = T0.c2
    C = _congruence(Vi, W.T @ K @ W).reshape(m * m, -1)
    nu = (cw[:, None] + cw).ravel() - (cv[:, None] + cv).reshape(-1, 1)
    # flattened coefficients of a part X of C are VV X WW^T: the rows of
    # V (x) V at the sector's pairs, and the columns of Wi (x) Wi at the
    # coefficient slots, with c1 = K[0, l] + K[l, 0]
    VV = (V[pj, :, None] * V[pk, None, :]).reshape(pj.size, -1)
    WW = ((1.0 + ((p == 0) & (q > 0)))[:, None, None]
          * Wi[:, p].T[:, :, None] * Wi[:, q].T[:, None, :]).reshape(p.size, -1)

    decay = nu.real > etol
    zero = np.abs(nu) <= etol
    grow = nu.real < -etol
    osc = ~(decay | zero | grow)
    parts = [(VV @ (mask * C) @ WW.T).real.ravel()
             for mask in (zero, grow, osc, decay)]
    amplitudes = {
        key: float(np.linalg.norm(part))
        for key, part in zip(("zero", "growing", "oscillatory", "decaying"), parts)
    }
    v_zero = parts[0]
    limit = unflatten_field(v_zero, m, symmetry)
    defect = float(np.linalg.norm(flatten_field(lie_derivative(fam.field, limit))))

    cut = PROJ_TOL * max(1.0, float(np.linalg.norm(f0)))
    # |VV| <= |V|^2 and |WW| <= 2 |Wi|^2 (Frobenius norms) bound the flat
    # norm of a group by its norm in C: a group below cut / bound is not
    # excited
    bound = 2.0 * (np.linalg.norm(V) * np.linalg.norm(Wi)) ** 2
    keys = np.round(nu.real, 9) + 1j * np.round(np.abs(nu.imag), 9)

    def excited(mask):
        """Keys of the groups of one part that may reach ``cut``."""
        vals, which = np.unique(keys[mask], return_inverse=True)
        weight = np.sqrt(np.bincount(which, np.abs(C[mask]) ** 2, vals.size))
        return vals[weight * bound > cut]

    grow_keys, osc_keys = excited(grow), excited(osc)
    zero_defective = amplitudes["zero"] > cut and defect > 1e-6 * amplitudes["zero"]
    # each mode keeps one flat direction; one group at a time also needs the
    # columns of VV and WW it selects, their products with X and with its
    # residual R, the two Kronecker sums, and two complex flat vectors
    count = grow_keys.size + osc_keys.size + zero_defective
    _check_memory(
        _working_bytes(m) + 8 * f0.size * count
        + 16 * (2 * f0.size + (2 * pj.size + p.size) * (m + 1) ** 2 + 3 * (m + 1) ** 4),
        f"the contraction analysis at m={m} with {count} excited modes",
    )

    def mode(eigenvalue, growth_rate, amplitude, dirvec, **flags):
        direction = dirvec / np.linalg.norm(dirvec)
        return DivergentMode(eigenvalue, growth_rate, amplitude, direction,
                             _describe(direction, m, symmetry), **flags)

    def modes_of(mask, group_keys, oscillatory=False):
        """Excited modes of one part: its entries grouped by ``keys``."""
        modes = []
        for key in group_keys:
            sel = mask & (keys == key)
            rows, cols = np.flatnonzero(sel.any(axis=1)), np.flatnonzero(sel.any(axis=0))
            block = np.ix_(rows, cols)
            X = np.where(sel[block], C[block], 0.0)
            full = (VV[:, rows] @ X @ WW[:, cols].T).ravel()
            amp = float(np.linalg.norm(full))
            if amp <= cut:
                continue
            # (L_Z - nu) X in cluster coordinates: -(S (+) S) X + X (M (+) M) - nu X
            R = X @ _kron_sum(Mw, cols) - _kron_sum(S, rows) @ X - nu[block] * X
            defective = np.linalg.norm(VV[:, rows] @ R @ WW[:, cols].T) > 1e-6 * amp
            dirvec = full.real if np.linalg.norm(full.real) > 0 else full.imag
            modes.append(mode(complex(key), float(max(-key.real, 0.0)), amp, dirvec,
                              polynomial_growth=bool(defective), oscillatory=oscillatory))
        modes.sort(key=lambda md: -md.amplitude)
        return modes

    grow_modes = modes_of(grow, grow_keys)
    osc_modes = modes_of(osc, osc_keys, oscillatory=True)

    limit_flat = None
    if grow_modes or zero_defective:
        verdict, modes, limit = "divergent", grow_modes, None
        if zero_defective:
            modes.append(mode(0j, 0.0, amplitudes["zero"], v_zero, polynomial_growth=True))
    elif osc_modes:
        verdict, modes, limit = "oscillatory", osc_modes, None
    else:
        verdict, modes, limit_flat = "limit", [], v_zero
    return LimitAnalysis(
        verdict=verdict,
        limit=limit,
        limit_flat=limit_flat,
        modes=modes,
        eigenvalues=eigenvalues,
        amplitudes=amplitudes,
        defect=defect,
        etol=etol,
        symmetry=symmetry,
    )


# ------------------------------------------------------- contracted products


@dataclass
class ContractedTables:
    """Product tables of a contracted Lie-Jordan pair, as tensor fields.

    ``poisson`` is the limit Poisson tensor, whose component ``(j, k)`` is
    the limit bracket ``{x_j, x_k}_inf``; ``jordan`` is the limit symmetric
    tensor plus ``x_j x_k``, whose component ``(j, k)`` is the limit product
    ``(x_j, x_k)_inf``.  When every component is affine (the structure
    constants of a bona fide algebra on the coordinate functions),
    ``linear`` is True and the full structure constant arrays over the
    unit-extended basis are provided.
    """

    m: int
    poisson: PolyTensorField
    jordan: PolyTensorField
    linear: bool
    c_full: np.ndarray | None
    d_full: np.ndarray | None


def _coordinate_products(m):
    """The symmetric tensor field ``x_j x_k``."""
    c2 = _sym2(np.einsum("jl,kp->jklp", np.eye(m), np.eye(m)))
    return PolyTensorField._of(np.zeros((m, m)), np.zeros((m, m, m)), c2, "symmetric")


def _is_affine(*fields):
    return max(T.max_abs_quadratic() for T in fields) <= 1e-9


def extract_contracted_products(lam_limit, r_limit):
    m = lam_limit.m
    if r_limit.m != m:
        raise DimensionError("limit tensors live on different spaces")
    jordan = r_limit + _coordinate_products(m)
    linear = _is_affine(lam_limit, jordan)
    c_full, d_full = _unit_extended(lam_limit, jordan) if linear else (None, None)
    return ContractedTables(
        m=m, poisson=lam_limit, jordan=jordan, linear=linear, c_full=c_full, d_full=d_full
    )


def _unit_extended(poisson, jordan):
    """Structure constants ``(c, d)`` of affine product tables over the basis
    ``(1, x_1, ..., x_k)``, with ``1`` the unit of the Jordan product."""
    k = poisson.m
    c = np.zeros((k + 1, k + 1, k + 1))
    d = np.zeros((k + 1, k + 1, k + 1))
    unit = np.arange(k + 1)
    d[0, unit, unit] = 1.0
    d[unit, 0, unit] = 1.0
    c[1:, 1:, 0] = poisson.c0
    c[1:, 1:, 1:] = poisson.c1
    d[1:, 1:, 0] = jordan.c0
    d[1:, 1:, 1:] = jordan.c1
    return c, d


def verify_contracted_axioms(tables):
    """Exact Lie-Jordan and star-associativity residuals of contracted
    structure constants.  Requires linear tables."""
    if not tables.linear:
        raise InvariantViolationError(
            "axiom verification needs linear product tables"
        )
    return axiom_residuals(tables.c_full, tables.d_full)


def lie_algebra_dimensions(c_full):
    """(derived-subalgebra dimension, center dimension) of the traceless
    block of a Lie structure-constant array."""
    m = c_full.shape[0] - 1
    c = c_full[1:, 1:, 1:]
    derived = int(np.linalg.matrix_rank(c.reshape(m * m, m), tol=1e-9))
    center = m - int(np.linalg.matrix_rank(c.reshape(m, m * m), tol=1e-9))
    return derived, center


# --------------------------------------------------------- limit-set algebra


@dataclass
class LimitSetAlgebra:
    """Lie-Jordan structure of the static products restricted to the
    stationary affine set of the flow.

    ``poisson`` and ``jordan`` are tensor fields in the free coordinates
    (ordered as ``free_indices``): the static Poisson tensor and ``R`` plus
    ``x_j x_k``, with the pinned coordinates set to ``point``.
    """

    point: np.ndarray
    free_indices: list
    directions: np.ndarray
    poisson: PolyTensorField
    jordan: PolyTensorField
    closed: bool
    c_red: np.ndarray | None
    d_red: np.ndarray | None


def limit_set_algebra(Z, basis, verdict):
    """Restrict the Poisson and symmetric brackets to the flow's limit set.

    The limit set is the stationary affine set of the (affine) field
    intersected with the state body.  Coordinates with no component along
    the set's directions are pinned to their stationary values; the product
    tables of the remaining free coordinates are returned, together with
    reduced structure constants when the restricted products close on the
    free coordinates.

    ``verdict`` is the flow's combined verdict (see
    :func:`analyze_contraction`).  When the tensor flow converges
    (``verdict == "limit"``) this restriction is not the natural object —
    the contracted products are — so the function declines with
    :class:`LimitExistsError`.
    """
    if verdict == "limit":
        raise LimitExistsError(
            "the tensor flow converges; use the contracted products of the "
            "limit tensors instead of a limit-set restriction"
        )
    st = stationary_points(Z, basis)
    if st.kind != "affine-set":
        raise InvariantViolationError(
            "limit-set reduction needs an affine stationary set"
        )
    x0 = st.points[0]
    D = st.directions
    m = basis.m
    free = [j for j in range(m) if D.shape[1] and np.abs(D[j]).max() > 1e-9]
    # x = G y + g: the free coordinates y, the others pinned to x0
    G = np.eye(m)[:, free]
    g = x0.copy()
    g[free] = 0.0
    sel = np.ix_(free, free)

    def restrict(T):
        c0, c1, c2 = _compose_affine(T.c0[sel], T.c1[sel], T.c2[sel], G, g)
        return PolyTensorField._of(c0, c1, c2, T.symmetry)

    poisson = restrict(poisson_field(basis))
    jordan = restrict(symmetric_field(basis) + _coordinate_products(m))
    closed = _is_affine(poisson, jordan)
    c_red, d_red = _unit_extended(poisson, jordan) if closed else (None, None)
    return LimitSetAlgebra(
        point=x0,
        free_indices=free,
        directions=D,
        poisson=poisson,
        jordan=jordan,
        closed=closed,
        c_red=c_red,
        d_red=d_red,
    )


def matches_level_algebra(lsa, n):
    """Whether reduced structure constants equal those of an n-level system."""
    ref = build_basis(n)
    if lsa.c_red is None or lsa.c_red.shape != ref.lie_constants.shape:
        return False
    return bool(
        np.abs(lsa.c_red - ref.lie_constants).max() <= 1e-9
        and np.abs(lsa.d_red - ref.jordan_constants).max() <= 1e-9
    )


# ------------------------------------------------------------- full pipeline


@dataclass
class ContractionReport:
    """Complete contraction analysis of one Markovian flow."""

    n: int
    verdict: str  # combined: divergent > oscillatory > limit
    poisson: LimitAnalysis
    symmetric: LimitAnalysis
    stationary: object
    tables: ContractedTables | None = None
    axioms: object = None
    isomorphism: dict | None = None
    limit_set: LimitSetAlgebra | None = None

    def divergent_modes(self):
        out = []
        for name, ana in (("poisson", self.poisson), ("symmetric", self.symmetric)):
            for md in ana.modes:
                out.append((name, md))
        return out


def analyze_contraction(Z, basis):
    """Propagate both canonical tensor fields along a flow and classify.

    Returns a :class:`ContractionReport` carrying per-sector verdicts, the
    contracted product tables when both sectors converge (with axiom
    residuals and elementary isomorphism invariants of the contracted Lie
    part), or — for divergent flows — the divergent modes together with
    the limit-set restriction of the static products.  Raises
    :class:`InvariantViolationError` before allocating when the working
    arrays would not fit in memory (:func:`asymptotic_limit` checks again
    once it knows how many modes it keeps).
    """
    m = basis.m
    _check_memory(_working_bytes(m), f"the contraction analysis at m={m}")
    famL = flow_family(Z, poisson_field(basis))
    famR = flow_family(Z, symmetric_field(basis))
    anaL = asymptotic_limit(famL)
    anaR = asymptotic_limit(famR)
    st = stationary_points(Z, basis)
    if anaL.verdict == "divergent" or anaR.verdict == "divergent":
        verdict = "divergent"
    elif anaL.verdict == "oscillatory" or anaR.verdict == "oscillatory":
        verdict = "oscillatory"
    else:
        verdict = "limit"
    report = ContractionReport(
        n=basis.n,
        verdict=verdict,
        poisson=anaL,
        symmetric=anaR,
        stationary=st,
    )
    if verdict == "limit":
        tables = extract_contracted_products(anaL.limit, anaR.limit)
        report.tables = tables
        if tables.linear:
            report.axioms = verify_contracted_axioms(tables)
            derived, center = lie_algebra_dimensions(tables.c_full)
            report.isomorphism = {
                "derived_dim": derived,
                "center_dim": center,
                "description": (
                    f"contracted Lie part: derived subalgebra of dimension "
                    f"{derived}, center of dimension {center}"
                ),
            }
    elif st.kind == "affine-set":
        report.limit_set = limit_set_algebra(Z, basis, verdict)
    return report


def contract_3level_decoherence():
    """Run the two three-level decoherence models and compare contractions.

    Both the uniform off-diagonal damping model (d = 3, rate 1) and the
    random-phase model (d = 3, rates (1, 1)) contract the tensor fields;
    this driver asserts that their contracted product tables coincide
    entry-wise within ``MATCH_TOL`` and returns the pair of reports.
    Raises :class:`ContractionMismatchError` otherwise.
    """
    from .dynamics import model_massive_decoherence, model_pure_decoherence

    basis = build_basis(3)
    zm = model_massive_decoherence(3, 1.0)
    zp = model_pure_decoherence(3, (1.0, 1.0))
    rm = analyze_contraction(zm, basis)
    rp = analyze_contraction(zp, basis)
    if rm.verdict != "limit" or rp.verdict != "limit":
        raise ContractionMismatchError(
            f"expected both models to converge, got {rm.verdict} / {rp.verdict}"
        )
    worst = max(
        (rm.tables.poisson - rp.tables.poisson).max_abs(),
        (rm.tables.jordan - rp.tables.jordan).max_abs(),
    )
    if worst > MATCH_TOL:
        raise ContractionMismatchError(
            f"contracted tables of the two models differ by {worst:.3e} "
            f"(allowed {MATCH_TOL:.1e})"
        )
    return rm, rp


def format_product_table(tables, names=None):
    """Readable non-zero entries of contracted product tables."""
    m = tables.m
    if names is None:
        names = [f"x{j + 1}" for j in range(m)]
    lines = []
    for j in range(m):
        for k in range(j + 1, m):
            p = tables.poisson.component(j, k)
            if not p.is_zero(1e-9):
                lines.append(f"{{{names[j]},{names[k]}}} = {p.pretty(names, 1e-9)}")
    for j in range(m):
        for k in range(j, m):
            p = tables.jordan.component(j, k)
            if not p.is_zero(1e-9):
                lines.append(f"({names[j]},{names[k]}) = {p.pretty(names, 1e-9)}")
    return lines
