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

The same push-forward is the one-parameter group ``T_t = exp(-t L_Z) T`` on
the flattened coefficient space, where ``L_Z`` is an explicit matrix (the
superoperator built here).  Its ``exp`` serves the tests as an independent
oracle for the transport; the superoperator itself serves the
``t -> infinity`` analysis, which is spectral:

* eigenvalues of the superoperator with positive real part are decaying
  directions of the tensor flow,
* the (clustered) zero eigenvalues carry the limit tensor, provided the
  initial tensor does not excite a defective (non-semisimple) zero mode,
* eigenvalues with negative real part are exponentially divergent tensor
  modes, and purely imaginary ones oscillate.

Every superoperator takes the same path through these classes: three sorted
real Schur splittings, which for a diagonal matrix reduce to splitting its
coordinates by index.

When both the Poisson and the symmetric tensor fields converge, their
limits define a *contracted* Lie-Jordan product pair on the same function
space, generally non-isomorphic to the original one; when the flow instead
has divergent tensor modes, the algebra can still be read off on the
stationary limit set by restricting the static products to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import get_lapack_funcs

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
    "LieDerivativeSuperoperator",
    "build_superoperator",
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


# -------------------------------------------------------------- Lie derivative


def lie_derivative(Z, T, tol=1e-12):
    """Lie derivative of a tensor field, or of a stack of them, along a
    vector field.

    Exact on polynomial coefficients.  For affine ``Z`` the result is again
    of degree <= 2; quadratic ``Z`` is accepted only when all cubic terms
    cancel within ``tol`` (relative to the coefficient scale), otherwise
    :class:`DegreeOverflowError` is raised.
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
                tol,
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


def _pair_index(m, symmetry):
    pairs = tensor_pairs(m, symmetry)
    return (
        np.array([j for j, _ in pairs], dtype=int),
        np.array([k for _, k in pairs], dtype=int),
    )


def flatten_field(T):
    """Stack the canonical components' coefficient vectors (pair-major):
    ``c0``, then ``c1``, then the upper triangle of ``c2``, row by row.  A
    stack of fields gives one row per field."""
    pj, pk = _pair_index(T.m, T.symmetry)
    iu = np.triu_indices(T.m)
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
    iu = np.triu_indices(m)
    c2[..., pj[:, None], pk[:, None], iu[0], iu[1]] = tri
    c2[..., pj[:, None], pk[:, None], iu[1], iu[0]] = tri
    return PolyTensorField._mirrored(c0, c1, c2, symmetry)


def slot_label(m, flat_index, symmetry, names=None):
    """Readable name of one flattened coefficient slot,
    e.g. ``"T[1,2]:x8"`` for the x8-coefficient of the (1,2) component."""
    pairs = tensor_pairs(m, symmetry)
    q = coeff_size(m)
    pidx, sidx = divmod(int(flat_index), q)
    j, k = pairs[pidx]
    if names is None:
        names = [f"x{i + 1}" for i in range(m)]
    if sidx == 0:
        coeff = "1"
    elif sidx <= m:
        coeff = names[sidx - 1]
    else:
        iu = np.triu_indices(m)
        l, p = iu[0][sidx - m - 1], iu[1][sidx - m - 1]
        coeff = f"{names[l]}^2" if l == p else f"{names[l]}*{names[p]}"
    return f"T[{j + 1},{k + 1}]:{coeff}"


# --------------------------------------------------------------- superoperator


@dataclass
class LieDerivativeSuperoperator:
    """Matrix of ``L_Z`` on the flattened coefficient space of one symmetry
    sector; the tensor flow is ``flat(T_t) = expm(-t * matrix) flat(T_0)``."""

    m: int
    symmetry: str
    matrix: np.ndarray

    @property
    def size(self):
        return self.matrix.shape[0]


def build_superoperator(Z, symmetry):
    """Lie-derivative matrix of an affine field on one symmetry sector.

    Column ``b`` is the flattened Lie derivative of the ``b``-th coefficient
    basis tensor; all columns come from one :func:`lie_derivative` call on
    the stack of basis tensors.  Requires ``Z`` affine, since only then does
    the Lie derivative preserve the degree-<=2 coefficient space with no
    cancellation caveats.  Raises :class:`InvariantViolationError` before
    allocating when the dense matrix, the basis stack, its image and one
    temporary of their size would not fit in memory.
    """
    _affine_parts(Z)
    m = Z.m
    B = len(tensor_pairs(m, symmetry)) * coeff_size(m)
    _check_memory(
        8 * (B * B + 3 * B * (m**2 + m**3 + m**4)),
        f"the {symmetry} tensor-flow superoperator at m={m}",
    )
    M = flatten_field(lie_derivative(Z, _basis_stack(m, symmetry))).T
    return LieDerivativeSuperoperator(
        m=m, symmetry=symmetry, matrix=np.ascontiguousarray(M)
    )


def _basis_stack(m, symmetry):
    """The stack of tensor fields whose ``b``-th item has the flat
    coefficient vector ``e_b`` (see :func:`unflatten_field`), written
    directly: one scatter per coefficient kind, then the mirror."""
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
    return PolyTensorField._mirrored(c0, c1, c2, symmetry)


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
    the congruence by ``E`` of the component indices.  The Lie-derivative
    superoperator ``superop``, with ``flat(T_t) = expm(-t M) flat0``, is
    built on first access only; the asymptotic analysis needs it, and the
    tests use its ``expm`` as an oracle for the transport.
    """

    def __init__(self, field, initial):
        self.field = field
        self.initial = initial
        self.flat0 = flatten_field(initial)
        self._affine = _affine_parts(field)
        self._superop = None

    @property
    def superop(self):
        if self._superop is None:
            self._superop = build_superoperator(self.field, self.initial.symmetry)
        return self._superop

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

    ``eigenvalue`` is the superoperator eigenvalue ``lam``; the mode's
    amplitude in the flow behaves like ``exp(growth_rate * t)`` with
    ``growth_rate = -Re(lam)`` (0 for oscillatory or polynomially growing
    modes).  ``direction`` is a unit vector in the flattened coefficient
    space and ``component`` names its dominant slots.
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


def _quasi_eigs(T):
    """Eigenvalues of a real quasi-triangular (Schur) matrix, in diagonal
    order: the diagonal, with each 2x2 block (a nonzero subdiagonal entry;
    no two are adjacent) replaced by its pair."""
    vals = np.diag(T).astype(complex)
    pairs = np.flatnonzero(np.diag(T, -1))[:, None] + np.arange(2)
    if pairs.size:
        vals[pairs] = np.linalg.eigvals(T[pairs[:, :, None], pairs[:, None, :]])
    return vals


def _split_leading(T, Q, k, vec):
    """Spectral component of ``vec`` in the leading invariant subspace of a
    sorted real Schur form ``(T, Q, k)``.

    Returns ``(lead_coords, rest_coords, Y)``: the leading part is
    ``Q[:, :k] @ lead_coords`` in full coordinates, and the complementary
    spectral part evolves under ``T[k:, k:]`` in ``rest_coords`` with
    embedding ``v -> Q @ [Y v; v]``, ``Y`` the Sylvester coupling solution
    (exactly 0 when the coupling block ``T[:k, k:]`` is).
    """
    phi = Q.T @ vec
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    if T12.any():
        trsyl = get_lapack_funcs(("trsyl",), (T11, T22))[0]
        x, sc, info = trsyl(T11, T22, -T12, isgn=-1)
        if info < 0:
            raise InvariantViolationError("Sylvester solve failed in spectral split")
        Y = x / sc
    else:
        Y = np.zeros(T12.shape)
    return phi[:k] - Y @ phi[k:], phi[k:], Y


def _split(block, coords, embed, select):
    """Split one spectral part of the tensor flow by ``select``.

    A part is a triple ``(block, coords, embed)``: it evolves under the
    quasi-triangular ``block`` in ``coords``, and ``embed`` maps such
    coordinates to the flattened coefficient space.  Returns the leading
    part (the eigenvalues ``re + i im`` with ``select(re, im)``) and the
    trailing part (the others), each again such a triple; either may be
    empty.  A diagonal block is its own Schur form and is split by index
    (:func:`_split_diagonal`); any other block through its sorted real
    Schur form (:func:`_split_schur`).
    """
    lam = np.diag(block)
    if np.count_nonzero(block) == np.count_nonzero(lam):
        return _split_diagonal(lam, coords, embed, select)
    return _split_schur(block, coords, embed, select)


def _split_diagonal(lam, coords, embed, select):
    """:func:`_split` of the block ``diag(lam)``: each part keeps its own
    entries of ``lam`` and ``coords`` in their order, and embeds by
    scattering them back.  ``select`` is called once, on all of ``lam``
    with ``im = 0.0``."""
    keep = select(lam, 0.0)

    def part(idx):
        def scatter(v):
            full = np.zeros(lam.size)
            full[idx] = v
            return embed(full)

        return np.diag(lam[idx]), coords[idx], scatter

    return part(np.flatnonzero(keep)), part(np.flatnonzero(~keep))


def _split_schur(block, coords, embed, select):
    """:func:`_split` through the real Schur form of ``block`` sorted by
    ``select`` (``scipy.linalg.schur``) and :func:`_split_leading`."""
    T, Q, k = scipy.linalg.schur(block, output="real", sort=select)
    lead, rest, Y = _split_leading(T, Q, k, coords)
    return (
        (T[:k, :k], lead, lambda v: embed(Q[:, :k] @ v)),
        (T[k:, k:], rest, lambda v: embed(Q @ np.concatenate([Y @ v, v]))),
    )


def _group_modes(block, coords, embed, m, symmetry, cut, oscillatory=False):
    """Eigen-modes of a small quasi-triangular cluster, grouped by value;
    only the modes with amplitude above ``cut`` are returned."""
    if block.shape[0] == 0 or np.linalg.norm(coords) == 0.0:
        return []
    vals, vecs = np.linalg.eig(block)
    try:
        combo = np.linalg.solve(vecs, coords.astype(complex))
    except np.linalg.LinAlgError:
        # defective cluster: report it as a single unresolved mode
        full = embed(coords)
        nrm = float(np.linalg.norm(full))
        if nrm <= cut:
            return []
        direction = full / nrm
        lead = vals[np.argmax(-vals.real)]
        return [
            DivergentMode(
                eigenvalue=complex(lead),
                growth_rate=float(-lead.real),
                amplitude=nrm,
                direction=direction,
                component=_describe(direction, m, symmetry),
                polynomial_growth=True,
                oscillatory=oscillatory,
            )
        ]
    groups = {}
    for i, v in enumerate(vals):
        key = (round(v.real, 9), round(abs(v.imag), 9))
        groups.setdefault(key, []).append(i)
    modes = []
    for key, idx in sorted(groups.items()):
        part = vecs[:, idx] @ combo[idx]
        full = embed(part.real) + 1j * embed(part.imag)
        amp = float(np.linalg.norm(full))
        if amp <= cut:
            continue
        dirvec = full.real if np.linalg.norm(full.real) > 0 else full.imag
        nrm = float(np.linalg.norm(dirvec))
        direction = dirvec / nrm if nrm > 0 else dirvec
        lam = complex(key[0], key[1])
        modes.append(
            DivergentMode(
                eigenvalue=lam,
                growth_rate=float(max(-lam.real, 0.0)),
                amplitude=amp,
                direction=direction,
                component=_describe(direction, m, symmetry),
                oscillatory=oscillatory,
            )
        )
    modes.sort(key=lambda md: -md.amplitude)
    return modes


def _describe(direction, m, symmetry, top=3):
    order = np.argsort(-np.abs(direction))
    parts = []
    for i in order[:top]:
        if abs(direction[i]) < 1e-6:
            break
        parts.append(f"{direction[i]:+.4g} {slot_label(m, i, symmetry)}")
    return "  ".join(parts) if parts else "0"


def asymptotic_limit(fam, zero_tol=1e-8, proj_tol=1e-9):
    """Classify the ``t -> infinity`` behaviour of a tensor-flow family.

    Verdicts:

    * ``"limit"`` — every superoperator mode excited by the initial tensor
      either decays or lies in a semisimple zero cluster; the limit tensor
      (the zero-cluster spectral projection of the initial tensor) is
      returned.  Modes with amplitude below ``proj_tol`` relative to the
      initial tensor norm count as unexcited.
    * ``"divergent"`` — some excited mode grows exponentially (or a
      defective zero cluster, which grows polynomially and is flagged so,
      is excited); the excited growing modes are reported with rate,
      amplitude and direction.
    * ``"oscillatory"`` — no growth, but an excited purely imaginary mode
      prevents convergence; reported distinctly, not as a limit.

    Eigenvalue classification uses ``zero_tol`` relative to the spectral
    scale.  The analysis is exact linear algebra on the superoperator, one
    path for every superoperator: three sorted real Schur splittings peel
    off (1) everything decaying, (2) the zero cluster, (3) the growing
    cluster, leaving the oscillatory modes.  A diagonal block is split by
    index, with no LAPACK call.
    """
    sup = fam.superop
    M = sup.matrix
    f0 = fam.flat0
    m, symmetry = sup.m, sup.symmetry
    scale = max(1.0, float(np.linalg.norm(f0)))
    # the smallest of the 1-, inf- and Frobenius norms of M
    absM = np.abs(M)
    spec_scale = max(
        1.0,
        min(
            float(absM.sum(axis=0).max()),
            float(absM.sum(axis=1).max()),
            float(np.linalg.norm(M)),
        ),
    )
    etol = zero_tol * spec_scale

    live, decay = _split(M, f0, lambda v: v, lambda re, im: re <= etol)
    zero, rest = _split(*live, lambda re, im: re * re + im * im <= etol * etol)
    grow, osc = _split(*rest, lambda re, im: re < -etol)
    eigenvalues = np.concatenate([_quasi_eigs(live[0]), _quasi_eigs(decay[0])])
    v_zero = zero[2](zero[1])
    defect = float(np.linalg.norm(M @ v_zero))

    grow_vec = grow[2](grow[1])
    # a trailing part in full coordinates is its parent's less the leading part
    amplitudes = {
        "zero": float(np.linalg.norm(v_zero)),
        "growing": float(np.linalg.norm(grow_vec)),
        "oscillatory": float(np.linalg.norm(rest[2](rest[1]) - grow_vec)),
        "decaying": float(np.linalg.norm(f0 - live[2](live[1]))),
    }
    cut = proj_tol * scale
    grow_modes = _group_modes(*grow, m, symmetry, cut)
    osc_modes = _group_modes(*osc, m, symmetry, cut, oscillatory=True)
    zero_defective = amplitudes["zero"] > cut and defect > 1e-6 * amplitudes["zero"]

    limit = limit_flat = None
    if grow_modes or zero_defective:
        verdict, modes = "divergent", grow_modes
        if zero_defective:
            direction = v_zero / amplitudes["zero"]
            modes.append(
                DivergentMode(
                    eigenvalue=0j,
                    growth_rate=0.0,
                    amplitude=amplitudes["zero"],
                    direction=direction,
                    component=_describe(direction, m, symmetry),
                    polynomial_growth=True,
                )
            )
    elif osc_modes:
        verdict, modes = "oscillatory", osc_modes
    else:
        verdict, modes = "limit", []
        limit_flat = v_zero
        limit = unflatten_field(limit_flat, m, symmetry)
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


def _is_affine(*fields, tol):
    return max(T.max_abs_quadratic() for T in fields) <= tol


def extract_contracted_products(lam_limit, r_limit, quad_tol=1e-9):
    m = lam_limit.m
    if r_limit.m != m:
        raise DimensionError("limit tensors live on different spaces")
    jordan = r_limit + _coordinate_products(m)
    linear = _is_affine(lam_limit, jordan, tol=quad_tol)
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


def limit_set_algebra(Z, basis, verdict, closure_tol=1e-9):
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
    closed = _is_affine(poisson, jordan, tol=closure_tol)
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


def matches_level_algebra(lsa, n, tol=1e-9):
    """Whether reduced structure constants equal those of an n-level system."""
    ref = build_basis(n)
    if lsa.c_red is None or lsa.c_red.shape != ref.lie_constants.shape:
        return False
    return bool(
        np.abs(lsa.c_red - ref.lie_constants).max() <= tol
        and np.abs(lsa.d_red - ref.jordan_constants).max() <= tol
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


def analyze_contraction(Z, basis, zero_tol=1e-8, proj_tol=1e-9):
    """Propagate both canonical tensor fields along a flow and classify.

    Returns a :class:`ContractionReport` carrying per-sector verdicts, the
    contracted product tables when both sectors converge (with axiom
    residuals and elementary isomorphism invariants of the contracted Lie
    part), or — for divergent flows — the divergent modes together with
    the limit-set restriction of the static products.
    """
    famL = flow_family(Z, poisson_field(basis))
    famR = flow_family(Z, symmetric_field(basis))
    anaL = asymptotic_limit(famL, zero_tol, proj_tol)
    anaR = asymptotic_limit(famR, zero_tol, proj_tol)
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


def contract_3level_decoherence(zero_tol=1e-8, proj_tol=1e-9, match_tol=1e-8):
    """Run the two three-level decoherence models and compare contractions.

    Both the uniform off-diagonal damping model (d = 3, rate 1) and the
    random-phase model (d = 3, rates (1, 1)) contract the tensor fields;
    this driver asserts that their contracted product tables coincide
    entry-wise within ``match_tol`` and returns the pair of reports.
    Raises :class:`ContractionMismatchError` otherwise.
    """
    from .dynamics import model_massive_decoherence, model_pure_decoherence

    basis = build_basis(3)
    zm = model_massive_decoherence(3, 1.0)
    zp = model_pure_decoherence(3, (1.0, 1.0))
    rm = analyze_contraction(zm, basis, zero_tol, proj_tol)
    rp = analyze_contraction(zp, basis, zero_tol, proj_tol)
    if rm.verdict != "limit" or rp.verdict != "limit":
        raise ContractionMismatchError(
            f"expected both models to converge, got {rm.verdict} / {rp.verdict}"
        )
    worst = max(
        (rm.tables.poisson - rp.tables.poisson).max_abs(),
        (rm.tables.jordan - rp.tables.jordan).max_abs(),
    )
    if worst > match_tol:
        raise ContractionMismatchError(
            f"contracted tables of the two models differ by {worst:.3e} "
            f"(allowed {match_tol:.1e})"
        )
    return rm, rp


def format_product_table(tables, names=None, tol=1e-9):
    """Readable non-zero entries of contracted product tables."""
    m = tables.m
    if names is None:
        names = [f"x{j + 1}" for j in range(m)]
    lines = []
    for j in range(m):
        for k in range(j + 1, m):
            p = tables.poisson.component(j, k)
            if not p.is_zero(tol):
                lines.append(f"{{{names[j]},{names[k]}}} = {p.pretty(names, tol)}")
    for j in range(m):
        for k in range(j, m):
            p = tables.jordan.component(j, k)
            if not p.is_zero(tol):
                lines.append(f"({names[j]},{names[k]}) = {p.pretty(names, tol)}")
    return lines
