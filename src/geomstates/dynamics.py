"""Vector fields of Markovian (and some non-linear) state-space dynamics.

Any linear map ``T`` on matrices induces, after trace normalization, the
coordinate vector field

    ``Z^k(x) = (2/n) s[k,0] + sum_j s[k,j] x_j
               - (s[0,0] + (n/2) sum_j s[0,j] x_j) x_k``

where ``s[mu, nu]`` expands ``T(sigma_nu)`` over the basis.  For
trace-preserving ``T`` (``s[0, .] = 0``) the field is affine.  The
generator of a Markovian master equation in the form

    ``L(rho) = [[rho, H]] - (1/2){Vbar, rho} + sum_j V_j rho V_j^+``,
    ``Vbar = sum_j V_j^+ V_j``

decomposes exactly, at the level of vector fields, into a Hamiltonian
part, minus a gradient part, and a jump (Kraus) part:
``Z_L = X_H - Y_Vbar + Z_K``.  (For the widespread convention
``-i [H_c, rho]`` take ``H = -2 H_c``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .algebra import build_basis
from .errors import (
    BasisMismatchError,
    DimensionError,
    IntegrationDivergedError,
    InvariantViolationError,
    NonHermitianError,
    _check_memory,
)
from .poly import PolyVectorField
from .states import (
    StateCoordinates,
    _in_body,
    _min_eigenvalues,
    _ScrambledHalton,
    max_bloch_radius,
    state_from_matrix,
)
from .tensors import _rank_one_c2, gradient_vf, hamiltonian_vf

__all__ = [
    "LindbladModel",
    "Trajectory",
    "StationaryResult",
    "linear_map_matrix",
    "vf_from_linear_map",
    "kraus_vf",
    "lindblad_vf",
    "lindblad_parts",
    "affine_flow_map",
    "integrate",
    "stationary_points",
    "model_bloch_field",
    "model_phase_damping",
    "model_qubit_dissipation",
    "model_three_level_decay",
    "model_massive_decoherence",
    "model_pure_decoherence",
    "pure_decoherence_kraus",
    "model_gisin",
    "model_double_bracket",
    "model_kaufman_morrison",
]

SNAP_TOL = 1e-12
POSITIVITY_SLACK = 1e-6


# --------------------------------------------------------- linear map fields


def linear_map_matrix(T, basis):
    """Expansion ``s[mu, nu]``: coefficients of ``T(sigma_nu)``.

    ``T`` is a callable taking and returning (n, n) complex arrays.  The
    map must preserve Hermiticity (real expansion coefficients); otherwise
    :class:`InvariantViolationError` is raised.
    """
    n = basis.n
    outs = [np.asarray(T(el), dtype=complex) for el in basis.elements]
    if any(out.shape != (n, n) for out in outs):
        raise DimensionError("linear map must return matrices of the same size")
    s = basis.expand(np.stack(outs)).T
    scale = max(1.0, float(np.abs(s).max()))
    if float(np.abs(s.imag).max()) > 1e-11 * scale:
        raise InvariantViolationError(
            "linear map does not preserve Hermiticity "
            f"(imaginary expansion residue {np.abs(s.imag).max():.3e})"
        )
    return np.ascontiguousarray(s.real)


def vf_from_linear_map(T, basis):
    """Vector field of the trace-normalized flow of a linear matrix map.

    ``T`` may be a callable on matrices or a precomputed expansion matrix
    from :func:`linear_map_matrix`.  Coefficients at most ``SNAP_TOL``
    times the expansion scale are zeroed exactly, so maps that are
    trace-preserving up to roundoff yield exactly affine fields.  The
    identity map yields the zero field.
    """
    s = T if isinstance(T, np.ndarray) else linear_map_matrix(T, basis)
    if s.shape != (basis.dim, basis.dim):
        raise DimensionError(
            f"expansion matrix must be ({basis.dim},{basis.dim}), got {s.shape}"
        )
    n = basis.n
    scale = max(1.0, float(np.abs(s).max()))
    idx = np.arange(basis.m)
    c1 = s[1:, 1:].copy()
    c1[idx, idx] -= s[0, 0]
    Z = PolyVectorField.from_arrays(
        (2.0 / n) * s[1:, 0], c1, _rank_one_c2(0.25 * n * s[0, 1:])
    )
    return Z.snap(SNAP_TOL * scale)


def kraus_vf(V_list, basis):
    """Field of the (not trace-preserving) jump map ``rho -> sum V rho V^+``."""
    V_list = [np.asarray(V, dtype=complex) for V in V_list]
    if not V_list:
        raise DimensionError("at least one jump matrix is required")
    for V in V_list:
        if V.shape != (basis.n, basis.n):
            raise DimensionError("jump matrices must match the basis dimension")

    def jump(rho):
        return sum(V @ rho @ V.conj().T for V in V_list)

    return vf_from_linear_map(jump, basis)


@dataclass
class LindbladModel:
    """Markovian generator data: Hamiltonian part ``H`` and jumps ``V``.

    ``H`` is a traceless Hermitian matrix (or None); each ``V`` is a
    traceless complex matrix.  The generator acts as
    ``L(rho) = [[rho, H]] - (1/2){Vbar, rho} + sum_j V_j rho V_j^+``.
    """

    basis: object
    H: np.ndarray | None = None
    V: list = field(default_factory=list)

    def __post_init__(self):
        n = self.basis.n
        if self.H is not None:
            self.H = np.asarray(self.H, dtype=complex)
            if self.H.shape != (n, n):
                raise DimensionError("H must match the basis dimension")
            if float(np.abs(self.H - self.H.conj().T).max()) > 1e-10 * max(
                1.0, float(np.abs(self.H).max())
            ):
                raise NonHermitianError("H must be Hermitian")
            if abs(self.H.trace()) > 1e-10 * max(1.0, float(np.abs(self.H).max())):
                raise InvariantViolationError("H must be traceless")
        self.V = [np.asarray(V, dtype=complex) for V in self.V]
        for V in self.V:
            if V.shape != (n, n):
                raise DimensionError("jump matrices must match the basis dimension")
            if abs(V.trace()) > 1e-10 * max(1.0, float(np.abs(V).max())):
                raise InvariantViolationError("jump matrices must be traceless")
        if self.H is None and not self.V:
            raise DimensionError("a model needs a Hamiltonian or at least one jump")

    def vbar(self):
        n = self.basis.n
        out = np.zeros((n, n), dtype=complex)
        for V in self.V:
            out += V.conj().T @ V
        return out

    def action(self, rho):
        """Apply the generator to a matrix."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        if self.H is not None:
            out += -0.5j * (rho @ self.H - self.H @ rho)
        if self.V:
            vb = self.vbar()
            out += -0.5 * (vb @ rho + rho @ vb)
            for V in self.V:
                out += V @ rho @ V.conj().T
        return out


def lindblad_vf(model):
    """Affine vector field of a Markovian master equation."""
    Z = vf_from_linear_map(model.action, model.basis)
    if not Z.is_affine:
        raise InvariantViolationError(
            "master-equation field failed to be affine; "
            "generator is not trace-preserving"
        )
    return Z


def lindblad_parts(model):
    """Exact decomposition ``Z_L = X_H - Y_Vbar + Z_K`` as a dict.

    Keys: ``hamiltonian`` (may be zero), ``gradient`` (the field to be
    subtracted), ``kraus``.  The identity holds coefficient-wise; the
    quadratic parts of the gradient and jump contributions cancel.
    """
    basis = model.basis
    if model.H is not None:
        h_obs = basis.from_matrix(model.H)
        ham = hamiltonian_vf(basis, h_obs)
    else:
        ham = PolyVectorField.zero(basis.m)
    if model.V:
        vbar_obs = basis.from_matrix(model.vbar())
        grad = gradient_vf(basis, vbar_obs)
        kra = kraus_vf(model.V, basis)
    else:
        grad = PolyVectorField.zero(basis.m)
        kra = PolyVectorField.zero(basis.m)
    return {"hamiltonian": ham, "gradient": grad, "kraus": kra}


# ------------------------------------------------------------------ builtins


def model_bloch_field(omega=1.0):
    """Qubit Hamiltonian precession around the third axis (period 2 pi /
    omega): the flow of ``X_a`` with ``a = omega * sigma_3``."""
    basis = build_basis(2)
    coeffs = np.zeros(4)
    coeffs[3] = float(omega)
    return hamiltonian_vf(basis, basis.observable(coeffs))


def model_phase_damping(gamma=1.0):
    """Qubit phase damping: single jump ``sqrt(gamma) sigma_3``."""
    basis = build_basis(2)
    sigma3 = basis.elements[3]
    return LindbladModel(basis, H=None, V=[np.sqrt(float(gamma)) * sigma3])


def model_qubit_dissipation(gamma=1.0):
    """Qubit dissipation with both ladder jumps ``sqrt(gamma) J+-``.

    Coordinates contract as ``diag(-gamma, -gamma, -2 gamma)`` toward the
    maximally mixed state.
    """
    basis = build_basis(2)
    g = np.sqrt(float(gamma))
    Jp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    Jm = Jp.conj().T
    return LindbladModel(basis, H=None, V=[g * Jp, g * Jm])


def model_three_level_decay():
    """Three-level decay with jumps ``J1 = E13`` and ``J2 = E13 + E23``.

    Both jumps feed level 1; the flow pushes states toward the coordinate
    plane ``x_4 = .. = x_7 = 0, x_8 = 1/sqrt(3)`` while two divergent
    tensor-flow modes grow like ``e^{3t}``.
    """
    basis = build_basis(3)
    J1 = np.zeros((3, 3), dtype=complex)
    J1[0, 2] = 1.0
    J2 = np.zeros((3, 3), dtype=complex)
    J2[0, 2] = 1.0
    J2[1, 2] = 1.0
    return LindbladModel(basis, H=None, V=[J1, J2])


def model_massive_decoherence(d=3, gamma=1.0):
    """Uniform off-diagonal damping in dimension ``d``.

    The generator multiplies the matrix element ``rho_{mn}`` by
    ``-4 gamma sin^2(pi (m - n)/d)``; diagonal elements are untouched, so
    every diagonal state is stationary.  Returns the affine vector field.
    """
    if d < 2:
        raise DimensionError("the number of levels must be at least 2")
    basis = build_basis(d)
    idx = np.arange(d)
    weights = -4.0 * float(gamma) * np.sin(np.pi * (idx[:, None] - idx[None, :]) / d) ** 2

    def action(rho):
        return weights * rho

    return vf_from_linear_map(action, basis)


def _phase_unitaries(d):
    lam = np.exp(2.0j * np.pi / d)
    return [
        np.diag([lam ** (-k * l) for l in range(d)]).astype(complex)
        for k in range(1, d)
    ]


def model_pure_decoherence(d=3, gammas=None):
    """Random-phase decoherence built from the cyclic phase unitaries.

    ``L(rho) = -(1/d) sum_{k=1}^{d-1} gamma_k (rho - U_k rho U_k^+)`` with
    ``U_k = diag(lam^{-k(l-1)})_l``, ``lam = exp(2 pi i / d)``.  Returns
    the affine vector field.
    """
    if d < 2:
        raise DimensionError("the number of levels must be at least 2")
    if gammas is None:
        gammas = np.ones(d - 1)
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != (d - 1,):
        raise DimensionError(f"need {d - 1} rates, got {gammas.shape}")
    basis = build_basis(d)
    Us = _phase_unitaries(d)

    def action(rho):
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for gk, U in zip(gammas, Us):
            out += -(gk / d) * (rho - U @ rho @ U.conj().T)
        return out

    return vf_from_linear_map(action, basis)


def pure_decoherence_kraus(d=3, gammas=None):
    """The same generator as a jump model: ``V_k = sqrt(gamma_k / d) U_k``.

    Since ``U_k^+ U_k = I``, we get ``Vbar = (sum_k gamma_k / d) I`` and
    the jump model reproduces :func:`model_pure_decoherence` exactly.  The
    phase unitaries are automatically traceless (their eigenvalues sum
    over all d-th roots of unity).
    """
    if gammas is None:
        gammas = np.ones(d - 1)
    gammas = np.asarray(gammas, dtype=float)
    basis = build_basis(d)
    Vs = [np.sqrt(gk / d) * U for gk, U in zip(gammas, _phase_unitaries(d))]
    return LindbladModel(basis, H=None, V=Vs)


def model_gisin(basis, H):
    """Quadratic purity-preserving field of a non-linear double-bracket
    type equation: ``Z^k(x) = (1/2) sum_{j,l} x_j x_l w^k_{jl}`` with
    ``w^k_{jl}`` the expansion of ``[[sigma_j, [[sigma_l, H]] ]]``, for an
    :class:`Observable` ``H``."""
    if H.basis != basis:
        raise BasisMismatchError("H built over a different basis")
    c = basis.lie_constants
    # W[k, j, l] = sum_{p,q} H^p c[l, p, q] c[j, q, k]
    W = np.einsum("p,lpq,jqk->kjl", H.coeffs, c, c)
    m = basis.m
    blk = W[1:, 1:, 1:]
    return PolyVectorField.from_arrays(
        np.zeros(m), np.zeros((m, m)), 0.25 * (blk + blk.transpose(0, 2, 1))
    )


def model_double_bracket(basis, H):
    """Linear double-bracket field: flow of ``G -> [[H, [[H, G]] ]]`` for
    an :class:`Observable` ``H``.

    Coincides with the jump model ``V = H / sqrt(2)``, hence is a genuine
    Markovian dissipator; states relax toward matrices commuting with H.
    """
    if H.basis != basis:
        raise BasisMismatchError("H built over a different basis")
    Hm = H.matrix()

    def action(G):
        inner = -0.5j * (Hm @ G - G @ Hm)
        return -0.5j * (Hm @ inner - inner @ Hm)

    return vf_from_linear_map(action, basis)


def model_kaufman_morrison(basis, H, S):
    """Metriplectic field ``X_H + Y_S``: Hamiltonian part plus a gradient
    part generated by the entropy-like observable ``S`` (both
    :class:`Observable`)."""
    return hamiltonian_vf(basis, H) + gradient_vf(basis, S)


# ---------------------------------------------------------------- flow maps


def affine_flow_map(A, b, t):
    """Exact time-t flow of ``xdot = A x + b``: returns ``(E, f)`` with
    ``x(t) = E x(0) + f``, computed from one augmented matrix exponential."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    aug = np.zeros((m + 1, m + 1))
    aug[:m, :m] = A
    aug[:m, m] = np.asarray(b, dtype=float)
    G = scipy.linalg.expm(aug * float(t))
    return G[:m, :m], G[:m, m]


@dataclass
class Trajectory:
    """Sampled integral curve of a state-space vector field."""

    basis: object
    times: np.ndarray
    xs: np.ndarray
    method: str

    def state(self, i):
        return StateCoordinates(self.basis, self.xs[i])

    def final_state(self):
        return self.state(len(self.times) - 1)

    def purities(self):
        return 1.0 / self.basis.n + 0.5 * np.einsum("ij,ij->i", self.xs, self.xs)


def _check_on_body(basis, xs, times):
    """Raise at the first row of ``xs`` that is not a state up to
    ``POSITIVITY_SLACK``, giving the smallest eigenvalue of that row."""
    bad = np.flatnonzero(~_in_body(basis, xs, POSITIVITY_SLACK))
    if bad.size:
        i = bad[0]
        row = xs[i : i + 1]
        low = _min_eigenvalues(basis, row)[0] if np.isfinite(row).all() else np.nan
        raise IntegrationDivergedError(
            f"trajectory left the state body at t={times[i]:.6g} "
            f"(eigenvalue {low:.3e})",
            time=times[i],
        )


def integrate(Z, state0, t_end, dt=None, method="auto"):
    """Integrate ``xdot = Z(x)`` from a state, sampling every ``dt``.

    Affine fields use the exact (matrix-exponential) flow map; quadratic
    fields use an adaptive Runge-Kutta scheme at tight tolerance.  Sampled
    points are verified to stay density states up to ``POSITIVITY_SLACK``;
    violation raises :class:`IntegrationDivergedError` with the first bad
    time.  The start is tested before integrating, and all other samples
    in one batch once they are computed.  Raises
    :class:`InvariantViolationError` before allocating when the samples
    would not fit in memory.
    """
    basis = state0.basis
    if Z.m != basis.m:
        raise BasisMismatchError("field and state have different dimensions")
    t_end = float(t_end)
    if not t_end >= 0:
        raise DimensionError("integration time must be nonnegative")
    if dt is None:
        dt = t_end / 200.0 if t_end > 0 else 1.0
    elif not float(dt) > 0:
        raise DimensionError(f"sample step must be positive, got {dt!r}")
    steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    n, m = basis.n, basis.m
    # per sample: the time, x and its copy (the RK45 solution), and for the
    # positivity test another copy, four arrays of the levels and four of
    # the pairs, and (near the cut) a complex density matrix, one temporary
    # of its size and its eigenvalues
    _check_memory(
        8 * (steps + 1) * (1 + 3 * m + 4 * n + 2 * n * (n - 1) + 4 * n * n + n),
        f"a trajectory of {steps + 1} samples",
    )
    times = np.linspace(0.0, t_end, steps + 1)

    _check_on_body(basis, state0.x[None], times)
    if Z.is_affine and method in ("auto", "exact"):
        A, b = Z.linear_parts()
        E, f = affine_flow_map(A, b, times[1] - times[0] if steps else 0.0)
        xs = np.empty((steps + 1, m))
        xs[0] = state0.x
        for i in range(1, steps + 1):
            xs[i] = E @ xs[i - 1] + f
        _check_on_body(basis, xs[1:], times[1:])
        return Trajectory(basis, times, xs, method="exact-affine")
    if method == "exact":
        raise InvariantViolationError("exact flow maps require an affine field")

    import scipy.integrate  # slow to import, and only RK45 runs need it

    sol = scipy.integrate.solve_ivp(
        lambda t, x: Z(x),
        (0.0, t_end),
        state0.x,
        t_eval=times,
        rtol=1e-10,
        atol=1e-12,
        method="RK45",
    )
    if not sol.success:
        raise IntegrationDivergedError(f"integration failed: {sol.message}")
    xs = np.ascontiguousarray(sol.y.T)
    _check_on_body(basis, xs, times)
    return Trajectory(basis, times, xs, method="rk45")


# ------------------------------------------------------------- fixed points


@dataclass
class StationaryResult:
    """Stationary set of a state-space vector field.

    ``kind`` is ``"affine-set"`` for affine fields with solutions (fields
    ``point``: the minimum-norm solution, ``directions``: an orthonormal
    basis of the stationary affine set's direction space), ``"points"``
    for isolated zeros found by deterministic multi-start root finding,
    or ``"empty"``.
    """

    kind: str
    points: list
    residuals: list
    directions: np.ndarray | None = None
    in_body: list | None = None


def _is_on_body(basis, x):
    return bool(_in_body(basis, x[None], 1e-8)[0])


def stationary_points(Z, basis):
    """Stationary states of a vector field over the given basis."""
    m = Z.m
    if basis.m != m:
        raise BasisMismatchError("field and basis have different dimensions")
    if Z.is_affine:
        A, b = Z.linear_parts()
        scale = max(1.0, float(np.abs(A).max()), float(np.abs(b).max()))
        xstar, *_ = np.linalg.lstsq(A, -b, rcond=None)
        resid = float(np.linalg.norm(A @ xstar + b))
        if resid > 1e-9 * scale:
            return StationaryResult(kind="empty", points=[], residuals=[])
        U, sv, Vt = np.linalg.svd(A)
        rank = int(np.count_nonzero(sv > 1e-10 * max(sv[0] if sv.size else 0.0, 1.0)))
        directions = Vt[rank:].T  # (m, m - rank), orthonormal columns
        return StationaryResult(
            kind="affine-set",
            points=[xstar],
            residuals=[resid],
            directions=directions,
            in_body=[_is_on_body(basis, xstar)],
        )

    # quadratic field: deterministic multi-start Newton iterations
    radius = max_bloch_radius(basis.n)
    starts = [np.zeros(m)]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 0.6 * radius
        starts.append(e.copy())
        starts.append(-e)
    sampler = _ScrambledHalton(m, 7)
    extra = sampler.random(max(0, 64 - len(starts)))
    for u in extra:
        v = 2.0 * u - 1.0
        nv = np.linalg.norm(v)
        if nv > 1.0:
            v = v / nv
        starts.append(v * radius * 0.95)

    import scipy.optimize  # slow to import, and only quadratic fields need it

    scale = max(1.0, Z.max_abs())
    found = []
    residuals = []
    for x0 in starts:
        sol = scipy.optimize.root(
            lambda x: Z(x), x0, jac=lambda x: Z.jacobian(x), tol=1e-12
        )
        if not sol.success:
            continue
        x = sol.x
        r = float(np.linalg.norm(Z(x)))
        if r > 1e-9 * scale or not _is_on_body(basis, x):
            continue
        if any(np.linalg.norm(x - y) < 1e-6 for y in found):
            continue
        found.append(x)
        residuals.append(r)
    order = sorted(range(len(found)), key=lambda i: tuple(np.round(found[i], 9)))
    found = [found[i] for i in order]
    residuals = [residuals[i] for i in order]
    if not found:
        return StationaryResult(kind="empty", points=[], residuals=[])
    return StationaryResult(
        kind="points",
        points=found,
        residuals=residuals,
        in_body=[True] * len(found),
    )


def state_from_coords(basis, x):
    """Convenience: validated state from raw coordinates."""
    st = StateCoordinates(basis, np.asarray(x, dtype=float))
    state_from_matrix(st.matrix(), basis)
    return st
