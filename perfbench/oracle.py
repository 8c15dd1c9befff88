"""Independent reference computations and the artifact checks built on them.

Nothing here reuses the program's bases, structure constants, vector
fields or integrators.  Every reference is computed from the density
matrix ``rho = I/n + (1/2) sum_j x_j sigma_j`` and the generator written
in matrix form.  The one routine taken from the program is
``pushforward_affine``.  It is the geometric route ``E T(Phi_-t(y)) E^T``,
and it is fed an affine part and an initial tensor computed here.

Each ``check_*`` function returns a list of failure strings; an empty list
means the artifact passed.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np
import scipy.linalg

FIELD_TOL = 1e-9
TRAJ_TOL = 1e-9
RK4_TOL = 1e-7
TENSOR_TOL = 1e-8
AXIOM_TOL = 1e-8
TABLE_TOL = 1e-10


# ------------------------------------------------------------------ algebra


@lru_cache(maxsize=None)
def basis_matrices(n):
    """``[I, sigma_1, ..., sigma_m]`` in the program's documented order:
    Pauli for n = 2, Gell-Mann for n = 3, and for n >= 4 all symmetric
    pairs, all antisymmetric pairs, then the diagonal matrices."""

    def sym(j, k):
        s = np.zeros((n, n), dtype=complex)
        s[j, k] = s[k, j] = 1.0
        return s

    def asym(j, k):
        a = np.zeros((n, n), dtype=complex)
        a[j, k], a[k, j] = -1.0j, 1.0j
        return a

    def diag(l):
        v = np.zeros(n)
        v[:l] = 1.0
        v[l] = -l
        return np.diag(np.sqrt(2.0 / (l * (l + 1))) * v).astype(complex)

    if n == 2:
        els = [sym(0, 1), asym(0, 1), diag(1)]
    elif n == 3:
        els = [sym(0, 1), asym(0, 1), diag(1), sym(0, 2), asym(0, 2),
               sym(1, 2), asym(1, 2), diag(2)]
    else:
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        els = ([sym(*p) for p in pairs] + [asym(*p) for p in pairs]
               + [diag(l) for l in range(1, n)])
    out = np.stack([np.eye(n, dtype=complex)] + els)
    out.setflags(write=False)
    return out


def _expand(prods, n):
    """Coefficients over the basis of a stack of matrices ``(..., n, n)``."""
    S = basis_matrices(n)
    tab = 0.5 * np.einsum("...ab,kba->...k", prods, S)
    tab[..., 0] = np.einsum("...aa->...", prods) / n
    return tab.real


@lru_cache(maxsize=None)
def structure_constants(n):
    """``(c, d)`` with ``[[s_i, s_j]] = c_ij^k s_k`` and
    ``s_i (.) s_j = d_ij^k s_k``, index 0 the identity."""
    S = basis_matrices(n)
    P = np.einsum("iab,jbc->ijac", S, S)
    lie = -0.5j * (P - P.transpose(1, 0, 2, 3))
    jor = 0.5 * (P + P.transpose(1, 0, 2, 3))
    return _expand(lie, n), _expand(jor, n)


def to_rho(xs, n):
    """Density matrices of coordinate rows ``xs`` of shape ``(K, m)``."""
    S = basis_matrices(n)
    return np.eye(n) / n + 0.5 * np.einsum("kj,jab->kab", xs, S[1:])


def to_coords(rhos, n):
    S = basis_matrices(n)
    return np.einsum("kab,jba->kj", rhos, S[1:]).real


def coords_of_state(rho, n):
    return to_coords(rho[None], n)[0]


# --------------------------------------------------------------- generators
#
# Each generator maps a stack of matrices (K, n, n) to their time derivative.


def _lie(a, b):
    return -0.5j * (a @ b - b @ a)


def lindblad(H, Vs):
    """``L(rho) = [[rho, H]] - (1/2){Vbar, rho} + sum_j V_j rho V_j^+``."""
    H = None if H is None else np.asarray(H, dtype=complex)
    Vs = [np.asarray(V, dtype=complex) for V in Vs]
    vbar = sum((V.conj().T @ V for V in Vs), start=0)

    def L(rho):
        out = np.zeros_like(rho, dtype=complex)
        if H is not None:
            out += _lie(rho, H)
        if Vs:
            out += -0.5 * (vbar @ rho + rho @ vbar)
            for V in Vs:
                out += V @ rho @ V.conj().T
        return out

    return L


def hamiltonian(a):
    return lindblad(a, [])


def gradient(a):
    """Gradient flow of ``a``: ``a (.) rho - tr(rho a) rho``."""
    a = np.asarray(a, dtype=complex)

    def L(rho):
        tr = np.einsum("kab,ba->k", rho, a)[:, None, None]
        return 0.5 * (a @ rho + rho @ a) - tr * rho

    return L


def gisin(a):
    """Purity-preserving double-bracket flow ``[[rho, [[rho, a]] ]]``."""
    a = np.asarray(a, dtype=complex)
    return lambda rho: _lie(rho, _lie(rho, a))


def massive_decoherence(d, gamma):
    idx = np.arange(d)
    w = -4.0 * gamma * np.sin(np.pi * (idx[:, None] - idx[None, :]) / d) ** 2
    return lambda rho: w * rho


def pure_decoherence(d, gammas):
    lam = np.exp(2.0j * np.pi / d)
    Us = [np.diag(lam ** (-k * np.arange(d))) for k in range(1, d)]

    def L(rho):
        out = np.zeros_like(rho, dtype=complex)
        for g, U in zip(gammas, Us):
            out += -(g / d) * (rho - U @ rho @ U.conj().T)
        return out

    return L


def observable(B):
    """``B . sigma`` for a qubit."""
    return np.einsum("j,jab->ab", np.asarray(B, dtype=float), basis_matrices(2)[1:])


def field_at(L, xs, n):
    """Coordinate vector field ``x'_j = tr(sigma_j L(rho(x)))``."""
    return to_coords(L(to_rho(xs, n)), n)


def affine_parts(L, n):
    """``(A, b)`` with ``x' = A x + b`` for a linear trace-preserving L."""
    m = n * n - 1
    b = field_at(L, np.zeros((1, m)), n)[0]
    A = field_at(L, np.eye(m), n) - b
    return A.T, b


def liouvillian(L, n):
    """``n^2 x n^2`` matrix of L acting on row-major ``vec(rho)``."""
    E = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return L(E).reshape(n * n, n * n).T


class AffineField:
    """The ``linear_parts`` interface that ``pushforward_affine`` reads."""

    def __init__(self, A, b):
        self.A, self.b = A, b

    def linear_parts(self):
        return self.A, self.b


class StaticTensor:
    """Initial Poisson or symmetric tensor from independent constants."""

    def __init__(self, n, symmetry):
        c, d = structure_constants(n)
        self.t = c if symmetry == "antisymmetric" else d
        self.quadratic = symmetry == "symmetric"

    def __call__(self, x):
        out = self.t[1:, 1:, 0] + self.t[1:, 1:, 1:] @ x
        if self.quadratic:
            out = out - np.outer(x, x)
        return out


# ------------------------------------------------------------- poly tensors


def tensor_arrays(obj):
    """``(C0, C1, C2)`` of a serialized tensor or table grid of Poly dicts."""
    grid = obj["components"] if isinstance(obj, dict) else obj
    C0 = np.array([[p["c0"] for p in row] for row in grid], dtype=float)
    C1 = np.array([[p["c1"] for p in row] for row in grid], dtype=float)
    C2 = np.array([[p["c2"] for p in row] for row in grid], dtype=float)
    return C0, C1, C2


def eval_arrays(arrs, y):
    C0, C1, C2 = arrs
    return C0 + C1 @ y + np.einsum("jkab,a,b->jk", C2, y, y)


def _rel(a, b):
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))


# -------------------------------------------------------------------- checks


def check_field_csv(path, L, n):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    m = n * n - 1
    if data.shape[1] != 2 * m or data.shape[0] == 0:
        return [f"{path.name}: shape {data.shape}"]
    xs, vs = data[:, :m], data[:, m:]
    err = _rel(vs, field_at(L, xs, n))
    if err > FIELD_TOL:
        return [f"{path.name}: field rows off by {err:.2e}"]
    return []


def _read_trajectory(path, n):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    m = n * n - 1
    return data[:, 0], data[:, 1 : 1 + m], data[:, 1 + m]


def check_trajectory_exact(path, L, n, x0):
    """Affine generators: compare with ``expm(h L)`` on ``vec(rho)``, ``h``
    the (uniform) sample step."""
    t, xs, pur = _read_trajectory(path, n)
    fails = []
    if t.size > 1 and np.abs(np.diff(t, 2)).max(initial=0.0) > 1e-12 * max(1.0, t[-1]):
        fails.append(f"{path.name}: sample times are not uniform")
    P = scipy.linalg.expm((t[1] - t[0] if t.size > 1 else 0.0) * liouvillian(L, n))
    ref = [to_rho(np.asarray(x0)[None], n)[0].reshape(-1)]
    for _ in range(1, t.size):
        ref.append(P @ ref[-1])
    ref = np.array(ref).reshape(-1, n, n)
    err = _rel(xs, to_coords(ref, n))
    if err > TRAJ_TOL:
        fails.append(f"{path.name}: trajectory off expm reference by {err:.2e}")
    pur_ref = np.einsum("kab,kba->k", ref, ref).real
    if _rel(pur, pur_ref) > TRAJ_TOL:
        fails.append(f"{path.name}: purity column off by {_rel(pur, pur_ref):.2e}")
    return fails


def quadratic_parts(L, n):
    """``(c, A, Q)`` with ``x' = c + A x + Q(x, x)``, fitted from the matrix
    form at ``0``, ``+-e_j`` and ``e_j + e_k`` (exact for quadratic fields)."""
    m = n * n - 1
    I = np.eye(m)
    c = field_at(L, np.zeros((1, m)), n)[0]
    Fp, Fm = field_at(L, I, n), field_at(L, -I, n)
    A = 0.5 * (Fp - Fm)  # row j: the image of e_j
    diag = 0.5 * (Fp + Fm) - c
    jk = [(j, k) for j in range(m) for k in range(j + 1, m)]
    Q = np.zeros((m, m, m))  # Q[:, j, k], symmetric in (j, k)
    for j in range(m):
        Q[:, j, j] = diag[j]
    if jk:
        F2 = field_at(L, np.array([I[j] + I[k] for j, k in jk]), n)
        for (j, k), f in zip(jk, F2):
            Q[:, j, k] = Q[:, k, j] = 0.5 * (f - c - A[j] - A[k] - diag[j] - diag[k])
    return c, A.T, Q


def check_trajectory_rk4(path, L, n, x0, substeps=2):
    """Non-affine generators: compare with a fixed-step classical RK4 on
    the field fitted from the matrix form, ``substeps`` steps per sample
    interval; the fit itself is checked against the matrix form."""
    t, xs, pur = _read_trajectory(path, n)
    c, A, Q = quadratic_parts(L, n)
    F = lambda x: c + A @ x + (Q @ x) @ x
    probe = sample_points(n, 1, np.random.default_rng(0))[0]
    fails = []
    if _rel(F(probe), field_at(L, probe[None], n)[0]) > FIELD_TOL:
        fails.append(f"{path.name}: reference field is not quadratic")
    x = np.asarray(x0, dtype=float)
    out = [x]
    for i in range(1, t.size):
        h = (t[i] - t[i - 1]) / substeps
        for _ in range(substeps):
            k1 = F(x)
            k2 = F(x + 0.5 * h * k1)
            k3 = F(x + 0.5 * h * k2)
            k4 = F(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x)
    err = float(np.abs(xs - np.array(out)).max())
    if err > RK4_TOL:
        fails.append(f"{path.name}: trajectory off RK4 reference by {err:.2e}")
    if float(np.abs(pur - (1.0 / n + 0.5 * (xs * xs).sum(1))).max()) > TRAJ_TOL:
        fails.append(f"{path.name}: purity column inconsistent")
    return fails


def sample_points(n, count, rng):
    """Seeded interior states: random pure states mixed with ``I/n``."""
    pts = []
    for _ in range(count):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        rho = 0.6 * np.outer(v, v.conj()) + 0.4 * np.eye(n) / n
        pts.append(coords_of_state(rho, n))
    return pts


def check_tensor_family(path, L, n, pushforward, rng):
    """Every transported tensor equals ``E T(Phi_-t(y)) E^T`` at seeded y."""
    obj = json.loads(path.read_text())
    Z = AffineField(*affine_parts(L, n))
    ys = sample_points(n, 2, rng)
    fails = []
    for sector, sym in (("poisson", "antisymmetric"), ("symmetric", "symmetric")):
        T0 = StaticTensor(n, sym)
        for t, tens in zip(obj["times"], obj[sector]):
            arrs = tensor_arrays(tens)
            for y in ys:
                err = _rel(eval_arrays(arrs, y), pushforward(Z, T0, t, y))
                if err > TENSOR_TOL:
                    fails.append(f"{path.name}: {sector} at t={t:.3g} off by {err:.2e}")
                    break
    return fails


def unit_extended(poisson, jordan, tol=1e-9):
    """Unit-extended structure constants of linear product-table grids,
    or None when some entry has a quadratic part."""
    P, J = tensor_arrays(poisson), tensor_arrays(jordan)
    if max(np.abs(P[2]).max(initial=0), np.abs(J[2]).max(initial=0)) > tol:
        return None
    k = P[0].shape[0]
    c = np.zeros((k + 1,) * 3)
    d = np.zeros((k + 1,) * 3)
    for mu in range(k + 1):
        d[0, mu, mu] = d[mu, 0, mu] = 1.0
    c[1:, 1:, 0], c[1:, 1:, 1:] = P[0], P[1]
    d[1:, 1:, 0], d[1:, 1:, 1:] = J[0], J[1]
    return c, d


def axiom_residuals(c, d):
    """Exact residuals of the Lie-Jordan axioms on basis elements.  All but
    the Jordan identity are multilinear; that one is checked through its
    full linearization, which is multilinear too."""
    e = lambda spec, *ops: np.einsum(spec, *ops, optimize=True)
    jac = (e("jkp,ipq->ijkq", c, c) + e("kip,jpq->ijkq", c, c)
           + e("ijp,kpq->ijkq", c, c))
    leib = (e("bcp,apq->abcq", d, c) - e("abp,pcq->abcq", c, d)
            - e("acp,bpq->abcq", c, d))
    assoc = (e("bcp,apq->abcq", d, d) - e("abp,pcq->abcq", d, d)
             - e("bcp,apq->abcq", c, c) + e("abp,pcq->abcq", c, c))
    s = d + 1j * c
    star = e("ijp,pkq->ijkq", s, s) - e("jkp,ipq->ijkq", s, s)
    # (x.b).(y.z) - x.(b.(y.z)), symmetrized over which argument is x
    t1 = e("xbp,yzr,prq->xbyzq", d, d, d)
    t2 = e("yzr,brs,xsq->xbyzq", d, d, d)
    lin = t1 - t2
    jord = lin + lin.transpose(2, 1, 0, 3, 4) + lin.transpose(3, 1, 2, 0, 4)
    scale = max(1.0, float(np.abs(c).max()), float(np.abs(d).max())) ** 2
    return {
        "jacobi": float(np.abs(jac).max()) / scale,
        "leibniz": float(np.abs(leib).max()) / scale,
        "associator": float(np.abs(assoc).max()) / scale,
        "star_associativity": float(np.abs(star).max()) / scale,
        "jordan_identity": float(np.abs(jord).max()) / scale ** 1.5,
    }


def check_report_limit(path, L, n, pushforward, rng):
    """A converging report: limit tensors are flow-invariant by the
    geometric route, the tables are the limits plus ``x_j x_k``, and the
    tables satisfy the Lie-Jordan axioms."""
    rep = json.loads(path.read_text())
    fails = []
    if rep["verdict"] != "limit" or rep["tables"] is None:
        return [f"{path.name}: verdict {rep['verdict']}, expected a limit"], None
    Z = AffineField(*affine_parts(L, n))
    ys = sample_points(n, 2, rng)
    limits = {}
    for sector in ("poisson", "symmetric"):
        lim = tensor_arrays(rep["sectors"][sector]["limit"])
        limits[sector] = lim
        T = lambda x, a=lim: eval_arrays(a, x)
        for t in (0.3, 1.0):
            for y in ys:
                err = _rel(pushforward(Z, T, t, y), T(y))
                if err > TENSOR_TOL:
                    fails.append(f"{path.name}: {sector} limit not invariant "
                                 f"at t={t} ({err:.2e})")
    tabs = rep["tables"]
    P, J = tensor_arrays(tabs["poisson"]), tensor_arrays(tabs["jordan"])
    m = n * n - 1
    eye = np.eye(m)
    xx = 0.5 * (np.einsum("ja,kb->jkab", eye, eye) + np.einsum("jb,ka->jkab", eye, eye))
    for got, want, what in (
        (P, limits["poisson"], "poisson"),
        (J, (limits["symmetric"][0], limits["symmetric"][1],
             limits["symmetric"][2] + xx), "jordan"),
    ):
        if max(_rel(g, w) for g, w in zip(got, want)) > TABLE_TOL:
            fails.append(f"{path.name}: {what} table differs from its limit tensor")
    cd = unit_extended(tabs["poisson"], tabs["jordan"])
    if cd is None:
        fails.append(f"{path.name}: contracted tables are not linear")
    else:
        res = axiom_residuals(*cd)
        bad = {k: v for k, v in res.items() if v > AXIOM_TOL}
        if bad:
            fails.append(f"{path.name}: axioms fail {bad}")
    return fails, (P, J)


def check_tables_agree(a, b, what):
    if a is None or b is None:
        return []
    err = max(_rel(x, y) for x, y in zip(a[0] + a[1], b[0] + b[1]))
    if err > TENSOR_TOL:
        return [f"{what}: contracted tables disagree by {err:.2e}"]
    return []


def check_report_decay(path, s):
    """Scaled three-level decay: the fastest divergent mode grows at
    exactly ``3 s``, and the limit set is the face ``x_4..x_7 = 0,
    x_8 = 1/sqrt(3)`` carrying the two-level algebra on ``x_1..x_3``."""
    rep = json.loads(path.read_text())
    fails = []
    if rep["verdict"] != "divergent":
        return [f"{path.name}: verdict {rep['verdict']}, expected divergent"]
    rates = [md["growth_rate"] for sec in rep["sectors"].values() for md in sec["modes"]]
    top = max(rates, default=0.0)
    if abs(top - 3.0 * s) > 1e-6 * max(1.0, 3.0 * s):
        fails.append(f"{path.name}: growth rate {top!r}, expected {3.0 * s!r}")
    ls = rep.get("limit_set")
    if ls is None:
        return fails + [f"{path.name}: no limit set"]
    if ls["free_coordinates"] != ["x_1", "x_2", "x_3"]:
        fails.append(f"{path.name}: limit set free in {ls['free_coordinates']}")
        return fails
    want_pt = np.zeros(8)
    want_pt[7] = 1.0 / np.sqrt(3.0)
    if np.abs(np.asarray(ls["point"])[3:] - want_pt[3:]).max() > 1e-9:
        fails.append(f"{path.name}: limit set pinned at {ls['point'][3:]}")
    if ls.get("isomorphic_to_level") != 2 or not ls["closed"]:
        fails.append(f"{path.name}: limit set not reported as a 2-level algebra")
    cd = unit_extended(ls["poisson"], ls["jordan"])
    c2, d2 = structure_constants(2)
    if cd is None or _rel(cd[0], c2) > TABLE_TOL or _rel(cd[1], d2) > TABLE_TOL:
        fails.append(f"{path.name}: limit-set tables differ from the qubit algebra")
    return fails


def check_static_tables(path, n):
    obj = json.loads(path.read_text())
    c, d = structure_constants(n)
    P, J = tensor_arrays(obj["poisson"]), tensor_arrays(obj["jordan"])
    errs = [
        _rel(P[0], c[1:, 1:, 0]), _rel(P[1], c[1:, 1:, 1:]),
        _rel(J[0], d[1:, 1:, 0]), _rel(J[1], d[1:, 1:, 1:]),
        float(np.abs(P[2]).max()), float(np.abs(J[2]).max()),
    ]
    if obj["n"] != n or max(errs) > TABLE_TOL:
        return [f"{path.name}: static tables off by {max(errs):.2e}"]
    return []
