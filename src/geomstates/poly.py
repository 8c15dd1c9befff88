"""Polynomials of degree at most two on coordinate space, plus vector and
rank-2 tensor fields whose components are such polynomials.

Every geometric object in this package (Poisson and symmetric tensor fields,
Hamiltonian / gradient / Markovian vector fields, their Lie derivatives) has
components that are real polynomials of degree <= 2 in the coordinates
``x_1 .. x_m``.  A polynomial is stored as the triple

    ``p(x) = c0 + c1 . x + x^T c2 x``

with ``c2`` symmetric, so the representation is canonical: two polynomials
are equal iff their triples are equal.  Operations that could leave this
space (products of two quadratics, commutators of quadratic fields) track
the would-be cubic/quartic coefficients and raise
:class:`~geomstates.errors.DegreeOverflowError` unless they cancel.

A field stores the triples of all its components as three stacked
coefficient arrays, with the component indices leading:

* a vector field ``Z`` holds ``c0 (m)``, ``c1 (m, m)`` and ``c2 (m, m, m)``,
  so ``Z^k(x) = c0[k] + c1[k] . x + x^T c2[k] x``;
* a tensor field ``T`` holds ``c0 (m, m)``, ``c1 (m, m, m)`` and
  ``c2 (m, m, m, m)``, with ``T^{jk}`` in slot ``[j, k]``.

Evaluation (at a point or over an ``(N, m)`` batch of points), sums,
contraction and snapping are array operations on these stacks.
``components`` and ``component(j, k)`` return :class:`Poly` views that share
the field's arrays.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegreeOverflowError, DimensionError

__all__ = [
    "Poly",
    "PolyVectorField",
    "PolyTensorField",
]


def _sym2(a):
    """Symmetrization over the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _sym3(t):
    """Full symmetrization over the last three axes."""
    lead = tuple(range(t.ndim - 3))
    return sum(
        t.transpose(lead + tuple(len(lead) + i for i in p))
        for p in itertools.permutations(range(3))
    ) / 6.0


def _check_cubic(c3, scale, tol, what):
    """Raise :class:`DegreeOverflowError` unless the cubic coefficients
    ``c3``, symmetrized over their last three axes, stay within
    ``tol * max(1, scale)``."""
    over = float(np.abs(_sym3(c3)).max(initial=0.0))
    if over > tol * max(1.0, scale):
        raise DegreeOverflowError(
            f"{what} has non-cancelling cubic terms of size {over:.3e}"
        )


def _compose_affine(c0, c1, c2, G, g):
    """Coefficients of the stacked polynomials ``p(G y + g)`` from those of
    ``p(x)``: ``c0 (...)``, ``c1 (..., m)`` and ``c2 (..., m, m)``, with
    ``G (m, k)`` and ``g (m,)``.  The new quadratic part ``G^T c2 G`` is
    symmetric only up to rounding unless ``G`` selects coordinates."""
    c2g = c2 @ g
    return c0 + c1 @ g + c2g @ g, (c1 + 2.0 * c2g) @ G, G.T @ c2 @ G


def _values(c0, c1, c2, x):
    """Values of the stacked polynomials ``c0[i] + c1[i] . x + x^T c2[i] x``
    (``c0 (K)``, ``c1 (K, m)``, ``c2 (K, m, m)``) at a point ``(m,)``, as
    ``(K,)``, or over points ``(N, m)``, as ``(N, K)``.

    Summed as ``(c0 + c1 . x) + x^T c2 x``, the order of :meth:`Poly.__call__`;
    the quadratic term of an affine stack is an exact zero.
    """
    m = c1.shape[-1]
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != m:
        raise DimensionError(
            f"points must have shape ({m},) or (N, {m}), got {x.shape}"
        )
    X = x.reshape(-1, m)
    out = c0 + X @ c1.T
    if c2.any():
        out += np.matmul(
            np.matmul(X[:, None, None, :], c2), X[:, None, :, None]
        )[:, :, 0, 0]
    else:
        out += 0.0
    return out if x.ndim == 2 else out[0]


class Poly:
    """Real polynomial of degree <= 2 in ``m`` variables."""

    __slots__ = ("m", "c0", "c1", "c2")

    def __init__(self, m, c0=0.0, c1=None, c2=None):
        if m < 0:
            raise DimensionError("number of variables must be >= 0")
        self.m = int(m)
        self.c0 = float(c0)
        if c1 is None:
            self.c1 = np.zeros(m)
        else:
            self.c1 = np.asarray(c1, dtype=float).copy()
            if self.c1.shape != (m,):
                raise DimensionError(
                    f"linear coefficient must have shape ({m},), got {self.c1.shape}"
                )
        if c2 is None:
            self.c2 = np.zeros((m, m))
        else:
            c2 = np.asarray(c2, dtype=float)
            if c2.shape != (m, m):
                raise DimensionError(
                    f"quadratic coefficient must have shape ({m},{m}), got {c2.shape}"
                )
            self.c2 = _sym2(c2)

    @classmethod
    def _view(cls, c0, c1, c2):
        """Poly sharing the arrays ``c1`` and ``c2`` (already symmetric) of
        a field component."""
        p = cls.__new__(cls)
        p.m = c1.shape[0]
        p.c0 = float(c0)
        p.c1 = c1
        p.c2 = c2
        return p

    # ---------------------------------------------------------------- basics
    @classmethod
    def coordinate(cls, m, k):
        c1 = np.zeros(m)
        c1[k] = 1.0
        return cls(m, c1=c1)

    def copy(self):
        return Poly(self.m, self.c0, self.c1, self.c2)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise DimensionError(f"point must have shape ({self.m},), got {x.shape}")
        return self.c0 + self.c1 @ x + x @ self.c2 @ x

    def degree(self, tol=0.0):
        if self.max_abs_quadratic() > tol:
            return 2
        if np.abs(self.c1).max(initial=0.0) > tol:
            return 1
        if abs(self.c0) > tol:
            return 0
        return -1  # the zero polynomial

    def max_abs(self):
        return max(
            abs(self.c0),
            np.abs(self.c1).max(initial=0.0),
            self.max_abs_quadratic(),
        )

    def max_abs_quadratic(self):
        return np.abs(self.c2).max(initial=0.0)

    def is_zero(self, tol=0.0):
        return self.max_abs() <= tol

    def allclose(self, other, tol=1e-12):
        self._check(other)
        return (
            abs(self.c0 - other.c0) <= tol
            and np.abs(self.c1 - other.c1).max(initial=0.0) <= tol
            and np.abs(self.c2 - other.c2).max(initial=0.0) <= tol
        )

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.m != self.m:
            raise DimensionError(
                f"polynomials in {self.m} and {other.m} variables are incompatible"
            )

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        if isinstance(other, (int, float)):
            return Poly(self.m, self.c0 + other, self.c1, self.c2)
        self._check(other)
        return Poly(self.m, self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return Poly(self.m, self.c0 - other, self.c1, self.c2)
        self._check(other)
        return Poly(self.m, self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.m, -self.c0, -self.c1, -self.c2)

    def scale(self, s):
        s = float(s)
        return Poly(self.m, s * self.c0, s * self.c1, s * self.c2)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, k):
        """Partial derivative with respect to ``x_k`` (degree drops by one)."""
        if not 0 <= k < self.m:
            raise DimensionError(f"coordinate index {k} out of range for m={self.m}")
        return Poly(self.m, c0=self.c1[k], c1=2.0 * self.c2[k])

    # --------------------------------------------------------------- product
    def multiply(self, other, tol=1e-12):
        """Product, required to stay at degree <= 2 within ``tol``: the cubic
        coefficients and the quartic bound ``max|c2| * max|c2'|`` must stay
        below ``tol`` times the coefficient scale, else
        :class:`DegreeOverflowError` is raised."""
        self._check(other)
        c3 = _sym3(
            np.einsum("i,jk->ijk", self.c1, other.c2)
            + np.einsum("i,jk->ijk", other.c1, self.c2)
        )
        scale = max(1.0, self.max_abs() * other.max_abs())
        over = max(
            float(np.abs(c3).max(initial=0.0)),
            self.max_abs_quadratic() * other.max_abs_quadratic(),
        )
        if over > tol * scale:
            raise DegreeOverflowError(
                f"product leaves degree-2 space: overflow {over:.3e} "
                f"exceeds {tol:.1e} * {scale:.3e}"
            )
        c2 = (
            self.c0 * other.c2
            + other.c0 * self.c2
            + _sym2(np.outer(self.c1, other.c1))
        )
        return Poly(
            self.m,
            self.c0 * other.c0,
            self.c0 * other.c1 + other.c0 * self.c1,
            c2,
        )

    # ----------------------------------------------------------------- misc
    def snap(self, tol):
        """Copy with coefficient groups below ``tol`` zeroed exactly."""
        c0 = self.c0 if abs(self.c0) > tol else 0.0
        c1 = np.where(np.abs(self.c1) > tol, self.c1, 0.0)
        c2 = np.where(np.abs(self.c2) > tol, self.c2, 0.0)
        return Poly(self.m, c0, c1, c2)

    def to_dict(self):
        return {
            "c0": self.c0,
            "c1": self.c1.tolist(),
            "c2": self.c2.tolist(),
        }

    @classmethod
    def from_dict(cls, data, m=None):
        c1 = np.asarray(data.get("c1", []), dtype=float)
        if m is None:
            m = c1.shape[0]
        return cls(m, data.get("c0", 0.0), data.get("c1"), data.get("c2"))

    def __repr__(self):
        return f"Poly(m={self.m}, degree={self.degree()})"

    def pretty(self, names=None, tol=1e-12, digits=6):
        """Human-readable rendering, e.g. ``0.5*x3 - x1*x2``."""
        if names is None:
            names = [f"x{j + 1}" for j in range(self.m)]
        terms = []

        def coeff_str(v):
            if abs(v - round(v)) < tol and abs(v) < 1e15:
                return str(int(round(v)))
            return f"{v:.{digits}g}"

        if abs(self.c0) > tol:
            terms.append(coeff_str(self.c0))
        for j in range(self.m):
            if abs(self.c1[j]) > tol:
                c = self.c1[j]
                if abs(c - 1.0) < tol:
                    terms.append(names[j])
                elif abs(c + 1.0) < tol:
                    terms.append(f"-{names[j]}")
                else:
                    terms.append(f"{coeff_str(c)}*{names[j]}")
        for j in range(self.m):
            for k in range(j, self.m):
                c = self.c2[j, k] * (1.0 if j == k else 2.0)
                if abs(c) > tol:
                    mono = f"{names[j]}^2" if j == k else f"{names[j]}*{names[k]}"
                    if abs(c - 1.0) < tol:
                        terms.append(mono)
                    elif abs(c + 1.0) < tol:
                        terms.append(f"-{mono}")
                    else:
                        terms.append(f"{coeff_str(c)}*{mono}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def _coeff_arrays(c0, c1, c2, lead, m):
    """Float copies of stacked coefficient arrays with leading shape
    ``lead``; ``c2`` is symmetrized as :class:`Poly` does, ``None`` is 0."""
    c0 = np.array(c0, dtype=float)
    c1 = np.array(c1, dtype=float)
    c2 = np.zeros(lead + (m, m)) if c2 is None else _sym2(np.asarray(c2, dtype=float))
    for name, arr, shape in (
        ("c0", c0, lead),
        ("c1", c1, lead + (m,)),
        ("c2", c2, lead + (m, m)),
    ):
        if arr.shape != shape:
            raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    return c0, c1, c2


class PolyVectorField:
    """Vector field on coordinate space with Poly components ``Z^k``, stored
    as the arrays ``c0 (m)``, ``c1 (m, m)`` and ``c2 (m, m, m)``."""

    __slots__ = ("m", "c0", "c1", "c2")

    def __init__(self, components):
        components = list(components)
        if not components:
            raise DimensionError("a vector field needs at least one component")
        m = components[0].m
        if len(components) != m:
            raise DimensionError(
                f"need exactly m={m} components, got {len(components)}"
            )
        for p in components:
            if not isinstance(p, Poly) or p.m != m:
                raise DimensionError("all components must be Poly in the same m")
        self.m = m
        self.c0 = np.array([p.c0 for p in components])
        self.c1 = np.array([p.c1 for p in components])
        self.c2 = np.array([p.c2 for p in components])

    @classmethod
    def _of(cls, c0, c1, c2):
        Z = cls.__new__(cls)
        Z.m, Z.c0, Z.c1, Z.c2 = c0.shape[0], c0, c1, c2
        return Z

    @classmethod
    def from_arrays(cls, c0, c1, c2=None):
        """Field ``Z^k(x) = c0[k] + c1[k] . x + x^T c2[k] x``; ``c2`` is
        symmetrized over its last two axes."""
        c0 = np.asarray(c0, dtype=float)
        if c0.ndim != 1 or c0.shape[0] == 0:
            raise DimensionError("a vector field needs at least one component")
        m = c0.shape[0]
        return cls._of(*_coeff_arrays(c0, c1, c2, (m,), m))

    @classmethod
    def zero(cls, m):
        return cls.from_arrays(np.zeros(m), np.zeros((m, m)))

    @classmethod
    def from_affine(cls, mat, const=None):
        """Field ``Z(x) = mat @ x + const``."""
        mat = np.asarray(mat, dtype=float)
        m = mat.shape[0]
        if mat.shape != (m, m):
            raise DimensionError("affine part must be square")
        if const is None:
            const = np.zeros(m)
        return cls.from_arrays(const, mat)

    @property
    def components(self):
        return [Poly._view(self.c0[k], self.c1[k], self.c2[k]) for k in range(self.m)]

    def __call__(self, x):
        """Value ``(m,)`` at a point ``(m,)``, or values ``(N, m)`` over
        points ``(N, m)``."""
        return _values(self.c0, self.c1, self.c2, x)

    def _check(self, other):
        if other.m != self.m:
            raise DimensionError("vector fields live on different spaces")

    def __add__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        self._check(other)
        return PolyVectorField._of(
            self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2
        )

    def __sub__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        self._check(other)
        return PolyVectorField._of(
            self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2
        )

    def __neg__(self):
        return PolyVectorField._of(-self.c0, -self.c1, -self.c2)

    def scale(self, s):
        s = float(s)
        return PolyVectorField._of(s * self.c0, s * self.c1, s * self.c2)

    def max_abs(self):
        return float(
            max(np.abs(a).max(initial=0.0) for a in (self.c0, self.c1, self.c2))
        )

    def max_abs_quadratic(self):
        return float(np.abs(self.c2).max(initial=0.0))

    @property
    def is_affine(self):
        return self.max_abs_quadratic() == 0.0

    def linear_parts(self):
        """Return ``(A, b)`` with ``Z(x) = A x + b``; requires affine field."""
        if not self.is_affine:
            raise ValueError("field is not affine; no (A, b) representation")
        return self.c1.copy(), self.c0.copy()

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return self.c1 + 2.0 * (self.c2 @ x)

    def snap(self, tol):
        return PolyVectorField._of(*_snapped(self, tol))

    def allclose(self, other, tol=1e-12):
        if other.m != self.m:
            return False
        return _max_diff(self, other) <= tol

    def directional_derivative(self, f):
        """The function ``Z(f) = sum_k Z^k  df/dx_k`` for degree <= 1 ``f``.

        Exact when ``f`` is affine; raises on quadratic ``f`` with a
        quadratic field (degree would exceed 2).
        """
        out = Poly(self.m)
        for k, zk in enumerate(self.components):
            out = out + zk.multiply(f.partial(k))
        return out

    def commutator(self, other, tol=1e-12):
        """Lie bracket ``[Z, W]^k = Z(W^k) - W(Z^k)``.

        Cubic contributions must cancel within ``tol`` (relative to the
        coefficient scale), else :class:`DegreeOverflowError` is raised;
        the derivatives ``dW`` and ``dZ`` are affine, so nothing quartic
        arises.
        """
        self._check(other)

        def along(Z, W):
            # Z^j d_j W^k, with d_j W^k = w1[k, j] + 2 w2[k, j, l] x_l
            return (
                np.einsum("j,kj->k", Z.c0, W.c1),
                np.einsum("jl,kj->kl", Z.c1, W.c1)
                + 2.0 * np.einsum("j,kjl->kl", Z.c0, W.c2),
                np.einsum("jlp,kj->klp", Z.c2, W.c1)
                + 2.0 * np.einsum("jl,kjp->klp", Z.c1, W.c2),
            )

        if self.c2.any() and other.c2.any():
            _check_cubic(
                2.0 * (
                    np.einsum("jlp,kjq->klpq", self.c2, other.c2)
                    - np.einsum("jlp,kjq->klpq", other.c2, self.c2)
                ),
                self.max_abs() * other.max_abs(),
                tol,
                "commutator",
            )
        zw, wz = along(self, other), along(other, self)
        return PolyVectorField.from_arrays(*(a - b for a, b in zip(zw, wz)))

    def __repr__(self):
        kind = "affine" if self.is_affine else "quadratic"
        return f"PolyVectorField(m={self.m}, {kind})"

    def pretty(self, names=None):
        lines = []
        for k, p in enumerate(self.components):
            nm = names[k] if names else f"x{k + 1}"
            lines.append(f"d{nm}/dt = {p.pretty(names)}")
        return "\n".join(lines)


def _snapped(field, tol):
    """Coefficient arrays of ``field`` with entries below ``tol`` zeroed."""
    return tuple(
        np.where(np.abs(a) > tol, a, 0.0) for a in (field.c0, field.c1, field.c2)
    )


def _max_diff(a, b):
    return max(
        float(np.abs(x - y).max(initial=0.0))
        for x, y in ((a.c0, b.c0), (a.c1, b.c1), (a.c2, b.c2))
    )


_SYMMETRIES = ("antisymmetric", "symmetric", "none")


class PolyTensorField:
    """Rank-2 contravariant tensor field with Poly components ``T^{jk}``,
    stored as the arrays ``c0 (m, m)``, ``c1 (m, m, m)`` and
    ``c2 (m, m, m, m)``.

    A stack of ``B`` fields of one symmetry holds the same arrays with a
    leading batch axis (``c0 (B, m, m)`` and so on); ``lie_derivative``,
    ``flatten_field`` and ``unflatten_field`` of the contraction module
    accept such stacks.
    """

    __slots__ = ("m", "symmetry", "c0", "c1", "c2")

    def __init__(self, components, symmetry="none", validate_tol=1e-10):
        m = len(components)
        rows = []
        for row in components:
            row = list(row)
            if len(row) != m:
                raise DimensionError("component grid must be square")
            for p in row:
                if not isinstance(p, Poly) or p.m != m:
                    raise DimensionError("all components must be Poly in m variables")
            rows.append(row)
        self._set(
            symmetry,
            np.array([[p.c0 for p in row] for row in rows], dtype=float).reshape(m, m),
            np.array([[p.c1 for p in row] for row in rows], dtype=float).reshape(m, m, m),
            np.array([[p.c2 for p in row] for row in rows], dtype=float).reshape(
                m, m, m, m
            ),
            validate_tol,
        )

    def _set(self, symmetry, c0, c1, c2, validate_tol=None):
        if symmetry not in _SYMMETRIES:
            raise ValueError(f"symmetry must be one of {_SYMMETRIES}")
        self.m = c0.shape[-1]
        self.symmetry = symmetry
        self.c0, self.c1, self.c2 = c0, c1, c2
        if symmetry != "none" and validate_tol is not None:
            sign = -1.0 if symmetry == "antisymmetric" else 1.0
            for a in (c0, c1, c2):
                bad = np.abs(a - sign * np.swapaxes(a, 0, 1)) > validate_tol
                if bad.any():
                    j, k = np.argwhere(bad)[0][:2]
                    raise ValueError(
                        f"components ({j},{k}) and ({k},{j}) violate "
                        f"{symmetry} symmetry"
                    )

    @classmethod
    def _of(cls, c0, c1, c2, symmetry="none", validate_tol=None):
        T = cls.__new__(cls)
        T._set(symmetry, c0, c1, c2, validate_tol)
        return T

    @classmethod
    def from_arrays(cls, c0, c1, c2=None, symmetry="none", validate_tol=1e-10):
        """Field with ``T^{jk}(x) = c0[j,k] + c1[j,k] . x + x^T c2[j,k] x``;
        ``c2`` is symmetrized over its last two axes, and the component
        symmetry is validated as in the constructor."""
        c0 = np.asarray(c0, dtype=float)
        if c0.ndim != 2 or c0.shape[0] != c0.shape[1]:
            raise DimensionError("component grid must be square")
        m = c0.shape[0]
        return cls._of(*_coeff_arrays(c0, c1, c2, (m, m), m), symmetry, validate_tol)

    @classmethod
    def _mirrored(cls, c0, c1, c2, symmetry):
        """Field whose components below the diagonal are copied from those
        above it (negated when antisymmetric, with a zero diagonal); the
        arrays are modified in place.  Arrays with a leading batch axis
        give a stack of fields, ``c0`` of shape ``(B, m, m)``."""
        if symmetry != "none":
            lead = (slice(None),) * (c0.ndim - 2)
            below = np.tril_indices(c0.shape[-1], -1)
            diag = np.arange(c0.shape[-1])
            sgn = -1.0 if symmetry == "antisymmetric" else 1.0
            for a in (c0, c1, c2):
                a[lead + below] = sgn * a[lead + below[::-1]]
                if sgn < 0:
                    a[lead + (diag, diag)] = 0.0
        return cls._of(c0, c1, c2, symmetry)

    @classmethod
    def zero(cls, m, symmetry="none"):
        return cls._of(
            np.zeros((m, m)), np.zeros((m, m, m)), np.zeros((m, m, m, m)), symmetry
        )

    def component(self, j, k):
        return Poly._view(self.c0[j, k], self.c1[j, k], self.c2[j, k])

    @property
    def components(self):
        return [[self.component(j, k) for k in range(self.m)] for j in range(self.m)]

    def __call__(self, x):
        """Value ``(m, m)`` at a point ``(m,)``, or values ``(N, m, m)``
        over points ``(N, m)``."""
        m = self.m
        vals = _values(
            self.c0.reshape(m * m),
            self.c1.reshape(m * m, m),
            self.c2.reshape(m * m, m, m),
            x,
        )
        return vals.reshape(vals.shape[:-1] + (m, m))

    def __add__(self, other):
        if not isinstance(other, PolyTensorField):
            return NotImplemented
        if other.m != self.m:
            raise DimensionError("tensor fields live on different spaces")
        symmetry = self.symmetry if self.symmetry == other.symmetry else "none"
        return PolyTensorField._of(
            self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2, symmetry
        )

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, s):
        s = float(s)
        return PolyTensorField._of(
            s * self.c0, s * self.c1, s * self.c2, self.symmetry
        )

    def max_abs(self):
        return float(
            max(np.abs(a).max(initial=0.0) for a in (self.c0, self.c1, self.c2))
        )

    def allclose(self, other, tol=1e-12):
        if other.m != self.m:
            return False
        return _max_diff(self, other) <= tol

    def snap(self, tol):
        return PolyTensorField._of(*_snapped(self, tol), self.symmetry)

    def contract(self, u, v):
        """Scalar field ``T(u, v) = sum_{jk} u_j v_k T^{jk}`` for constant
        covector coefficient arrays ``u``, ``v``."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (self.m,) or v.shape != (self.m,):
            raise DimensionError("contraction coefficients have wrong length")
        return Poly(
            self.m,
            u @ self.c0 @ v,
            np.einsum("j,k,jkl->l", u, v, self.c1),
            np.einsum("j,k,jklp->lp", u, v, self.c2),
        )

    def to_dict(self):
        """JSON-ready dict; the coefficients of each component are arrays."""
        m = self.m
        return {
            "m": m,
            "symmetry": self.symmetry,
            "components": [
                [
                    {"c0": float(self.c0[j, k]), "c1": self.c1[j, k], "c2": self.c2[j, k]}
                    for k in range(m)
                ]
                for j in range(m)
            ],
        }

    @classmethod
    def from_dict(cls, data):
        m = data["m"]
        comps = [
            [Poly.from_dict(d, m) for d in row] for row in data["components"]
        ]
        return cls(comps, symmetry=data.get("symmetry", "none"), validate_tol=None)

    def __repr__(self):
        return f"PolyTensorField(m={self.m}, symmetry={self.symmetry!r})"

    def pretty(self, names=None, tol=1e-12):
        lines = []
        for j in range(self.m):
            krange = (
                range(j + 1, self.m)
                if self.symmetry == "antisymmetric"
                else range(j, self.m)
                if self.symmetry == "symmetric"
                else range(self.m)
            )
            for k in krange:
                p = self.component(j, k)
                if not p.is_zero(tol):
                    lines.append(f"T[{j + 1},{k + 1}] = {p.pretty(names, tol)}")
        return "\n".join(lines) if lines else "T = 0"
