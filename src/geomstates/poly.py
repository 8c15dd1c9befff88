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

All three kinds of object are stacks of such triples, with zero, one or two
component indices leading the coefficient arrays:

* a :class:`Poly` holds ``c0`` (a float), ``c1 (m)`` and ``c2 (m, m)``;
* a vector field ``Z`` holds ``c0 (m)``, ``c1 (m, m)`` and ``c2 (m, m, m)``,
  so ``Z^k(x) = c0[k] + c1[k] . x + x^T c2[k] x``;
* a tensor field ``T`` holds ``c0 (m, m)``, ``c1 (m, m, m)`` and
  ``c2 (m, m, m, m)``, with ``T^{jk}`` in slot ``[j, k]``.

Their shared base class implements, once, what acts on the three arrays
alike: sums, differences, negation and scaling, the norms ``max_abs`` and
``max_abs_quadratic``, ``is_zero``, ``allclose`` and ``snap``; the two
fields also share batched evaluation (at a point or over an ``(N, m)``
batch of points).  Inputs are validated in one place, which rejects
non-finite coefficients.  ``components`` and ``component(j, k)`` return
:class:`Poly` views that share the field's arrays.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import DegreeOverflowError, DimensionError, InvariantViolationError

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


def _coeff_arrays(c0, c1, c2, lead, m):
    """Float copies of stacked coefficient arrays with leading shape
    ``lead``; ``c2`` is symmetrized over its last two axes, and ``None``
    for ``c1`` or ``c2`` means zeros.  A non-finite coefficient raises
    :class:`InvariantViolationError`: a NaN compares false against every
    cut, so :meth:`snap` would turn it into an exact zero."""
    c0 = np.array(c0, dtype=float)
    c1 = np.zeros(lead + (m,)) if c1 is None else np.array(c1, dtype=float)
    c2 = np.zeros(lead + (m, m)) if c2 is None else _sym2(np.asarray(c2, dtype=float))
    for name, arr, shape in (
        ("c0", c0, lead),
        ("c1", c1, lead + (m,)),
        ("c2", c2, lead + (m, m)),
    ):
        if arr.shape != shape:
            raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvariantViolationError(f"{name} has non-finite coefficients")
    return c0, c1, c2


def _stack_polys(polys, lead):
    """Coefficient arrays of :class:`Poly` objects in ``m = lead[0]``
    variables, listed in row-major order over ``lead``."""
    m = lead[0]
    if m == 0:
        raise DimensionError("a field needs at least one component")
    if len(polys) != m ** len(lead) or not all(
        isinstance(p, Poly) and p.m == m for p in polys
    ):
        raise DimensionError(f"need {m ** len(lead)} components, all Poly in m={m}")
    return (
        np.array([p.c0 for p in polys]).reshape(lead),
        np.array([p.c1 for p in polys]).reshape(lead + (m,)),
        np.array([p.c2 for p in polys]).reshape(lead + (m, m)),
    )


class _Stack:
    """Coefficient stack ``c0 (*lead)``, ``c1 (*lead, m)``, ``c2 (*lead, m, m)``
    of polynomials of degree <= 2 in ``m`` variables.  The arrays are never
    modified in place, so results may share them with their operands."""

    __slots__ = ("m", "c0", "c1", "c2")

    @classmethod
    def _of(cls, c0, c1, c2):
        """Object around the arrays as they are (``c2`` already symmetric)."""
        obj = cls.__new__(cls)
        obj.m, obj.c0, obj.c1, obj.c2 = c1.shape[-1], c0, c1, c2
        return obj

    def _new(self, c0, c1, c2, other=None):
        """Object of the kind of ``self`` around new arrays; ``other`` is the
        second operand of a binary operation."""
        return self._of(c0, c1, c2)

    def _arrays(self):
        return self.c0, self.c1, self.c2

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}"
            )
        if other.m != self.m:
            raise DimensionError(
                f"objects in {self.m} and {other.m} variables are incompatible"
            )

    def _binary(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._new(*map(op, self._arrays(), other._arrays()), other)

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __neg__(self):
        return self._new(-self.c0, -self.c1, -self.c2)

    def scale(self, s):
        s = float(s)
        return self._new(s * self.c0, s * self.c1, s * self.c2)

    def __call__(self, x):
        """Value ``(*lead)`` at a point ``(m,)``, or values ``(N, *lead)``
        over points ``(N, m)``."""
        m, lead = self.m, self.c0.shape
        vals = _values(
            self.c0.reshape(-1), self.c1.reshape(-1, m), self.c2.reshape(-1, m, m), x
        )
        return vals.reshape(vals.shape[:-1] + lead)

    def max_abs(self):
        """Largest coefficient magnitude (NaN if any coefficient is NaN)."""
        return float(np.max([np.abs(a).max(initial=0.0) for a in self._arrays()]))

    def max_abs_quadratic(self):
        return float(np.abs(self.c2).max(initial=0.0))

    def is_zero(self, tol=0.0):
        return self.max_abs() <= tol

    def allclose(self, other, tol=1e-12):
        """Whether every coefficient lies within ``tol`` of ``other``'s; an
        object of another kind or in another ``m`` raises."""
        self._check(other)
        return (self - other).max_abs() <= tol

    def snap(self, tol):
        """Copy with the coefficients of magnitude at most ``tol`` zeroed."""
        return self._new(*(np.where(np.abs(a) > tol, a, 0.0) for a in self._arrays()))


class Poly(_Stack):
    """Real polynomial of degree <= 2 in ``m`` variables."""

    __slots__ = ()

    def __init__(self, m, c0=0.0, c1=None, c2=None):
        if m < 0:
            raise DimensionError("number of variables must be >= 0")
        self.m = int(m)
        c0, self.c1, self.c2 = _coeff_arrays(c0, c1, c2, (), self.m)
        self.c0 = float(c0)

    @classmethod
    def _of(cls, c0, c1, c2):
        """Poly around ``c1`` and ``c2`` (already symmetric), e.g. views of
        a field component."""
        return super()._of(float(c0), c1, c2)

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

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        if isinstance(other, (int, float)):
            return Poly._of(self.c0 + other, self.c1, self.c2)
        return super().__add__(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return Poly._of(self.c0 - other, self.c1, self.c2)
        return super().__sub__(other)

    def __rsub__(self, other):
        return (-self) + other

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


class PolyVectorField(_Stack):
    """Vector field on coordinate space with Poly components ``Z^k``, stored
    as the arrays ``c0 (m)``, ``c1 (m, m)`` and ``c2 (m, m, m)``."""

    __slots__ = ()

    def __init__(self, components):
        components = list(components)
        self.c0, self.c1, self.c2 = _stack_polys(components, (len(components),))
        self.m = len(components)

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
        return [Poly._of(self.c0[k], self.c1[k], self.c2[k]) for k in range(self.m)]

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


_SYMMETRIES = ("antisymmetric", "symmetric", "none")


class PolyTensorField(_Stack):
    """Rank-2 contravariant tensor field with Poly components ``T^{jk}``,
    stored as the arrays ``c0 (m, m)``, ``c1 (m, m, m)`` and
    ``c2 (m, m, m, m)``.

    A stack of ``B`` fields of one symmetry holds the same arrays with a
    leading batch axis (``c0 (B, m, m)`` and so on); ``lie_derivative``,
    ``flatten_field`` and ``unflatten_field`` of the contraction module
    accept such stacks.  A sum or difference of fields of different
    symmetry has symmetry ``"none"``.
    """

    __slots__ = ("symmetry",)

    def __init__(self, components, symmetry="none", validate_tol=1e-10):
        rows = [list(row) for row in components]
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise DimensionError("component grid must be square")
        polys = [p for row in rows for p in row]
        self._set(symmetry, *_stack_polys(polys, (m, m)), validate_tol)

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

    def _new(self, c0, c1, c2, other=None):
        same = other is None or other.symmetry == self.symmetry
        return self._of(c0, c1, c2, self.symmetry if same else "none")

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
        return Poly._of(self.c0[j, k], self.c1[j, k], self.c2[j, k])

    @property
    def components(self):
        return [[self.component(j, k) for k in range(self.m)] for j in range(self.m)]

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
        """Inverse of :meth:`to_dict`; a missing coefficient is zero."""
        m = data["m"]
        comps = [d for row in data["components"] for d in row]
        if len(comps) != m * m:
            raise DimensionError("component grid must be square")

        def stacked(key, shape):
            return np.reshape([d.get(key, np.zeros(shape)) for d in comps], (m, m) + shape)

        return cls.from_arrays(
            stacked("c0", ()),
            stacked("c1", (m,)),
            stacked("c2", (m, m)),
            symmetry=data.get("symmetry", "none"),
            validate_tol=None,
        )

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
