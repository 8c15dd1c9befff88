"""Command-line runner for state-space tensor scenarios.

``geomstates run <name|path>`` executes one scenario — either a builtin
model from the registry or a JSON scenario file — and writes plain-text
artifacts into an output directory:

``<name>_field_<label>.csv``
    Vector-field samples on a deterministic low-discrepancy grid
    (columns ``x_1..x_m, v_1..v_m``).  For two-level systems the grid
    fills the closed Bloch ball; for larger systems it fills a
    positivity-checked coordinate slice.  A few exact anchor points
    (the origin, poles, axis points, known stationary states) are
    always included so stationary rows appear exactly.
``<name>_trajectory.csv``
    An integral curve of the generator (columns ``t, x_1..x_m,
    purity``).
``<name>_report.json``
    The contraction analysis of the tensor flow: verdict, sector
    eigenvalues as ``[re, im]`` pairs, contracted or limit-set product
    tables as ``{c0, c1, c2}`` polynomials, and axiom residuals.  Flags
    such as ``closed`` and ``linear`` are JSON booleans.
``<name>_tables.json``
    The static Poisson/Jordan product tables of the model's algebra.
``<name>_tensor_family.json``
    The transported tensor fields on a coarse time grid.

Artifacts are deterministic: the same scenario with the same seed
produces byte-identical files.  CSV numbers are written ``%.17g``, JSON
floats as their shortest ``repr``.  The sampling seed defaults to 7 and can
be overridden with the environment variable ``GEOM_SEED``.  Exit codes:
0 on success, 1 when a model invariant fails, 2 on usage errors
(unknown scenario, malformed file).

Scenario files are JSON objects::

    {
      "name": "my-run",
      "model": "phase-damping",            // builtin name, or:
      // "model": {"H": [[0, [0,-1]], [[0,1], 0]], "V": [ ... ]},
      "n": 2,                              // required for explicit models
      "outputs": ["field-samples", "trajectory", "contraction"],
      "parameters": {"gamma": 0.5, "t_end": 2.0, "x0": [0.3, 0, 0.5]}
    }

Matrix entries are real numbers or ``[re, im]`` pairs.  An explicit
``H`` is the traceless observable generating the Hamiltonian part in
the algebra's own convention ``d rho/dt = [[rho, H]]``; a conventional
commutator Hamiltonian ``H_c`` (``d rho/dt = -i [H_c, rho]``) enters as
``H = -2 H_c``.  Jump matrices ``V`` must be traceless.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field as dc_field
from json.encoder import encode_basestring_ascii
from math import ceil, isfinite
from numbers import Real
from operator import itemgetter
from pathlib import Path

import numpy as np

from .algebra import build_basis
from .errors import GeomstatesError, InvariantViolationError, _check_memory
from .poly import PolyVectorField
from .states import _in_body, _ScrambledHalton, max_bloch_radius
from .tensors import (
    _csv_lines,
    field_csv_rows,
    gradient_vf,
    hamiltonian_vf,
    poisson_field,
    symmetric_field,
)
from .dynamics import (
    LindbladModel,
    integrate,
    lindblad_vf,
    model_double_bracket,
    model_gisin,
    model_kaufman_morrison,
    model_massive_decoherence,
    model_phase_damping,
    model_pure_decoherence,
    model_qubit_dissipation,
    model_three_level_decay,
    state_from_coords,
)
from .contraction import (
    analyze_contraction,
    flow_family,
    format_product_table,
    matches_level_algebra,
)

DEFAULT_SEED = 7
OUTPUT_KINDS = ("field-samples", "trajectory", "tensor-family", "contraction", "tables")

# parameter -> (default, number type, holds a list of them, may be null)
_PARAMS = {
    "gamma": (1.0, float, False, False),
    "B": ((0.0, 0.0, 1.0), float, True, False),
    "t_end": (5.0, float, False, False),
    "dt": (None, float, False, True),
    "x0": (None, float, True, True),
    "points": (500, int, False, False),
    "slice": (None, int, True, True),
    "d": (3, int, False, False),
    "seed": (DEFAULT_SEED, int, False, False),
}
_DEFAULTS = {key: spec[0] for key, spec in _PARAMS.items()}

_DEFAULT_X0 = {
    2: (0.3, 0.3, 0.8),
    3: (0.2, 0.1, 0.3, 0.05, -0.05, 0.1, -0.1, 0.25),
}


@dataclass
class RunSetup:
    """Everything one scenario run needs."""

    name: str
    basis: object
    generator: PolyVectorField
    fields: dict
    outputs: tuple
    x0: np.ndarray
    anchors: list = dc_field(default_factory=list)


# ------------------------------------------------------------------ registry


def _b_observable(basis, B):
    B = np.asarray(B, dtype=float)
    if B.shape != (3,):
        raise InvariantViolationError("B must have three components")
    if not np.any(B):
        raise InvariantViolationError("B must be nonzero")
    coeffs = np.zeros(4)
    coeffs[1:] = B
    return basis.observable(coeffs)


def _axis_anchors(u):
    u = np.asarray(u, dtype=float)
    return [np.zeros(u.shape[0]), u.copy(), -u, 0.5 * u, -0.5 * u]


def _x0_of(params, basis):
    x0 = params.get("x0")
    if x0 is None:
        x0 = _DEFAULT_X0.get(basis.n)
    if x0 is None:
        r = np.sqrt(2.0 / (basis.n * (basis.n - 1)))
        x0 = np.zeros(basis.m)
        x0[-1] = 0.8 * r
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (basis.m,):
        raise InvariantViolationError(
            f"x0 must have {basis.m} coordinates, got {x0.shape}"
        )
    return x0


def _diag_anchors(basis):
    """Origin plus small displacements along the diagonal coordinates."""
    anchors = [np.zeros(basis.m)]
    n = basis.n
    diag_idx = [j for j, el in enumerate(basis.elements[1:]) if
                np.abs(el - np.diag(np.diag(el))).max() < 1e-14]
    for j in diag_idx:
        e = np.zeros(basis.m)
        e[j] = 0.4
        anchors.append(e.copy())
        anchors.append(-0.25 * e)
    return anchors


def _run_setup(name, basis, params, fields, anchors):
    """RunSetup whose generator is the first field listed."""
    return RunSetup(
        name=name,
        basis=basis,
        generator=next(iter(fields.values())),
        fields=fields,
        outputs=("field-samples", "trajectory"),
        x0=_x0_of(params, basis),
        anchors=anchors,
    )


def _b_qubit(name, fields_of, params):
    """Qubit model built from the observable ``B``, anchored on its axis."""
    basis = build_basis(2)
    obs = _b_observable(basis, params["B"])
    B = obs.traceless_coeffs
    fields = fields_of(basis, obs)
    return _run_setup(name, basis, params, fields, _axis_anchors(B / np.linalg.norm(B)))


def _axis_qubit(name, model, params):
    """Lindblad qubit model of rate ``gamma``, anchored on the z axis."""
    basis = build_basis(2)
    Z = lindblad_vf(model(params["gamma"]))
    return _run_setup(
        name, basis, params, {"generator": Z}, _axis_anchors([0.0, 0.0, 1.0])
    )


def _decoherence(name, model, params):
    """``d``-level decoherence model of rate ``gamma``."""
    d = int(params["d"])
    basis = build_basis(d)
    Z = model(d, params["gamma"])
    return _run_setup(name, basis, params, {"generator": Z}, _diag_anchors(basis))


def _three_level(name, model, params):
    """Fixed three-level Lindblad model, anchored at its stationary state."""
    basis = build_basis(3)
    Z = lindblad_vf(model())
    xstar = np.zeros(8)
    xstar[7] = 1.0 / np.sqrt(3.0)
    return _run_setup(name, basis, params, {"generator": Z}, [np.zeros(8), xstar])


# builtin name -> (setup builder, model it is given)
REGISTRY = {
    "bloch-field": (
        _b_qubit,
        lambda basis, obs: {
            "hamiltonian": hamiltonian_vf(basis, obs),
            "gradient-descent": -gradient_vf(basis, obs),
        },
    ),
    "phase-damping": (_axis_qubit, model_phase_damping),
    "qubit-dissipation": (_axis_qubit, model_qubit_dissipation),
    "massive-decoherence": (_decoherence, model_massive_decoherence),
    "pure-decoherence": (
        _decoherence,
        lambda d, g: model_pure_decoherence(d, (d - 1) * (float(g),)),
    ),
    "three-level-decay": (_three_level, model_three_level_decay),
    "gisin": (_b_qubit, lambda basis, obs: {"generator": model_gisin(basis, obs)}),
    "double-bracket": (
        _b_qubit,
        lambda basis, obs: {"generator": model_double_bracket(basis, obs)},
    ),
    "kaufman-morrison": (
        _b_qubit,
        lambda basis, obs: {
            "generator": model_kaufman_morrison(
                basis, obs, _b_observable(basis, -obs.traceless_coeffs)
            )
        },
    ),
}


def _builtin_setup(name, params):
    build, model = REGISTRY[name]
    return build(name, model, params)


# ------------------------------------------------------------------ sampling


def sample_states(basis, count, seed, anchors=(), slice_coords=None):
    """Deterministic quasi-uniform grid of valid states.

    Anchor points come first; the rest is a scrambled Halton sequence
    filtered by positivity — over the full coordinate ball for two-level
    systems, over a two-coordinate slice otherwise.  Positivity is tested
    in batches, one call per Halton draw, keeping accepted points in draw
    order; draws after the first are sized from the acceptance rate so
    far, and none is larger than the first.  Raises
    :class:`InvariantViolationError` before drawing when the first draw and
    the grid would not fit in memory.
    """
    m, n = basis.m, basis.n
    if count < 0:
        raise InvariantViolationError(
            f"the number of grid points must be nonnegative, got {count}"
        )
    # "+ 0.0" turns negative zeros into plain zeros for clean CSV output
    pts = [np.asarray(a, dtype=float) + 0.0 for a in anchors]
    if len(pts) >= count:
        return np.array(pts[:count])
    if slice_coords is None:
        cols = list(range(m)) if n == 2 else [0, 1]
    else:
        cols = [int(c) - 1 for c in slice_coords]
        if len(cols) < 1 or len(set(cols)) != len(cols) or any(
            c < 0 or c >= m for c in cols
        ):
            raise InvariantViolationError("slice coordinates out of range")
    R = max_bloch_radius(n)
    need = count - len(pts)
    k = len(cols)
    size = first = max(128, 2 * need)
    # per drawn point: the Halton sample, its transpose and four index and
    # term arrays of the same size, x and its accepted copy, the sampled
    # columns' copy, and for the positivity bounds four arrays of the
    # levels and four of the pairs; for the rows near the cut a complex
    # density matrix, one temporary of its size and its eigenvalues; then
    # the grid, twice
    _check_memory(
        8 * first * (7 * k + 2 * m + 4 * n + 2 * n * (n - 1) + 4 * n * n + n)
        + 16 * count * m,
        f"a grid of {count} sampled states",
    )
    sampler = _ScrambledHalton(k, int(seed))
    blocks = [np.reshape(pts, (-1, m))]
    budget = 1000 * first
    drawn = kept = 0
    while need > 0 and drawn < budget:
        u = sampler.random(size)
        X = np.zeros((size, m))
        X[:, cols] = (2.0 * u - 1.0) * R
        X = X[_in_body(basis, X, 1e-12, cols)]
        blocks.append(X[:need])
        need -= len(blocks[-1])
        drawn += size
        kept += len(X)
        # the next draw keeps what is missing at the rate so far, with 20 %
        # to spare; the kept points are the same for any draw sizes
        size = min(first, max(128, ceil(1.2 * need * drawn / kept))) if kept else first
    if need > 0:
        raise InvariantViolationError("state sampling failed to fill the grid")
    return np.concatenate(blocks)


# -------------------------------------------------------------- serializers


def _json_text(obj):
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` writes it, plus the newline that ends the file, in
    one pass that also takes numpy arrays and scalars, and complex values
    as ``[re, im]``."""
    parts = []
    _json_parts(obj, "\n", {}, parts)
    parts.append("\n")
    return "".join(parts)


def _json_parts(obj, pad, cache, parts):
    """Append the text of ``obj`` to the list ``parts``.  ``pad`` is the line
    break and indentation of the enclosing level; ``cache`` holds the text
    of float arrays (see :func:`_array_text`) within one document."""
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim:
            parts.append(_array_text(obj, pad, cache))
            return
        obj = obj.tolist()
    inner = pad + "  "
    if isinstance(obj, (list, tuple, dict)) and not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float} and all(map(isfinite, obj)):
            parts.append("[" + inner + ("," + inner).join(map(float.__repr__, obj)))
        else:
            for i, v in enumerate(obj):
                parts.append(("," if i else "[") + inner)
                _json_parts(v, inner, cache, parts)
        parts.append(pad + "]")
    elif isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items(), key=itemgetter(0))
        for i, (k, v) in enumerate(items):
            parts.append(("," if i else "{") + inner + encode_basestring_ascii(k) + ": ")
            _json_parts(v, inner, cache, parts)
        parts.append(pad + "}")
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    # bool before int: True is an int too
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        if not isfinite(obj):
            raise ValueError(
                f"out of range float values are not JSON compliant: {obj!r}"
            )
        parts.append(float.__repr__(float(obj)))
    elif isinstance(obj, (int, np.integer)):
        parts.append(int.__repr__(int(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _json_parts([obj.real, obj.imag], pad, cache, parts)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _array_text(a, pad, cache):
    """A float64 array as :func:`_json_text` writes its nested list.  Each
    array and sub-array is rendered once per distinct shape, bytes and
    ``pad``; a non-finite entry raises ``ValueError``."""
    key = (pad, a.shape, a.tobytes())
    text = cache.get(key)
    if text is None:
        inner = pad + "  "
        if not a.shape[0]:
            text = "[]"
        elif a.ndim > 1:
            texts = [_array_text(r, inner, cache) for r in a]
            text = "[" + inner + ("," + inner).join(texts) + pad + "]"
        else:
            vals = a.tolist()
            for v in vals:
                if not isfinite(v):
                    raise ValueError(
                        f"out of range float values are not JSON compliant: {v!r}"
                    )
            text = "[" + inner + ("," + inner).join(map(float.__repr__, vals)) + pad + "]"
        cache[key] = text
    return text


def _analysis_json(ana):
    # sorted by value to 9 digits, so round-off does not reorder the list
    eigs = sorted(
        ([float(ev.real), float(ev.imag)] for ev in np.atleast_1d(ana.eigenvalues)),
        key=lambda p: (round(p[0], 9), round(p[1], 9)),
    )
    out = {
        "verdict": ana.verdict,
        "symmetry": ana.symmetry,
        "eigenvalues": eigs,
        "amplitudes": {k: float(v) for k, v in ana.amplitudes.items()},
        "defect": float(ana.defect),
        "tolerance": float(ana.etol),
        "modes": [
            {
                "eigenvalue": [float(md.eigenvalue.real), float(md.eigenvalue.imag)],
                "growth_rate": float(md.growth_rate),
                "amplitude": float(md.amplitude),
                "component": md.component,
                "polynomial_growth": bool(md.polynomial_growth),
                "oscillatory": bool(md.oscillatory),
            }
            for md in ana.modes
        ],
    }
    if ana.limit is not None:
        out["limit"] = ana.limit.to_dict()
    return out


def _stationary_json(st):
    return {
        "kind": st.kind,
        "points": [p.tolist() for p in st.points],
        "residuals": [float(r) for r in st.residuals],
        "directions": None if st.directions is None else st.directions.tolist(),
        "in_body": st.in_body,
    }


def _limit_set_json(lsa):
    if lsa is None:
        return None
    names = [f"x_{j + 1}" for j in lsa.free_indices]
    out = {
        "point": lsa.point.tolist(),
        "free_coordinates": names,
        "poisson": lsa.poisson.to_dict()["components"],
        "jordan": lsa.jordan.to_dict()["components"],
        "closed": bool(lsa.closed),
    }
    k = len(lsa.free_indices)
    level = int(round(np.sqrt(k + 1)))
    # a single stationary point (k = 0) carries no n-level algebra
    if lsa.closed and level >= 2 and level * level == k + 1:
        if matches_level_algebra(lsa, level):
            out["isomorphic_to_level"] = level
    return out


def report_json(report, model_name):
    """JSON-ready dict for a contraction report."""
    out = {
        "model": model_name,
        "n": int(report.n),
        "verdict": report.verdict,
        "sectors": {
            "poisson": _analysis_json(report.poisson),
            "symmetric": _analysis_json(report.symmetric),
        },
        "stationary": _stationary_json(report.stationary),
        "axioms": None if report.axioms is None else asdict(report.axioms),
        "isomorphism": report.isomorphism,
        "limit_set": _limit_set_json(report.limit_set),
    }
    if report.tables is not None:
        out["tables"] = {
            "poisson": report.tables.poisson.to_dict()["components"],
            "jordan": report.tables.jordan.to_dict()["components"],
            "linear": bool(report.tables.linear),
        }
    else:
        out["tables"] = None
    return out


def _constants_grid(const):
    """Products ``x_j, x_k -> const[j,k,0] + sum_l const[j,k,l] x_l`` of the
    coordinate functions, read off a structure-constant array, as
    ``{c0, c1, c2}`` dicts holding arrays."""
    m = const.shape[0] - 1
    # "+ 0.0" turns negative zeros into plain zeros for clean JSON output
    grid = const[1:, 1:] + 0.0
    c2 = np.zeros((m, m))
    return [
        [{"c0": float(grid[j, k, 0]), "c1": grid[j, k, 1:], "c2": c2} for k in range(m)]
        for j in range(m)
    ]


def static_tables_json(basis):
    """The Poisson brackets and Jordan products of the coordinate functions."""
    return {
        "n": basis.n,
        "names": [f"x_{j + 1}" for j in range(basis.m)],
        "poisson": _constants_grid(basis.lie_constants),
        "jordan": _constants_grid(basis.jordan_constants),
    }


# ------------------------------------------------------------------ writers


def _write_text(path, text):
    path.write_text(text, encoding="utf-8")


def _write_csv(path, lines):
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_text(path, _json_text(obj))


def _slug(name):
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).replace("-", "_").strip("_")


# ------------------------------------------------------------ scenario files


def _is_number(v, kind=float):
    """Whether ``v`` is a finite real number (not a boolean, although
    ``bool`` is an ``int``); for ``kind`` int, an integral one."""
    return (
        isinstance(v, Real)
        and not isinstance(v, bool)
        and isfinite(v)
        and (kind is float or float(v).is_integer())
    )


def _checked_params(params):
    """A copy of ``params`` after checking that each key is a known parameter
    and each value has its type."""
    for key, value in params.items():
        if key not in _PARAMS:
            raise InvariantViolationError(f"unknown parameter {key!r}")
        _, kind, is_list, nullable = _PARAMS[key]
        if value is None and nullable:
            continue
        noun = "integer" if kind is int else "finite number"
        if is_list:
            ok = isinstance(value, (list, tuple)) and all(
                _is_number(v, kind) for v in value
            )
            what = f"a list of {noun}s"
        else:
            ok = _is_number(value, kind)
            what = f"an {noun}" if kind is int else f"a {noun}"
        if not ok:
            raise InvariantViolationError(
                f"parameter {key!r} must be {what}, got {value!r}"
            )
        # the Halton scrambling seeds numpy's generator, which takes no
        # negative seed
        if key == "seed" and value < 0:
            raise InvariantViolationError(
                f"parameter 'seed' must be nonnegative, got {value!r}"
            )
    return dict(params)


def _parse_matrix(obj, what):
    if not isinstance(obj, list) or not obj or not all(
        isinstance(r, list) for r in obj
    ):
        raise InvariantViolationError(f"{what} must be a list of rows")
    rows = []
    for row in obj:
        out = []
        for v in row:
            if isinstance(v, list):
                if len(v) != 2 or not all(map(_is_number, v)):
                    raise InvariantViolationError(
                        f"{what}: complex entries are [re, im] pairs of numbers, "
                        f"got {v!r}"
                    )
                out.append(complex(float(v[0]), float(v[1])))
            elif _is_number(v):
                out.append(complex(float(v), 0.0))
            else:
                raise InvariantViolationError(f"{what}: bad matrix entry {v!r}")
        rows.append(out)
    M = np.array(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvariantViolationError(f"{what} must be square")
    return M


def setup_from_scenario(data, params, default_name):
    """Build a RunSetup from a parsed scenario-file object; returns it with
    the parameters in use.  ``params`` (checked overrides) beat the file's
    ``parameters``, which beat the defaults."""
    if not isinstance(data, dict):
        raise InvariantViolationError("scenario file must hold a JSON object")
    file_params = data.get("parameters", {})
    if not isinstance(file_params, dict):
        raise InvariantViolationError("'parameters' must be an object")
    merged = {**_DEFAULTS, **_checked_params(file_params), **params}

    model = data.get("model")
    if model is None:
        raise InvariantViolationError("scenario file needs a 'model' entry")
    if isinstance(model, str):
        if model not in REGISTRY:
            raise InvariantViolationError(
                f"unknown builtin model {model!r}; registered: "
                + ", ".join(REGISTRY)
            )
        setup = _builtin_setup(model, merged)
    elif not isinstance(model, dict):
        raise InvariantViolationError(
            "'model' must be a builtin name or an object of H and V matrices"
        )
    else:
        H = model.get("H")
        Vs = model.get("V", [])
        if not isinstance(Vs, list):
            raise InvariantViolationError("'V' must be a list of matrices")
        Hm = None if H is None else _parse_matrix(H, "H")
        Vms = [_parse_matrix(V, f"V[{i}]") for i, V in enumerate(Vs)]
        sizes = {M.shape[0] for M in ([Hm] if Hm is not None else []) + Vms}
        if not sizes:
            raise InvariantViolationError("explicit model needs H or V matrices")
        if len(sizes) != 1:
            raise InvariantViolationError("H and V matrices disagree in size")
        n = sizes.pop()
        if "n" in data and (not _is_number(data["n"], int) or int(data["n"]) != n):
            raise InvariantViolationError(
                f"scenario says n={data['n']!r} but matrices are {n}x{n}"
            )
        basis = build_basis(n)
        Z = lindblad_vf(LindbladModel(basis, H=Hm, V=Vms))
        setup = _run_setup(
            "scenario", basis, merged, {"generator": Z}, [np.zeros(basis.m)]
        )
    name = data.get("name") or default_name
    setup.name = str(name)
    outputs = data.get("outputs")
    if outputs is not None:
        if not isinstance(outputs, list):
            raise InvariantViolationError(
                f"'outputs' must be a list of output kinds, got {outputs!r}"
            )
        outputs = tuple(outputs)
        bad = [o for o in outputs if o not in OUTPUT_KINDS]
        if bad:
            raise InvariantViolationError(
                f"unknown outputs {bad}; supported: {', '.join(OUTPUT_KINDS)}"
            )
        setup.outputs = outputs
    return setup, merged


# ------------------------------------------------------------------ running


def _print_report_summary(report, info, lines):
    """Log lines for a contraction report and its ``report_json`` dict."""
    lines.append(f"contraction verdict: {report.verdict}")
    if report.verdict == "limit" and report.tables is not None:
        lines.append("contracted products:")
        lines.extend("  " + t for t in format_product_table(report.tables))
        if report.axioms is not None:
            lines.append(
                f"axiom residuals: max {report.axioms.max_residual():.3e} "
                "(exact, on the basis)"
            )
        if report.isomorphism:
            lines.append(report.isomorphism["description"])
    elif report.verdict == "divergent":
        for sector, md in report.divergent_modes():
            if md.growth_rate <= 0 and not md.polynomial_growth:
                continue
            kind = "polynomial" if md.polynomial_growth else (
                f"rate {md.growth_rate:.6g}"
            )
            lines.append(
                f"divergent mode [{sector}]: {kind}, amplitude "
                f"{md.amplitude:.6g}, {md.component}"
            )
        if report.limit_set is not None:
            lsa = report.limit_set
            names = [f"x_{j + 1}" for j in lsa.free_indices]
            # round-off below this cut is printed as an exact zero
            cut = 1e-12 * max(1.0, float(np.abs(lsa.point).max(initial=0.0)))
            pinned = [
                f"x_{j + 1}={lsa.point[j] if abs(lsa.point[j]) >= cut else 0:.6g}"
                for j in range(len(lsa.point))
                if j not in lsa.free_indices
            ]
            lines.append(
                ("limit set: free coordinates " + ", ".join(names) if names
                 else "limit set: a single point")
                + ("; pinned " + ", ".join(pinned) if pinned else "")
            )
            level = info["limit_set"].get("isomorphic_to_level")
            if level is not None:
                lines.append(f"limit-set algebra matches a {level}-level system")


def run_scenario(target, out_dir="geomstates-out", params=None, report=False):
    """Execute a builtin or scenario file; returns (artifact dict, log lines).

    ``target`` is a registry name or a path to a JSON scenario file.
    ``params`` maps parameter names to overrides, which beat the defaults
    and the values of a scenario file.  ``report=True`` adds the
    contraction and static-table artifacts.
    """
    params = _checked_params(params or {})

    path = Path(target)
    looks_like_file = target.endswith(".json") or os.sep in target or path.is_file()
    if looks_like_file:
        if not path.is_file():
            raise FileNotFoundError(f"scenario file not found: {target}")
        data = json.loads(path.read_text(encoding="utf-8"))
        setup, merged = setup_from_scenario(data, params, path.stem)
    else:
        merged = {**_DEFAULTS, **params}
        setup = _builtin_setup(target, merged)  # KeyError for unknown names

    outputs = list(setup.outputs)
    if report:
        for extra in ("contraction", "tables"):
            if extra not in outputs:
                outputs.append(extra)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = _slug(setup.name)
    lines = [f"scenario: {setup.name} (n={setup.basis.n})"]
    artifacts = {}

    if "field-samples" in outputs:
        grid = sample_states(
            setup.basis,
            int(merged["points"]),
            merged["seed"],
            anchors=setup.anchors,
            slice_coords=merged["slice"],
        )
        paths = []
        for label, vf in setup.fields.items():
            p = out / f"{base}_field_{_slug(label)}.csv"
            rows = field_csv_rows(vf, grid)
            _write_csv(p, rows)
            lines.append(f"wrote {p} ({len(rows) - 1} samples)")
            paths.append(p)
        artifacts["field-samples"] = paths

    if "trajectory" in outputs:
        state0 = state_from_coords(setup.basis, setup.x0)
        traj = integrate(
            setup.generator, state0, merged["t_end"], dt=merged["dt"]
        )
        names = ["t"] + [f"x_{j + 1}" for j in range(setup.basis.m)] + ["purity"]
        rows = _csv_lines(names, np.column_stack((traj.times, traj.xs, traj.purities())))
        p = out / f"{base}_trajectory.csv"
        _write_csv(p, rows)
        lines.append(f"wrote {p} ({len(rows) - 1} samples, {traj.method})")
        artifacts["trajectory"] = p

    if "tensor-family" in outputs:
        times = np.linspace(0.0, float(merged["t_end"]), 11)
        famL = flow_family(setup.generator, poisson_field(setup.basis))
        famR = flow_family(setup.generator, symmetric_field(setup.basis))
        obj = {
            "times": times.tolist(),
            "poisson": [famL.tensor_at(t).to_dict() for t in times],
            "symmetric": [famR.tensor_at(t).to_dict() for t in times],
        }
        p = out / f"{base}_tensor_family.json"
        _write_json(p, obj)
        lines.append(f"wrote {p}")
        artifacts["tensor-family"] = p

    if "contraction" in outputs:
        rep = analyze_contraction(setup.generator, setup.basis)
        info = report_json(rep, setup.name)
        _print_report_summary(rep, info, lines)
        p = out / f"{base}_report.json"
        _write_json(p, info)
        lines.append(f"wrote {p}")
        artifacts["contraction"] = p

    if "tables" in outputs:
        p = out / f"{base}_tables.json"
        _write_json(p, static_tables_json(setup.basis))
        lines.append(f"wrote {p}")
        artifacts["tables"] = p

    return artifacts, lines


# ---------------------------------------------------------------------- CLI


def _parse_floats(text, what, count=None):
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated numbers")
    if count is not None and len(vals) != count:
        raise argparse.ArgumentTypeError(f"{what} needs {count} components")
    return vals


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geomstates",
        description="Tensorial state-space models: run scenarios, write "
        "deterministic CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="run a builtin scenario or a JSON scenario file"
    )
    runp.add_argument("scenario", help="builtin name or path to a scenario file")
    runp.add_argument("--out", default="geomstates-out", help="output directory")
    runp.add_argument("--gamma", type=float, default=None, help="damping rate")
    runp.add_argument(
        "--B",
        default=None,
        help="magnetic observable components bx,by,bz (two-level models)",
    )
    runp.add_argument("--t-end", type=float, default=None, help="trajectory length")
    runp.add_argument("--dt", type=float, default=None, help="trajectory sample step")
    runp.add_argument(
        "--x0", default=None, help="initial coordinates, comma separated"
    )
    runp.add_argument(
        "--points", type=int, default=None, help="field-sample grid size"
    )
    runp.add_argument(
        "--report",
        action="store_true",
        help="also write the contraction report and static product tables",
    )

    sub.add_parser("list", help="list the registered builtin scenarios")
    return parser


def _cli_params(args):
    params = {
        "gamma": args.gamma,
        "B": None if args.B is None else _parse_floats(args.B, "--B", 3),
        "t_end": args.t_end,
        "dt": args.dt,
        "x0": None if args.x0 is None else _parse_floats(args.x0, "--x0"),
        "points": args.points,
    }
    seed_text = os.environ.get("GEOM_SEED")
    if seed_text is not None:
        try:
            seed = int(seed_text)
        except ValueError:
            seed = None
        if seed is None or seed < 0:
            raise argparse.ArgumentTypeError(
                f"GEOM_SEED must be a nonnegative integer, got {seed_text!r}"
            )
        params["seed"] = seed
    return {key: value for key, value in params.items() if value is not None}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in REGISTRY:
            print(name)
        return 0

    try:
        params = _cli_params(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        _, lines = run_scenario(
            args.scenario, out_dir=args.out, params=params, report=args.report
        )
    except KeyError:
        print(
            f"error: unknown scenario {args.scenario!r}. Registered builtins:",
            file=sys.stderr,
        )
        for name in REGISTRY:
            print(f"  {name}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: could not parse scenario file {args.scenario}: "
            f"line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except GeomstatesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
