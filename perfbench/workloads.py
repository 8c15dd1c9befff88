"""Seeded inputs of each workload, and the checks of each run's artifacts.

A workload is a fixed round of scenario kinds.  The inputs of run ``i``
come from ``numpy.random.default_rng([seed, i])``, so no two runs of a
workload share inputs and the same seed always gives the same inputs.
The program sees only the scenario files written here.
"""

from __future__ import annotations

import json

import numpy as np

from . import oracle

QUBIT_AFFINE = ("bloch-field", "phase-damping", "qubit-dissipation", "double-bracket")

ROUNDS = {
    "qubit-sweep": QUBIT_AFFINE + ("gisin", "kaufman-morrison"),
    "qutrit-report": ("massive-decoherence", "pure-decoherence", "scaled-decay"),
    "ququart-fields": ("generic-4", "massive-decoherence-4", "pure-decoherence-4"),
}

LEVELS = {"qubit-sweep": (2,), "qutrit-report": (2, 3), "ququart-fields": (4,)}


def _enc(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def _unit(rng, size):
    v = rng.normal(size=size)
    return v / np.linalg.norm(v)


def _state(rng, n):
    """Random full-rank state: a random pure state mixed with ``I/n``."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    p = rng.uniform(0.3, 0.85)
    return oracle.coords_of_state(p * np.outer(v, v.conj()) + (1 - p) * np.eye(n) / n, n)


def _traceless(rng, n, hermitian):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if hermitian:
        M = 0.5 * (M + M.conj().T)
    M -= np.trace(M) / n * np.eye(n)
    return M / np.linalg.norm(M)


def make_op(workload, seed, index, work_dir):
    """Spec of run ``index``; writes its scenario file."""
    kinds = ROUNDS[workload]
    kind = kinds[index % len(kinds)]
    rng = np.random.default_rng([seed, index])
    name = f"op{index:06d}"
    op = {"index": index, "round": index // len(kinds), "kind": kind, "name": name,
          "out": work_dir / name, "check_seed": int(rng.integers(2 ** 31))}
    params = {"seed": int(rng.integers(1, 2 ** 31))}
    scenario = {"name": name, "parameters": params}
    if workload == "qubit-sweep":
        op["n"] = 2
        op["B"] = _unit(rng, 3) * rng.uniform(0.8, 1.2)
        op["gamma"] = float(rng.uniform(0.5, 1.5))
        op["x0"] = _unit(rng, 3) * rng.uniform(0.2, 0.9)
        params.update(B=op["B"].tolist(), gamma=op["gamma"], x0=op["x0"].tolist())
        scenario["model"] = kind
        op["report"] = kind in QUBIT_AFFINE
        if op["report"]:
            scenario["outputs"] = ["field-samples", "trajectory", "tensor-family"]
    elif workload == "qutrit-report":
        op["n"], op["report"] = 3, True
        op["x0"] = _state(rng, 3)
        params["x0"] = op["x0"].tolist()
        if kind == "scaled-decay":
            op["s"] = float(rng.uniform(0.5, 2.0))
            E13 = np.zeros((3, 3))
            E13[0, 2] = 1.0
            E23 = np.zeros((3, 3))
            E23[1, 2] = 1.0
            op["H"], op["V"] = None, [np.sqrt(op["s"]) * E13,
                                      np.sqrt(op["s"]) * (E13 + E23)]
            scenario.update(n=3, model={"V": [_enc(V) for V in op["V"]]})
        else:
            op["gamma"] = float(rng.uniform(0.5, 1.5))
            params.update(gamma=op["gamma"], d=3)
            scenario["model"] = kind
    else:
        op["n"], op["report"] = 4, False
        op["x0"] = _state(rng, 4)
        params["x0"] = op["x0"].tolist()
        scenario["outputs"] = ["field-samples", "trajectory", "tables"]
        if kind == "generic-4":
            op["H"] = 2.0 * _traceless(rng, 4, hermitian=True)
            op["V"] = [_traceless(rng, 4, hermitian=False) for _ in range(2)]
            scenario.update(n=4, model={"H": _enc(op["H"]),
                                        "V": [_enc(V) for V in op["V"]]})
        else:
            op["gamma"] = float(rng.uniform(0.5, 1.5))
            params.update(gamma=op["gamma"], d=4)
            scenario["model"] = kind[: -len("-4")]
    op["path"] = work_dir / f"{name}.json"
    op["path"].write_text(json.dumps(scenario), encoding="utf-8")
    return op


def make_round(workload, seed, r, work_dir):
    k = len(ROUNDS[workload])
    return [make_op(workload, seed, r * k + i, work_dir) for i in range(k)]


def setup(workload, seed, work_dir, first_round):
    """Program-side set-up: the bases and the first round's scenarios."""
    from geomstates import build_basis

    for n in LEVELS[workload]:
        build_basis(n)
    return make_round(workload, seed, first_round, work_dir)


# ------------------------------------------------------------------ checks


def _fields(op):
    """Reference generator per field label, plus the trajectory's own."""
    kind, n = op["kind"], op["n"]
    if n == 2:
        a = oracle.observable(op["B"])
        sqg = np.sqrt(op["gamma"])
        if kind == "bloch-field":
            grad = oracle.gradient(a)
            gen = oracle.hamiltonian(a)
            return {"hamiltonian": gen, "gradient_descent": lambda r: -grad(r)}, gen
        if kind == "phase-damping":
            gen = oracle.lindblad(None, [sqg * oracle.basis_matrices(2)[3]])
        elif kind == "qubit-dissipation":
            Jp = np.array([[0.0, 1.0], [0.0, 0.0]])
            gen = oracle.lindblad(None, [sqg * Jp, sqg * Jp.T])
        elif kind == "double-bracket":
            gen = oracle.lindblad(None, [a / np.sqrt(2.0)])
        elif kind == "gisin":
            gen = oracle.gisin(a)
        else:  # kaufman-morrison: X_B + Y_S with S = -B
            ham, grad = oracle.hamiltonian(a), oracle.gradient(-a)
            gen = lambda r: ham(r) + grad(r)
        return {"generator": gen}, gen
    if "V" in op:
        gen = oracle.lindblad(op["H"], op["V"])
    elif kind.startswith("massive"):
        gen = oracle.massive_decoherence(n, op["gamma"])
    else:
        gen = oracle.pure_decoherence(n, [op["gamma"]] * (n - 1))
    return {"generator": gen}, gen


def check_op(op, pushforward):
    """Failures of one run's artifacts, and its contracted tables if any."""
    rng = np.random.default_rng(op["check_seed"])
    n, out, base = op["n"], op["out"], op["name"]
    fields, gen = _fields(op)
    fails = []
    for label, L in fields.items():
        fails += oracle.check_field_csv(out / f"{base}_field_{label}.csv", L, n)
    traj = out / f"{base}_trajectory.csv"
    if op["kind"] in ("gisin", "kaufman-morrison"):
        fails += oracle.check_trajectory_rk4(traj, gen, n, op["x0"])
    else:
        fails += oracle.check_trajectory_exact(traj, gen, n, op["x0"])
    fam = out / f"{base}_tensor_family.json"
    if op["n"] == 2 and op["report"]:
        fails += oracle.check_tensor_family(fam, gen, n, pushforward, rng)
    tables = None
    if op["report"]:
        rep = out / f"{base}_report.json"
        if op["kind"] == "scaled-decay":
            fails += oracle.check_report_decay(rep, op["s"])
        else:
            f, tables = oracle.check_report_limit(rep, gen, n, pushforward, rng)
            fails += f
    if op["report"] or n == 4:
        fails += oracle.check_static_tables(out / f"{base}_tables.json", n)
    return fails, tables


def check_rounds(checked):
    """Cross-run property: in each qutrit round the massive- and
    pure-decoherence models contract onto the same tables."""
    by_round = {}
    for op, tables in checked:
        by_round.setdefault(op["round"], {})[op["kind"]] = (op, tables)
    fails = {}
    for r, kinds in by_round.items():
        if "massive-decoherence" in kinds and "pure-decoherence" in kinds:
            (om, tm), (op_, tp) = kinds["massive-decoherence"], kinds["pure-decoherence"]
            f = oracle.check_tables_agree(tm, tp, f"round {r}")
            if f:
                fails[om["index"]] = f
                fails[op_["index"]] = f
    return fails
